"""The bgg benchmark: one workload, checked outputs, every metric by name.

Usage (from the repository root):

    python3 perfbench/run.py --workload {figures,verify,cli} --seed N \\
        --seconds T --trace {0,1}

With --trace 0 it measures set-up time SETUP_RUNS times, then runs the
workload untraced for whole passes until at least T seconds and 100
requests are done, and reports the end-to-end metrics.  With --trace 1
it runs TRACE_PASSES passes untraced and the same passes traced, each in
a fresh worker process, and reports the per-layer metrics of the traced
run with trace.overhead_ratio; the untraced end-to-end figures are
printed beside them.  End-to-end metrics never come from a traced run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A failed request is one whose output
failed a check, that exited with an unexpected code, or that raised;
correct is false if any request other than a known defect
(workloads.KNOWN_DEFECTS) failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import speed
from tracing import METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("figures", "verify", "cli")
SETUP_RUNS = 7
TRACE_PASSES = 2
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _wall_of(argv: list) -> float:
    """Wall time of a child process from spawn to exit."""
    start = time.perf_counter()
    subprocess.run(argv, check=True, env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def _worker(workload: str, seed: int, *extra: str) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), *extra,
    ]
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_samples(workload: str, seed: int) -> list:
    """Set-up times at reference speed: for cli the fresh `import bgg.cli`
    every request pays, otherwise interpreter start, `import bgg` and the
    request stream."""
    raw, cals = [], [speed.calibrate()]
    for _ in range(SETUP_RUNS):
        if workload == "cli":
            raw.append(_wall_of([sys.executable, "-c", "import bgg.cli"]))
        else:
            raw.append(_worker(workload, seed, "--setup-only")["setup_s"])
        cals.append(speed.calibrate())
    return [x / f for x, f in zip(raw, speed.factors(cals))]


def _per_request(run: dict) -> list:
    """Each request's latency as the median of its repeats in the run (one
    per pass), listed once per repeat.  Percentiles over this list keep
    the spread between requests and drop the host's noise between
    repeats of one request."""
    by_key = defaultdict(list)
    for key, latency in zip(run["keys"], run["latencies"]):
        by_key[key].append(latency)
    return [statistics.median(v) for v in by_key.values() for _ in v]


def _end_to_end(run: dict, setup: list) -> dict:
    lat = _per_request(run)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "requests_per_s": (len(lat) / run["wall_s"], "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024, "MB"),
    }


def _report(title: str, run: dict, setup: list) -> dict:
    lat, failures = run["latencies"], run["failures"]
    metrics = _end_to_end(run, setup)
    beyond = sum(1 for x in _per_request(run) if x > metrics["latency_p90_s"][0])
    samples = {
        "setup_s": f"median of {len(setup)}",
        "requests_per_s": f"{len(lat)} requests / {run['wall_s']:.2f} s; "
        f"wall {run['raw_wall_s']:.2f} s",
        "latency_p50_s": f"n={len(lat)}, median of repeats per request; "
        f"wall {statistics.median(run['raw_latencies']):.6f} s",
        "latency_p90_s": f"n={len(lat)}, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss",
    }
    per_pass = ", ".join(f"{x:.2f}" for x in run["pass_s"])
    print(f"{title}: {len(lat)} requests in {len(run['pass_s'])} passes of {per_pass} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6f} {unit:<4} ({samples[name]})")
    print("  (times in seconds at reference speed, see speed.py)")
    print(f"  {'failed_ratio':<16} {len(failures)}/{len(lat)} failed/attempted")
    tally = Counter((f["key"], f["known"], "; ".join(f["problems"])) for f in failures)
    for (key, known, problems), count in sorted(tally.items()):
        print(f"    FAILED x{count} {key}{' [known defect]' if known else ''}: {problems}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bgg" / "__init__.py").is_file():
        print(f"perfbench: no bgg package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # One core for this process and every child, so that the calibration
    # and the work it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.trace:
        plain = _worker(args.workload, args.seed, "--passes", str(TRACE_PASSES))
        traced = _worker(args.workload, args.seed, "--passes", str(TRACE_PASSES), "--trace")
        runs = [plain, traced]
        _report(f"{args.workload} untraced", plain, [plain["setup_s"]])
        tracer = Tracer()
        tracer.merge(traced["trace"])
        interpreter_s = 0.0
        if args.workload == "cli":
            interpreter_s = statistics.median(
                _wall_of([sys.executable, "-c", "pass"]) for _ in range(SETUP_RUNS)
            )
        metrics = tracer.metrics(interpreter_s, traced["wall_s"] / plain["wall_s"])
        print(f"{args.workload} traced, {len(traced['pass_s'])} passes (per traced run):")
        for name, unit, _, how in METRICS:
            value = metrics[name]["value"]
            shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
            print(f"  {name:<40} {shown} {unit:<6} {how}")
    else:
        setup = _setup_samples(args.workload, args.seed)
        run = _worker(args.workload, args.seed, "--seconds", str(args.seconds))
        runs = [run]
        e2e = _report(args.workload, run, setup)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    failures = [f for run in runs for f in run["failures"]]
    print(
        json.dumps(
            {
                "correct": all(f["known"] for f in failures),
                "attempted": sum(len(run["latencies"]) for run in runs),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
