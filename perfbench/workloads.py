"""The three workloads: their request universes, how each request runs,
and how its output is checked.

A workload is a fixed universe of requests.  The seed sets only the order
of the requests within each pass and the geometry point seeds, so every
run covers whole passes over the same universe and has the same mix.

Every request is checked.  Its output text is hashed and compared with
the SHA-256 digest recorded for it in golden.json, keyed by the request
and never by the seed.  The n = 8 figures are also compared with the
frozen figures in tests/fixtures, and the CLI requests with their exit
codes and stderr.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import speed
from bgg import geometry, orbits, penrose, render, verma

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
FIXTURES = ROOT / "tests" / "fixtures"
CLI_CHILD = HERE / "cli_child.py"
CLI_TIMEOUT_S = 60
# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100

# Requests that fail their (correct) expectation at the seed commit: the
# bad-input defects of ROADMAP item 4.  They count as failed until fixed;
# a failure of any other request makes the run incorrect.
KNOWN_DEFECTS = frozenset(
    {
        "cli: verify-maximal --n 2",
        "cli: geometry-check --n 6 --count -5",
        "cli: verify-maximal --n 4 --no-kernel",
    }
)


@dataclasses.dataclass(frozen=True)
class Request:
    key: str
    run: Callable[[int], object]  # drawn seed -> output
    check: Callable[[object, int], list]  # (output, seed) -> problems
    text: Optional[Callable[[object, int], str]] = None  # text whose digest is golden


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plain(obj):
    """JSON-ready form of a result dataclass.  Fields that are None are
    dropped, so an optional field added later leaves the digest alone."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if getattr(obj, f.name) is not None
        }
    if isinstance(obj, dict):
        return sorted([_plain(k), _plain(v)] for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def canonical(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True)


# ---------------------------------------------------------------------------
# figures


FIGURE_RANKS = (8, 10, 12)
FIGURE_FIXTURES = {
    (8, None): "figure_regular_n8",
    (8, 7): "figure_singular_n8_k7",
    (8, 1): "figure_singular_n8_k1",
    (8, 0): "figure_singular_n8_k0",
}


def _figure(n: int, k: Optional[int]) -> dict:
    if k is None:
        diagram = orbits.regular_orbit_projection(n)
    else:
        diagram = orbits.singular_orbit(n, k)
    text = render.to_json(diagram)
    out = {
        "diagram": diagram,
        "json": text,
        "tikz": render.to_tikz(diagram),
        "dot": render.to_dot(diagram),
        "read_back": render.from_json(text),
        "results": [],
    }
    if k == 0:
        out["results"].append(penrose.assemble_singular_bgg(n, 0, conjectural=True))
    elif k is not None:
        for sign in ("+", "-"):
            out["results"] += [
                penrose.e1_page(n, k, sign),
                penrose.e2_page(n, k, sign),
                penrose.assemble_singular_bgg(n, k, sign),
            ]
    return out


def _figure_text(out, seed) -> str:
    parts = [out["json"], out["tikz"], out["dot"]]
    return "".join(parts + [canonical(r) + "\n" for r in out["results"]])


def fixture_problems(d, fx: dict) -> list:
    """Compare a diagram with a frozen figure the way acceptance criteria
    2 (regular) and 3 (singular) do."""
    skips = set(fx["skips"])

    def visible(pl):
        return all(abs(c) not in skips for c in pl)

    def quad(a):
        return d.nodes[a.source].placement + d.nodes[a.target].placement

    def shown(a):
        return visible(d.nodes[a.source].placement) and visible(d.nodes[a.target].placement)

    problems = []
    if d.kind == "regular-orbit":
        if sum(1 for nd in d.nodes if visible(nd.placement)) != fx["visible_node_count"]:
            problems.append("fixture: visible node count")
        if sorted(quad(a) for a in d.arrows if shown(a)) != sorted(map(tuple, fx["arrows"])):
            problems.append("fixture: arrows")
        roots = {(quad(a)[:2], quad(a)[2:]): a.root for a in d.arrows}
        for src, tgt, (kind, i, j) in fx["labels"]:
            root = roots.get((tuple(src), tuple(tgt)))
            if root is None or (root.kind, root.i, root.j) != (kind, i, j):
                problems.append(f"fixture: label {src}->{tgt}")
        return problems
    if len(d.nodes) != fx["all_node_count"]:
        problems.append("fixture: node count")
    if sorted(nd.placement for nd in d.nodes if visible(nd.placement)) != sorted(
        map(tuple, fx["nodes"])
    ):
        problems.append("fixture: visible nodes")
    if sum(1 for p in d.cross_placements() if visible(p)) != fx["trivial_count"]:
        problems.append("fixture: crosses")
    std = sorted(quad(a) for a in d.arrows if a.kind == orbits.STANDARD and shown(a))
    if std != sorted(map(tuple, fx["arrows"])):
        problems.append("fixture: standard arrows")
    eq = {
        frozenset((quad(a)[:2], quad(a)[2:]))
        for a in d.arrows
        if a.kind == orbits.IDENTITY and shown(a)
    }
    if eq != {frozenset(((q[0], q[1]), (q[2], q[3]))) for q in fx["equals"]}:
        problems.append("fixture: identity arrows")
    return problems


def figure_request(n: int, k: Optional[int]) -> Request:
    name = FIGURE_FIXTURES.get((n, k))
    fx = json.loads((FIXTURES / f"{name}.json").read_text()) if name else None

    def check(out, seed):
        problems = []
        if out["read_back"] != out["diagram"]:
            problems.append("from_json(to_json(d)) differs from d")
        if fx is not None:
            problems += fixture_problems(out["diagram"], fx)
        return problems

    key = f"figures: regular n={n}" if k is None else f"figures: singular n={n} k={k}"
    return Request(key, lambda seed: _figure(n, k), check, _figure_text)


def figures(tracer=None) -> list:
    """Per n: the singular orbit bundles k = 0..n-1 and the regular orbit."""
    out = []
    for n in FIGURE_RANKS:
        out += [figure_request(n, k) for k in range(n)]
        out.append(figure_request(n, None))
    return out


# ---------------------------------------------------------------------------
# verify


VERIFY_RANKS = (3, 4, 5, 6)
GEOMETRY_RANKS = (4, 6, 10)
GEOMETRY_POINTS = 200


def _verify(n: int, k: int, sign: str):
    lie = verma.LieData(n)
    row = verma.singular_vector_row(n, k, sign)
    return verma.verify_row(row, lie), verma.verify_row(row, lie, perturb=True, kernel=False)


def _verdict(result, kernel: bool) -> dict:
    out = {
        "row": _plain(result.row),
        "d1_match": result.d1_match,
        "weight_ok": result.weight_ok,
        "maximal_ok": result.maximal_ok,
    }
    if kernel:
        out["kernel_dim"] = result.kernel_dim
    return out


def _verify_check(out, seed) -> list:
    genuine, perturbed = out
    problems = []
    if not (genuine.ok and genuine.kernel_dim == 1):
        problems.append(
            f"genuine row not verified: d1={genuine.d1_match} weight={genuine.weight_ok} "
            f"maximal={genuine.maximal_ok} kernel_dim={genuine.kernel_dim}"
        )
    if perturbed.maximal_ok:
        problems.append("perturbed row is still maximal")
    return problems


def _verify_text(out, seed) -> str:
    genuine, perturbed = out
    return canonical(
        {"genuine": _verdict(genuine, True), "perturbed": _verdict(perturbed, False)}
    )


def _geometry(n: int, seed: int) -> dict:
    rng = random.Random(seed)
    isotropic = solved = 0
    for _ in range(GEOMETRY_POINTS):
        isotropic += geometry.isotropy_check(geometry.random_point(n, rng))
        plane = geometry.twistor_cover_solve(geometry.random_line(n, rng))
        solved += geometry.isotropy_check(plane)
    return {"n": n, "points": GEOMETRY_POINTS, "isotropic": isotropic, "solved": solved}


def _geometry_check(out, seed) -> list:
    if out["isotropic"] == out["solved"] == GEOMETRY_POINTS:
        return []
    return [f"isotropic {out['isotropic']}, solved {out['solved']} of {GEOMETRY_POINTS}"]


def verify(tracer=None) -> list:
    """Every catalogue row (n, k, sign) for n = 3..6, genuine and perturbed,
    and one seeded geometry batch per rank in GEOMETRY_RANKS."""
    out = [
        Request(
            f"verify: row n={n} k={k} sign={sign}",
            lambda seed, n=n, k=k, sign=sign: _verify(n, k, sign),
            _verify_check,
            _verify_text,
        )
        for n in VERIFY_RANKS
        for k in range(1, n)
        for sign in ("+", "-")
    ]
    out += [
        Request(
            f"verify: geometry n={n} points={GEOMETRY_POINTS}",
            lambda seed, n=n: _geometry(n, seed),
            _geometry_check,
            lambda out, seed: canonical(out),
        )
        for n in GEOMETRY_RANKS
    ]
    return out


# ---------------------------------------------------------------------------
# cli

GOLDEN, ERROR, ALL_PASS = "golden", "error", "all-pass"

# (arguments, expected exit code, what stdout or stderr must show)
CLI_COMMANDS = [
    ("hasse --n 4", 0, GOLDEN),
    ("hasse --n 8 --format json", 0, GOLDEN),
    ("regular-orbit --n 8 --format tikz --skip 5,11 --labels", 0, GOLDEN),
    ("singular-orbit --n 8 --k 7 --format json", 0, GOLDEN),
    ("render --what singular --n 8 --k 1 --format dot", 0, GOLDEN),
    ("render --what singular --n 8 --k 0 --format tikz --suppressed", 0, GOLDEN),
    ("relative-bgg --n 5 --k -2", 0, GOLDEN),
    ("penrose-e1 --n 8 --k 3 --page 2 --format json", 0, GOLDEN),
    ("bgg-complex --n 8 --k 3 --format json", 0, GOLDEN),
    ("bgg-complex --n 8 --k 0 --conjectural", 0, GOLDEN),
    ("verify-maximal --n 4 --perturb", 0, GOLDEN),
    ("geometry-check --n 6 --count 1000 --seed {seed}", 0, GOLDEN),
    ("singular-orbit --n 14 --k 7", 0, GOLDEN),
    ("hasse --n 8 --crossed 1,3", 0, GOLDEN),
    ("hasse --n 10 --crossed 10 --format json", 0, GOLDEN),
    ("verify-maximal --n 5", 0, GOLDEN),
    # bad input: exit 1 with an "error:" message and no traceback
    ("bgg-complex --n 5 --k 0", 1, ERROR),
    ("verify-maximal --n 2", 1, ERROR),
    ("geometry-check --n 6 --count -5", 1, ERROR),
    # --no-kernel skips only the uniqueness check: all six rows pass
    ("verify-maximal --n 4 --no-kernel", 0, ALL_PASS),
]
NO_KERNEL_ROWS = 6
TRACEBACK = b"Traceback (most recent call last)"


def _cli_run(template: str, seed: int, tracer) -> dict:
    argv = template.format(seed=seed).split()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if tracer is None:
        proc = subprocess.run(
            [sys.executable, "-m", "bgg.cli", *argv],
            capture_output=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
        )
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            proc = subprocess.run(
                [sys.executable, str(CLI_CHILD), str(write_fd), *argv],
                capture_output=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
                pass_fds=(write_fd,),
            )
        finally:
            os.close(write_fd)
        report = pipe.read()  # a few kB, so the child never blocked writing it
    tracer.cli["stdout_bytes"] += len(proc.stdout)
    tracer.cli["traceback_count"] += proc.stderr.count(TRACEBACK)
    if report:
        child = json.loads(report)
        tracer.merge(child["state"])
        tracer.cli["import_s"].append(child["import_s"])
        tracer.cli["main_s"] += child["main_s"]
    return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def cli_request(template: str, code: int, expect: str, tracer=None) -> Request:
    def check(out, seed):
        problems = []
        if out["rc"] != code:
            problems.append(f"exit {out['rc']}, expected {code}")
        if TRACEBACK in out["stderr"]:
            problems.append("traceback on stderr")
        if expect == ERROR and b"error:" not in out["stderr"]:
            problems.append("no 'error:' message on stderr")
        if expect == ALL_PASS:
            lines = out["stdout"].decode().splitlines()
            if len(lines) != NO_KERNEL_ROWS or not all(l.startswith("PASS") for l in lines):
                problems.append(f"expected {NO_KERNEL_ROWS} PASS lines")
        return problems

    def text(out, seed):
        return out["stdout"].decode().replace(f"seed={seed}", "seed={seed}")

    return Request(
        f"cli: {template}",
        lambda seed: _cli_run(template, seed, tracer),
        check,
        text if expect == GOLDEN else None,
    )


def cli(tracer=None) -> list:
    """One `python -m bgg.cli` child per request, one at a time.  With a
    tracer, each child runs under it and reports its spans back."""
    return [cli_request(t, code, expect, tracer) for t, code, expect in CLI_COMMANDS]


UNIVERSES = {"figures": figures, "verify": verify, "cli": cli}


# ---------------------------------------------------------------------------
# the timed loop


def passes(universe: list, seed: int):
    """Endless seeded passes: each a shuffled copy of the universe, each
    request paired with a drawn seed.  Drawn seeds all have nine digits,
    so output sizes do not depend on the workload seed."""
    rng = random.Random(seed)
    while True:
        order = list(universe)
        rng.shuffle(order)
        yield [(req, rng.randrange(10**8, 10**9)) for req in order]


def _problems(req: Request, out, seed: int, golden: dict) -> list:
    problems = list(req.check(out, seed))
    if req.text is not None:
        expected = golden.get(req.key)
        if expected is None:
            problems.append("no golden digest recorded")
        elif digest(req.text(out, seed)) != expected:
            problems.append("output digest differs from golden")
    return problems


def _attempt(req: Request, seed: int, golden: dict) -> tuple:
    """Run one request; return its wall time and its problems."""
    start = time.perf_counter()
    try:
        out = req.run(seed)
    except Exception as exc:
        return time.perf_counter() - start, [f"raised {exc!r}"]
    latency = time.perf_counter() - start
    try:
        return latency, _problems(req, out, seed, golden)
    except Exception as exc:
        return latency, [f"check raised {exc!r}"]


def run_loop(stream, golden: dict, *, pass_count=None, min_requests=0, seconds=0.0, max_seconds=120.0):
    """Closed loop with one caller: each request is sent when the previous
    one has returned and been checked.  Runs a fixed number of passes, or
    whole passes until min_requests and seconds of wall time are both
    reached (or max_seconds has passed).  A request that raises, or fails
    a check, is counted and the loop goes on.

    Latencies and pass times are in seconds at reference speed (see
    speed.py): each request's time, check included, is divided by the
    speed factor of the calibrations around it.  The loop's time is the
    sum of those request times; calibration is left out.
    """
    clock = time.perf_counter
    keys, timed, failures = [], [], []  # timed: (latency, latency + check, pass)
    cals = [speed.calibrate()]
    start = clock()
    for done, batch in enumerate(stream, start=1):
        for req, seed in batch:
            t0 = clock()
            latency, problems = _attempt(req, seed, golden)
            timed.append((latency, clock() - t0, done - 1))
            keys.append(req.key)
            cals.append(speed.calibrate())
            if problems:
                failures.append({"key": req.key, "problems": problems})
        elapsed = clock() - start
        if pass_count is not None:
            if done >= pass_count:
                break
        elif (len(timed) >= min_requests and elapsed >= seconds) or elapsed >= max_seconds:
            break
    factors = speed.factors(cals)
    pass_s = [0.0] * done
    for (_, spent, p), f in zip(timed, factors):
        pass_s[p] += spent / f
    return {
        "pass_s": pass_s,
        "wall_s": sum(pass_s),
        "raw_wall_s": clock() - start,
        "keys": keys,
        "latencies": [lat / f for (lat, _, _), f in zip(timed, factors)],
        "raw_latencies": [lat for lat, _, _ in timed],
        "failures": failures,
    }
