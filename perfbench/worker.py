"""Run one workload in a fresh interpreter and print the run as one JSON line.

Usage: python worker.py --workload W --seed S --spawned-at T
                        [--passes P | --seconds S] [--trace] [--setup-only]

T is the parent's CLOCK_MONOTONIC reading when it started this process
(that clock is shared by all processes on Linux), so set-up time covers
interpreter start, `import bgg` and generating the request stream.
"""

import argparse
import json
import resource
import sys
import time


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--passes", type=int, default=0, help="fixed pass count; 0: by time")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    universe = workloads.UNIVERSES[args.workload](tracer)
    golden = workloads.load_golden()
    stream = workloads.passes(universe, args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    # cli requests run in child processes, which trace themselves
    in_process = args.workload != "cli"
    if tracer is not None and in_process:
        tracer.install()
    result = workloads.run_loop(
        stream,
        golden,
        pass_count=args.passes or None,
        min_requests=workloads.MIN_REQUESTS,
        seconds=args.seconds,
    )
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.state()
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["setup_s"] = setup_s
    for failure in result["failures"]:
        failure["known"] = failure["key"] in workloads.KNOWN_DEFECTS
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
