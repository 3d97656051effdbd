"""Cold-start timings of the `bgg` command line, for one or more source trees.

Usage:
    python3 scripts/cold_start.py [--runs N] [TREE ...]

A TREE is a directory holding `src/bgg` (a checkout of this repository);
the default is the tree this script belongs to.  Give two trees, say a
parent commit and a change, to compare them.

It reports two things:

- the wall time of one fresh `python -m bgg.cli ...` process per
  subcommand, from spawn to exit, imports included: the median over N
  runs, the trees taking turns within each run and the order of the
  trees reversed on every other run.  The commands include the four
  `hasse` requests of the benchmark's `cli` workload and `hasse --n 30
  --crossed 1,3` (97,440 nodes, 38 MB of text).  Beside it, the median
  peak RSS of those processes, read off each child's own rusage
  (`os.wait4`).  A child's figure cannot read below this script's own
  peak when it was spawned (the spawn counts the parent's pages), which
  is printed first; the script keeps it under a bare `bgg` process by
  streaming each output through a CRC instead of holding it, and by not
  loading hashlib;
- the singular orbit diagrams of every k at n = 60 in one fresh process,
  swept twice after `import bgg.orbits`: the first sweep is cold (it
  builds whatever the tree builds per rank, and loads whatever it loads
  on first use), the second warm.  Medians over N runs, with the median
  of the runs' cold/warm ratios;
- in the same processes, the build of the rank's table on its own: the
  first call of `orbits._rank_table(60)`, timed with perf_counter just
  before the cold sweep and counted in it.  Its median over N runs does
  not carry the spread of whole sweeps from process to process.  A tree
  whose `bgg.orbits` has no `_rank_table` reports none.

With two or more trees it also checks that each command prints the same
bytes in every tree.  It exits 1 if a command fails or the outputs
differ, else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

COMMANDS = [
    "hasse --n 4",
    "hasse --n 8 --format json",
    "hasse --n 8 --crossed 1,3",
    "hasse --n 10 --crossed 10 --format json",
    "hasse --n 30 --crossed 1,3",
    "regular-orbit --n 8 --format tikz --skip 5,11 --labels",
    "singular-orbit --n 8 --k 7 --format json",
    "singular-orbit --n 14 --k 7",
    "render --what singular --n 8 --k 1 --format dot",
    "relative-bgg --n 5 --k -2",
    "penrose-e1 --n 8 --k 3 --page 2 --format json",
    "bgg-complex --n 8 --k 3 --format json",
    "verify-maximal --n 4 --perturb",
    "geometry-check --n 6 --count 100",
]

SWEEP = """
import time
from bgg import orbits
def sweep():
    start = time.perf_counter()
    for k in range(60):
        orbits.singular_orbit(60, k)
    return time.perf_counter() - start
build = getattr(orbits, "_rank_table", None)
start = time.perf_counter()
if build is not None:
    build(60)
table = time.perf_counter() - start
cold = table + sweep()
print(cold, sweep(), table if build is not None else "nan")
"""


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _cli(tree: Path, command: str) -> tuple[float, int, tuple[int, int], float]:
    """Wall time, exit code, stdout's (CRC-32, length) and peak RSS in
    MB of one fresh `bgg` process."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "bgg.cli", *command.split()],
        env=_env(tree),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        stdin=subprocess.DEVNULL,
    )
    crc = size = 0
    with child.stdout:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            crc, size = zlib.crc32(chunk, crc), size + len(chunk)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, (crc, size), usage.ru_maxrss / 1024


def _sweep(tree: Path) -> tuple[float, float, float]:
    """Cold sweep, warm sweep and table build (nan if the tree has no
    `orbits._rank_table`) of one fresh process, in s."""
    out = subprocess.run(
        [sys.executable, "-c", SWEEP],
        env=_env(tree),
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        check=True,
        text=True,
    ).stdout
    cold, warm, table = map(float, out.split())
    return cold, warm, table


def _turns(trees: list[Path], run: int) -> list[int]:
    """The order of the trees in one run: reversed on every other run."""
    order = list(range(len(trees)))
    return order[::-1] if run % 2 else order


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=11, help="runs per tree (default 11)")
    parser.add_argument("trees", nargs="*", type=Path, help="source trees (default: this one)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = [t.resolve() for t in args.trees] or [Path(__file__).resolve().parent.parent]
    for tree in trees:
        if not (tree / "src" / "bgg" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/bgg")
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")
    print(f"{args.runs} runs per tree, {sys.executable} {sys.version.split()[0]}")

    ok = True
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        "\nfresh-process wall time per command, median ms (tree 0, tree 1, ...;"
        f" ratio to tree 0), then median peak RSS in MB (floor: this script's {own:.1f})"
    )
    for command in COMMANDS:
        times: list[list[float]] = [[] for _ in trees]
        peaks: list[list[float]] = [[] for _ in trees]
        outputs: list[set[tuple[int, int]]] = [set() for _ in trees]
        for run in range(args.runs):
            for i in _turns(trees, run):
                wall, code, out, peak = _cli(trees[i], command)
                if code != 0:
                    print(f"FAIL: tree {i}: bgg {command} exited {code}")
                    ok = False
                times[i].append(wall)
                peaks[i].append(peak)
                outputs[i].add(out)
        medians = [statistics.median(t) for t in times]
        cells = "  ".join(f"{1e3 * m:7.1f}" for m in medians)
        ratios = "  ".join(f"{m / medians[0]:.3f}" for m in medians[1:])
        rss = "  ".join(f"{statistics.median(p):6.1f}" for p in peaks)
        same = len(set().union(*outputs)) == 1
        if not same:
            ok = False
        note = "" if same else "  OUTPUT DIFFERS"
        print(f"  {command:55s} {cells}  {ratios}  RSS {rss}{note}")

    print("\nsingular_orbit(60, k) for every k in one fresh process, median s")
    sweeps: list[list[tuple[float, float, float]]] = [[] for _ in trees]
    for run in range(args.runs):
        for i in _turns(trees, run):
            sweeps[i].append(_sweep(trees[i]))
    for i, runs in enumerate(sweeps):
        cold = statistics.median(c for c, _, _ in runs)
        warm = statistics.median(w for _, w, _ in runs)
        lo, hi = min(c for c, _, _ in runs), max(c for c, _, _ in runs)
        ratio = statistics.median(c / w for c, w, _ in runs)
        print(
            f"  tree {i}: cold {cold:.3f} (range {lo:.3f}-{hi:.3f})  warm {warm:.3f}"
            f"  cold/warm {ratio:.2f} (median of the runs' ratios)"
        )

    print("\norbits._rank_table(60), first call in each of those processes, median ms")
    for i, runs in enumerate(sweeps):
        tables = [t for _, _, t in runs if not math.isnan(t)]
        if not tables:
            print(f"  tree {i}: none (bgg.orbits has no _rank_table)")
            continue
        print(
            f"  tree {i}: {1e3 * statistics.median(tables):.1f}"
            f" (range {1e3 * min(tables):.1f}-{1e3 * max(tables):.1f})"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
