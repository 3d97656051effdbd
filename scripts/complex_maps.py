"""Every map of every singular BGG complex, checked for a line of maximal
vectors.

Usage:
    python3 scripts/complex_maps.py --n N [N ...]

For each rank n it assembles the complexes of every k = 1..n-1 and both
signs, and the conjectural k = 0 candidate (`conjectural=True`, its two
order-three bridges included).  A map from term src to term tgt is
checked by

    GeneralizedVerma(n, src - rho).maximal_vector_dimension(tgt - rho)

in one process, the ranks in the order given.  stdout has, per rank,
the number of maps and, per map order, the number of maps and the
dimensions found; it does not depend on the machine or the hash seed.
stderr has the time of each rank and the process's peak RSS so far
(resource.getrusage, ru_maxrss: KiB on Linux, bytes on macOS).  Exit 2
if any dimension is not 1, 1 with a message for a rank below 3, else 0.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bgg import penrose, verma, weyl  # noqa: E402


def complexes(n: int):
    yield penrose.assemble_singular_bgg(n, 0, "+", conjectural=True)
    for k in range(1, n):
        for sign in "+-":
            yield penrose.assemble_singular_bgg(n, k, sign)


def dimensions(n: int) -> dict:
    """{order: Counter of dimensions} over every map of every complex."""
    rho = weyl.rho(n)
    found: dict = {}
    for cx in complexes(n):
        shifted = [tuple(a - b for a, b in zip(t, rho)) for t in cx.terms]
        for m in cx.maps:
            dim = verma.GeneralizedVerma(n, shifted[m.source]).maximal_vector_dimension(
                shifted[m.target]
            )
            found.setdefault(m.order, Counter())[dim] += 1
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if min(args.n) < 3:
        print("error: the complexes need n >= 3", file=sys.stderr)
        return 1
    bad = False
    for n in args.n:
        start = time.perf_counter()
        found = dimensions(n)
        took = time.perf_counter() - start
        print(f"n = {n}: {sum(sum(c.values()) for c in found.values())} maps")
        for order in sorted(found):
            dims = found[order]
            shown = ", ".join(f"dim {d}: {c}" for d, c in sorted(dims.items()))
            print(f"  order {order}: {sum(dims.values())} maps, {shown}")
            bad = bad or set(dims) != {1}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss /= 1 << (20 if sys.platform == "darwin" else 10)
        print(f"n = {n}: {took:.2f} s, peak RSS {rss:.0f} MB", file=sys.stderr)
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
