"""A figure sweep run cold and then warm in one process, compared byte for
byte.

Usage:
    python3 scripts/sweep_check.py [--n N [N ...]]     (default: 8 10 12)

For each rank n the sweep renders the regular orbit and the singular
orbit of every k = 0..n-1: JSON (compact and indented), the JSON of the
diagram read back by from_json, TikZ (plain, and with labels and
suppressed arrows) and DOT.  For every k >= 1 and both signs it adds the
E1 and E2 pages and the assembled complex, for k = 0 the conjectural
complex, each as the JSON of its to_dict().

The sweep runs twice.  The first run starts with the per-process tables
of shared records and texts empty (the script is meant to run in a
fresh process); the second finds them filled.  stdout has one line per
output of the first run, its key and SHA-256 digest, so it does not
depend on the machine or the hash seed.  Exit 1 if any output of the
second run differs from the first, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bgg import orbits, penrose, render  # noqa: E402

DEFAULT_RANKS = (8, 10, 12)
_LABELED = render.RenderConfig(show_labels=True, show_suppressed=True)


def _diagram_outputs(key: str, diagram) -> list[tuple[str, str]]:
    text = render.to_json(diagram)
    return [
        (f"{key} json", text),
        (f"{key} json indent=1", render.to_json(diagram, 1)),
        (f"{key} json read back", render.to_json(render.from_json(text))),
        (f"{key} tikz", render.to_tikz(diagram)),
        (f"{key} tikz labeled", render.to_tikz(diagram, _LABELED)),
        (f"{key} dot", render.to_dot(diagram)),
    ]


def outputs(ranks) -> list[tuple[str, str]]:
    """(key, text) of every output of one sweep over the ranks, in order."""
    out = []
    for n in ranks:
        out += _diagram_outputs(f"regular n={n}", orbits.regular_orbit_projection(n))
        for k in range(n):
            out += _diagram_outputs(f"singular n={n} k={k}", orbits.singular_orbit(n, k))
            if k == 0:
                if n >= 3:
                    cx = penrose.assemble_singular_bgg(n, 0, conjectural=True)
                    out.append((f"complex n={n} k=0", json.dumps(cx.to_dict())))
                continue
            for sign in "+-":
                at = f"n={n} k={k} sign={sign}"
                out += [
                    (f"e1 {at}", json.dumps(penrose.e1_page(n, k, sign).to_dict())),
                    (f"e2 {at}", json.dumps(penrose.e2_page(n, k, sign).to_dict())),
                    (f"complex {at}", json.dumps(penrose.assemble_singular_bgg(n, k, sign).to_dict())),
                ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=list(DEFAULT_RANKS))
    args = parser.parse_args(argv)
    cold = outputs(args.n)
    warm = outputs(args.n)
    for key, text in cold:
        print(key, hashlib.sha256(text.encode()).hexdigest())
    differ = [key for (key, a), (_, b) in zip(cold, warm) if a != b]
    if differ:
        print(f"error: {len(differ)} outputs differ warm: {', '.join(differ[:5])}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
