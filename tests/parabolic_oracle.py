"""Hasse diagrams and their listings as `bgg.parabolic` used to build them.

Test-only reference:

- `levi_roots` and `nilradical_roots` split the positive roots by
  grade;
- `inversion_length` counts the ascents of mu over all pairs;
- `ldominant_rho_images` lists the nodes group by group, sorting every
  signed subset it tries;
- `hasse_diagram` sorts the nodes by that count and finds the edges by
  reflecting every node in every nilradical root and looking the image
  up among the nodes, keeping the images one longer;
- `to_dict`, `text` and `json_text` are the payload, the `bgg hasse`
  listing and `json.dumps(to_dict(hd), indent=1)`, built as before.

`parabolic.hasse_diagram` reads W^p off `cosets.hasse_rows`, which
skips most (node, root) pairs without reflecting, and
`HasseDiagram.to_text` / `to_json` write the listings straight from the
records; each is checked against this.
"""

from __future__ import annotations

import itertools
import json
from typing import Sequence

import weyl_oracle
from bgg import parabolic, weyl
from bgg.parabolic import HasseDiagram, HasseEdge, HasseNode, Parabolic
from bgg.weyl import Root


def levi_roots(p: Parabolic) -> list[Root]:
    """Positive roots of grade 0."""
    return [r for r in weyl.positive_roots(p.n) if parabolic.root_grade(r, p) == 0]


def nilradical_roots(p: Parabolic) -> list[Root]:
    """Positive roots of positive grade."""
    return [r for r in weyl.positive_roots(p.n) if parabolic.root_grade(r, p) > 0]


def inversion_length(mu: Sequence[int]) -> int:
    """Ascending pairs i < j (mu_i < mu_j) plus the sum of |mu_i| over the
    negative entries, every pair tested."""
    ascents = sum(a < b for a, b in itertools.combinations(mu, 2))
    return ascents - sum(x for x in mu if x < 0)


def ldominant_rho_images(p: Parabolic):
    """All signed arrangements of rho that are strictly Levi-dominant."""
    n = p.n
    groups = weyl._groups(n, p.crossed)
    trailing = p.crossed[-1] == n
    barred = groups if trailing else groups[:-1]

    def rec(gi, available, prefix):
        if gi == len(barred):
            if trailing:
                yield tuple(prefix)
            else:
                yield tuple(prefix + sorted(available, reverse=True))
            return
        start, stop = barred[gi]
        size = stop - start
        for subset in itertools.combinations(sorted(available), size):
            rest = available - set(subset)
            for signs in itertools.product((1, -1), repeat=size):
                seg = sorted((s * v for s, v in zip(signs, subset)), reverse=True)
                yield from rec(gi + 1, rest, prefix + seg)

    yield from rec(0, set(range(1, n + 1)), [])


def sort_key(mu: Sequence[int]) -> tuple:
    n = len(mu)
    perm = [0] * n
    for i, x in enumerate(mu, start=1):
        perm[n - abs(x)] = i
    return inversion_length(mu), tuple(perm), tuple(1 if x > 0 else -1 for x in mu)


def hasse_diagram(p: Parabolic) -> HasseDiagram:
    """Every (node, nilradical root) pair reflected and looked up."""
    n = p.n
    nodes = [
        HasseNode(mu, key[0])
        for key, mu in sorted((sort_key(mu), mu) for mu in ldominant_rho_images(p))
    ]
    index = {nd.weight: i for i, nd in enumerate(nodes)}
    grades = {}
    for r in weyl.positive_roots(n):
        grade = parabolic.root_grade(r, p)
        if grade > 0:
            grades[r] = grade
    edges = []
    for i, nd in enumerate(nodes):
        targets = []
        for root in grades:
            j = index.get(weyl_oracle.reflect(nd.weight, root))
            if j is not None and nodes[j].length == nd.length + 1:
                targets.append((j, root))
        for j, root in sorted(targets):
            order = weyl.pairing(nd.weight, root) * grades[root]
            if order < 1:
                raise AssertionError(f"conformal drop {order} < 1 on a Hasse edge")
            edges.append(HasseEdge(i, j, root, order))
    return HasseDiagram(p, weyl.rho(n), nodes, edges)


def to_dict(hd: HasseDiagram) -> dict:
    return {
        "n": hd.parabolic.n,
        "crossed": list(hd.parabolic.crossed),
        "nodes": [
            {"weight": list(nd.weight), "length": nd.length, "window": list(nd.window)}
            for nd in hd.nodes
        ],
        "edges": [
            {"source": e.source, "target": e.target, "root": e.root.label(), "order": e.order}
            for e in hd.edges
        ],
    }


def json_text(hd: HasseDiagram) -> str:
    """What `bgg hasse --format json` printed, newline included."""
    return json.dumps(to_dict(hd), indent=1) + "\n"


def _wfmt(w) -> str:
    return "(" + ", ".join(str(v) for v in w) + ")"


def text(hd: HasseDiagram) -> str:
    """What `bgg hasse` printed, newline included."""
    p = hd.parabolic
    lines = [
        f"Hasse diagram: n={p.n} crossed={tuple(p.crossed)} "
        f"nodes={len(hd.nodes)} edges={len(hd.edges)}"
    ]
    for i, nd in enumerate(hd.nodes):
        lines.append(
            f"  {i:3d}: weight={_wfmt(nd.weight)} length={nd.length} "
            f"window={_wfmt(nd.window)}"
        )
    lines.append("edges:")
    for e in hd.edges:
        lines.append(
            f"  {e.source:3d} -> {e.target:3d}  root={e.root.label()} order={e.order}"
        )
    return "\n".join(lines) + "\n"


def first_difference(got: str, want: str):
    """None if the texts are equal, else their first differing line (a
    cheap stand-in for pytest's full diff of two long texts)."""
    if got == want:
        return None
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for k, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return f"line {k}: {a!r} != {b!r}"
    return f"{len(got_lines)} lines != {len(want_lines)} lines"
