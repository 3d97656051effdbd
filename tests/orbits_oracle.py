"""The singular orbit diagrams as `bgg.orbits` used to build them.

Test-only reference, two ways:

- `singular_orbit` applies the placement rule to every node of the
  crossed-{2} Hasse diagram and filters every edge, grading each arrow's
  root with `parabolic_oracle.root_grade`;
- `full_scan_orbit` needs no placement rule: it builds w(lambda_k) of
  every node (`weyl.act_from_image`), keeps the strictly Levi-dominant ones
  (`weyl_oracle.is_dominant`), and takes each arrow's order as the
  conformal-weight drop (`parabolic_oracle.order_bound`).

Neither grades with the 2E of `bgg.cosets` that the per-rank table
reads its orders off, and both mark the suppressed arrows by the
oracle's own copy of the rule (`suppressed`).

`orbits.singular_orbit` lists only the placements of the collision set
and reads their arrows off its per-rank table, the crossed-{2} rows of
`cosets.hasse_rows`, built without `parabolic`; it is checked against
both.  Each rank's Hasse diagram is built here by
the all-pairs search of `parabolic_oracle`.

Three small references ride along: `regular_placements`, the placement
table filtered from its definition, `placement_to_weight`, the
coordinate-wise projection of a placement onto the k-singular orbit,
and `igr1_bgg`, the 2n-term BGG chain of the trivial character on the
isotropic Grassmannian of lines iGr(1, 2n).  `bgg` exposes none of
them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import parabolic_oracle
import weyl_oracle
from bgg import orbits, parabolic, weyl
from bgg.orbits import IDENTITY, STANDARD, SUPPRESSED, OrbitArrow, OrbitDiagram, OrbitNode
from bgg.weyl import Weight


def regular_placements(n: int) -> list[tuple[int, int]]:
    """All 2n(n-1) placements (m1, m2): m1 > m2, m1 != -m2, distinct
    absolute values in 1..n, in the order of `orbits`' placement table."""
    return [
        (x, y)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for x, y in ((a, b), (a, -b), (-a, -b))
        if x > y and x != -y and abs(x) != abs(y)
    ]


def placement_to_weight(x: Sequence[int], k: int) -> Weight:
    """Project a regular placement onto the k-singular orbit coordinate-wise:
    entries with |x_i| <= k stay, larger ones move one step toward zero."""
    if any(v == 0 for v in x):
        raise ValueError("placement entries must be nonzero")
    return tuple(v if abs(v) <= k else v - (1 if v > 0 else -1) for v in x)


@dataclass(frozen=True)
class Chain:
    """A linear complex of weights with per-arrow order bounds."""

    terms: tuple[Weight, ...]
    orders: tuple[int, ...]


def igr1_bgg(n: int) -> Chain:
    """The 2n-term BGG complex of the trivial character on iGr(1,2n).

    First coordinates run n, ..., 1, -1, ..., -n; the remaining
    coordinates are the complementary values sorted descending.  The
    middle operator (1|...) -> (-1|...) has order two, all others one.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    firsts = list(range(n, 0, -1)) + list(range(-1, -n - 1, -1))
    terms = tuple(
        (c,) + tuple(v for v in range(n, 0, -1) if v != abs(c)) for c in firsts
    )
    orders = tuple(a[0] - b[0] for a, b in zip(terms, terms[1:]))
    return Chain(terms, orders)


@functools.lru_cache(maxsize=None)
def _hasse(n: int) -> parabolic.HasseDiagram:
    return parabolic_oracle.hasse_diagram(parabolic.parabolic(n, (2,)))


def _diagram(n, k, nodes, arrows, coincidences) -> OrbitDiagram:
    return OrbitDiagram(
        "singular-orbit", n, k, nodes, arrows, coincidences, conjectural=(k == 0)
    )


def suppressed(k: int, source: tuple[int, int], target: tuple[int, int]) -> bool:
    """Whether the arrow between two placements acts trivially: at k = 1
    each crossing of an axis, where one coordinate goes from 1 to -1 and
    the other stays; at k = 0 the one arrow (2, -1) -> (1, -2)."""
    if k == 0:
        return (source, target) == ((2, -1), (1, -2))
    return k == 1 and any(
        (source[a], target[a]) == (1, -1) and source[1 - a] == target[1 - a] for a in (0, 1)
    )


def singular_orbit(n: int, k: int) -> OrbitDiagram:
    """The placement rule over every Hasse node and edge, with the
    collision set read off lambda_k itself: the values r whose image
    lambda_k[n - r] is repeated or 0."""
    lam = orbits.lambda_k(n, k)
    p = parabolic.parabolic(n, (2,))
    hd = _hasse(n)
    collide = {r for r in range(1, n + 1) if lam[n - r] == 0 or lam.count(lam[n - r]) > 1}
    keep = []
    for i, nd in enumerate(hd.nodes):
        m1, m2 = nd.weight[0], nd.weight[1]
        if abs(m1) not in collide and abs(m2) not in collide:
            continue
        x1 = lam[n - m1] if m1 > 0 else -lam[n + m1]
        x2 = lam[n - m2] if m2 > 0 else -lam[n + m2]
        if x1 > x2:
            keep.append((i, weyl.act_from_image(nd.weight, lam)))
    index = {old: new for new, (old, _) in enumerate(keep)}
    nodes = [OrbitNode(hd.nodes[old].weight[:2], image) for old, image in keep]

    arrows = []
    for e in hd.edges:
        if e.source not in index or e.target not in index:
            continue
        s, t = index[e.source], index[e.target]
        if nodes[s].weight == nodes[t].weight:
            kind, order = IDENTITY, None
        else:
            trivial = suppressed(k, nodes[s].placement, nodes[t].placement)
            kind = SUPPRESSED if trivial else STANDARD
            grade = parabolic_oracle.root_grade(e.root, p)
            order = weyl_oracle.pairing(nodes[s].weight, e.root) * grade
        arrows.append(OrbitArrow(s, t, kind, e.root, order))

    by_weight: dict[Weight, list[int]] = {}
    for i, nd in enumerate(nodes):
        by_weight.setdefault(nd.weight, []).append(i)
    coincidences = sorted(tuple(ix) for ix in by_weight.values() if len(ix) == 2)
    return _diagram(n, k, nodes, arrows, coincidences)


def full_scan_orbit(n: int, k: int) -> OrbitDiagram:
    """w(lambda_k) of every Hasse node tested for strict Levi dominance."""
    lam = orbits.lambda_k(n, k)
    p = parabolic.parabolic(n, (2,))
    hd = _hasse(n)
    keep, nodes = {}, []
    for i, nd in enumerate(hd.nodes):
        image = weyl.act_from_image(nd.weight, lam)
        if weyl_oracle.is_dominant(image, (2,)):
            keep[i] = len(nodes)
            nodes.append(OrbitNode(nd.weight[:2], image))
    arrows = []
    for e in hd.edges:
        if e.source in keep and e.target in keep:
            (ps, ws), (pt, wt) = nodes[keep[e.source]], nodes[keep[e.target]]
            if ws == wt:
                kind, order = IDENTITY, None
            else:
                kind = SUPPRESSED if suppressed(k, ps, pt) else STANDARD
                order = parabolic_oracle.order_bound(ws, wt, p)
            arrows.append(OrbitArrow(keep[e.source], keep[e.target], kind, e.root, order))
    coincidences = [
        (i, j)
        for i, j in itertools.combinations(range(len(nodes)), 2)
        if nodes[i].weight == nodes[j].weight
    ]
    return _diagram(n, k, nodes, arrows, coincidences)
