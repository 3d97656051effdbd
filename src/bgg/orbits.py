"""Orbit diagrams over the isotropic Grassmannian iGr(2,2n), and the
weight families lambda_k and tilde_lambda.

Everything here works in rho-shifted coordinates.  The regular orbit of
rho for the crossed-{2} parabolic is drawn in the plane by the first two
coordinates (m1, m2) of w(rho); the singular orbits of the semi-regular
weights lambda_k are drawn at the same placements, each weight appearing
at the two placements that project onto it.

Placement rule.  For a node mu = w(rho) the image w(base) sends each
|mu_i| = r to f(r) = base[n - r], and f is weakly increasing with one
collision: f(k) = f(k + 1) for k >= 1, or f(1) = 0 for k = 0.  The tail
mu_3 > ... > mu_n > 0 of a node therefore has a strictly descending,
positive image unless it holds the whole collision set ({k, k + 1}, or
{1}).  So a node carries a point of the singular orbit exactly when
|mu_1| or |mu_2| lies in the collision set and the image's first pair
descends strictly; nothing else of mu needs looking at.

Per rank the crossed-{2} Hasse diagram is built once, with two indexes:
its nodes bucketed by |mu_1| and |mu_2|, and each node's out-edges with
their root grades.  A singular orbit visits only the buckets of its
collision set and their out-edges.  Nodes and arrows are immutable
records (NamedTuples); a diagram holds them in plain lists.  `parabolic`
is imported only where that diagram is built, so `penrose`, which needs
the weight families alone, loads no Hasse code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from bgg import weyl
from bgg.weyl import Root, Weight

if TYPE_CHECKING:
    from bgg.parabolic import HasseEdge, HasseNode

STANDARD = "standard"
IDENTITY = "identity"
SUPPRESSED = "suppressed"
NONSTANDARD = "nonstandard"


# ---------------------------------------------------------------------------
# weight families


def lambda_k(n: int, k: int) -> Weight:
    """The rho-shifted semi-regular weight with k repeated (or trailing 0).

    (n-1, ..., k+1, k, k, k-1, ..., 1) for 1 <= k <= n-1 and
    (n-1, ..., 1, 0) for k = 0.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("k must satisfy 0 <= k <= n-1")
    if k == 0:
        return tuple(range(n - 1, -1, -1))
    return tuple(range(n - 1, k, -1)) + (k, k) + tuple(range(k - 1, 0, -1))


def tilde_lambda(n: int, k: int, sign: str = "+") -> Weight:
    """The rho-shifted twistor weight (±k | n-1, ..., 1) on iGr(1,2n)."""
    if not 0 <= k <= n - 1:
        raise ValueError("k must satisfy 0 <= k <= n-1")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if k == 0 and sign == "-":
        raise ValueError("k = 0 has a single conjugate (sign '+')")
    first = k if sign == "+" else -k
    return (first,) + tuple(range(n - 1, 0, -1))


# ---------------------------------------------------------------------------
# placements


@functools.lru_cache(maxsize=8)
def _placements(n: int) -> tuple[tuple[int, int], ...]:
    """All 2n(n-1) regular placements (m1, m2) of rank n: m1 > m2,
    m1 != -m2, distinct absolute values in 1..n.  A tuple built once per
    n (for the 8 ranks used last), so no caller can change it."""
    pts = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a > b:
                pts.append((a, b))
            if a != b:
                pts.append((a, -b))
            if a < b:
                pts.append((-a, -b))
    return tuple(pts)


# ---------------------------------------------------------------------------
# diagrams


class OrbitNode(NamedTuple):
    placement: tuple[int, int]
    weight: Weight


class OrbitArrow(NamedTuple):
    source: int
    target: int
    kind: str
    root: Optional[Root] = None
    order: Optional[int] = None


@dataclass
class OrbitDiagram:
    kind: str
    n: int
    k: Optional[int]
    nodes: list[OrbitNode]
    arrows: list[OrbitArrow]
    coincidences: list[tuple[int, int]]
    conjectural: bool = False

    def placements(self) -> list[tuple[int, int]]:
        return [nd.placement for nd in self.nodes]

    def cross_placements(self) -> list[tuple[int, int]]:
        """Regular placements that carry no node (drawn as crosses)."""
        have = set(self.placements())
        return [p for p in _placements(self.n) if p not in have]


class _Crossed2(NamedTuple):
    """The crossed-{2} Hasse diagram of one rank with its two indexes."""

    nodes: tuple[HasseNode, ...]
    edges: tuple[HasseEdge, ...]
    # by_abs[r]: indices of the nodes with |mu_1| = r or |mu_2| = r, ascending
    by_abs: tuple[tuple[int, ...], ...]
    # out[i]: node i's out-edges as (target, root, root grade), in edge order
    out: tuple[tuple[tuple[int, Root, int], ...], ...]


@functools.lru_cache(maxsize=8)
def _crossed2(n: int) -> _Crossed2:
    """The crossed-{2} Hasse diagram of rank n and its indexes, built once
    per n (for the 8 ranks used last).  Everything is a tuple of
    immutable records, so no caller can change it for the next one.
    The one import of `parabolic` in this module is here."""
    from bgg import parabolic as parabolic_mod

    p = parabolic_mod.parabolic(n, (2,))
    hd = parabolic_mod.hasse_diagram(p)
    by_abs: list[list[int]] = [[] for _ in range(n + 1)]
    for i, nd in enumerate(hd.nodes):
        by_abs[abs(nd.weight[0])].append(i)
        by_abs[abs(nd.weight[1])].append(i)
    grades = {r: parabolic_mod.root_grade(r, p) for r in {e.root for e in hd.edges}}
    out: list[list[tuple[int, Root, int]]] = [[] for _ in hd.nodes]
    for e in hd.edges:
        out[e.source].append((e.target, e.root, grades[e.root]))
    return _Crossed2(
        tuple(hd.nodes),
        tuple(hd.edges),
        tuple(map(tuple, by_abs)),
        tuple(map(tuple, out)),
    )


def regular_orbit_projection(n: int) -> OrbitDiagram:
    """The regular orbit of rho for crossed={2}, placed at (m1, m2)."""
    hd = _crossed2(n)
    nodes = [OrbitNode(mu[:2], mu) for mu, _ in hd.nodes]
    arrows = [
        OrbitArrow(source, target, STANDARD, root, order)
        for source, target, root, order in hd.edges
    ]
    return OrbitDiagram("regular-orbit", n, None, nodes, arrows, [])


def _suppressed(k: int, src: tuple[int, int], tgt: tuple[int, int]) -> bool:
    """The operator families that act trivially and are omitted from the
    diagrams: x-axis / y-axis crossings at k=1, and (2,-1)->(1,-2) at k=0."""
    if k == 1:
        if src[0] == tgt[0] and (src[1], tgt[1]) == (1, -1):
            return True
        if src[1] == tgt[1] and (src[0], tgt[0]) == (1, -1):
            return True
    if k == 0:
        return (src, tgt) == ((2, -1), (1, -2))
    return False


def _collision_set(base: Weight) -> frozenset[int]:
    """The values r with f(r) = base[n - r] repeated or zero: {k, k + 1}
    for a repeated pair, {1} for a trailing 0."""
    n = len(base)
    return frozenset(
        r for r in range(1, n + 1) if base[n - r] == 0 or base.count(base[n - r]) > 1
    )


def singular_orbit(n: int, k: int, base: Optional[Weight] = None) -> OrbitDiagram:
    """The orbit diagram of a k-singular weight for crossed={2}.

    Nodes are the Hasse-diagram nodes mu = w(rho) whose image w(base) is
    strictly Levi-dominant, placed at the first two coordinates of mu.
    They are read off the placement rule (see the module docstring): mu
    is kept iff |mu_1| or |mu_2| lies in the collision set of base and
    w(base)_1 > w(base)_2.  Only the nodes in the collision set's buckets
    are looked at, and w(base) is built only for the kept nodes, by
    slicing: it is (w(base)_1, w(base)_2) followed by base without its
    entries at positions n - |mu_1| and n - |mu_2| (counting from 0).
    Arrows are the induced Hasse arrows: identity arrows join the
    coincidence pairs, the trivially-acting families at k <= 1 are kept
    but marked suppressed, all others are standard.
    """
    if base is None:
        base = lambda_k(n, k)
    else:
        base = tuple(base)
        if len(base) != n:
            raise ValueError("base must have length n")
        if infer_k(base) != k:
            raise ValueError("base weight does not have the k-singular pattern")
    hd = _crossed2(n)

    keep, nodes = [], []
    for i in sorted({i for r in _collision_set(base) for i in hd.by_abs[r]}):
        mu = hd.nodes[i].weight
        m1, m2 = mu[0], mu[1]
        x1 = base[n - m1] if m1 > 0 else -base[n + m1]
        x2 = base[n - m2] if m2 > 0 else -base[n + m2]
        if x1 > x2:
            lo, hi = sorted((n - abs(m1), n - abs(m2)))
            image = (x1, x2) + base[:lo] + base[lo + 1 : hi] + base[hi + 1 :]
            keep.append(i)
            nodes.append(OrbitNode(mu[:2], image))
    index = {old: new for new, old in enumerate(keep)}

    # The target's image is s_alpha of the source's, so the conformal-weight
    # drop (parabolic.order_bound) is <image, alpha^vee> * alpha(E).  Read
    # in node order, the kept nodes' out-edges are the Hasse edges between
    # kept nodes in edge order.
    arrows = []
    for s, old in enumerate(keep):
        source = nodes[s]
        for target, root, grade in hd.out[old]:
            t = index.get(target)
            if t is None:
                continue
            if source.weight == nodes[t].weight:
                kind, order = IDENTITY, None
            else:
                suppressed = _suppressed(k, source.placement, nodes[t].placement)
                kind = SUPPRESSED if suppressed else STANDARD
                order = weyl.pairing(source.weight, root) * grade
            arrows.append(OrbitArrow(s, t, kind, root, order))

    by_weight: dict[Weight, list[int]] = {}
    for i, nd in enumerate(nodes):
        by_weight.setdefault(nd.weight, []).append(i)
    coincidences = sorted(
        tuple(ix) for ix in by_weight.values() if len(ix) == 2
    )
    for ix in by_weight.values():
        if len(ix) > 2:
            raise AssertionError("a weight appeared more than twice in an orbit")

    return OrbitDiagram(
        "singular-orbit",
        n,
        k,
        nodes,
        arrows,
        [tuple(c) for c in coincidences],
        conjectural=(k == 0),
    )


def infer_k(base: Sequence[int]) -> int:
    """Singularity index of a rho-shifted semi-regular dominant weight:
    0 for a trailing zero, else n minus the position of the repeated pair."""
    base = tuple(base)
    n = len(base)
    if weyl.classify(base) != weyl.SEMIREGULAR:
        raise ValueError("base must be semi-regular")
    if not weyl.is_dominant(base):
        raise ValueError("base must be g-dominant")
    if base[-1] == 0:
        return 0
    for i in range(n - 1):
        if base[i] == base[i + 1]:
            return n - (i + 1)
    raise AssertionError("semi-regular dominant weight with no pattern")
