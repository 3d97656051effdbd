"""Orbit diagrams over the isotropic Grassmannians iGr(1,2n) and iGr(2,2n).

Everything here works in rho-shifted coordinates.  The regular orbit of
rho for the crossed-{2} parabolic is drawn in the plane by the first two
coordinates (m1, m2) of w(rho); the singular orbits of the semi-regular
weights lambda_k are drawn at the same placements, each weight appearing
at the two placements that project onto it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from bgg import parabolic as parabolic_mod
from bgg import weyl
from bgg.parabolic import HasseEdge, HasseNode
from bgg.weyl import Root, Weight

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
    terms = []
    for c in firsts:
        tail = tuple(v for v in range(n, 0, -1) if v != abs(c))
        terms.append((c,) + tail)
    orders = tuple(
        terms[i][0] - terms[i + 1][0] for i in range(len(terms) - 1)
    )
    return Chain(tuple(terms), orders)


# ---------------------------------------------------------------------------
# placements


def placement_to_weight(x: Sequence[int], k: int) -> Weight:
    """Project a regular placement onto the k-singular orbit coordinate-wise:
    entries with |x_i| <= k stay, larger ones move one step toward zero."""
    if any(v == 0 for v in x):
        raise ValueError("placement entries must be nonzero")
    return tuple(v if abs(v) <= k else v - (1 if v > 0 else -1) for v in x)


def regular_placements(n: int) -> list[tuple[int, int]]:
    """All 2n(n-1) placements (m1, m2): m1 > m2, m1 != -m2, distinct
    absolute values in 1..n."""
    pts = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a > b:
                pts.append((a, b))
            if a != b:
                pts.append((a, -b))
            if a < b:
                pts.append((-a, -b))
    return pts


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class OrbitNode:
    placement: tuple[int, int]
    weight: Weight


@dataclass(frozen=True)
class OrbitArrow:
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
        return [p for p in regular_placements(self.n) if p not in have]


@functools.lru_cache(maxsize=8)
def _crossed2(n: int) -> tuple[tuple[HasseNode, ...], tuple[HasseEdge, ...]]:
    """Nodes and edges of the crossed-{2} Hasse diagram of rank n, built
    once per n (for the 8 ranks used last).  Both are tuples of frozen
    objects, so no caller can change them for the next one."""
    hd = parabolic_mod.hasse_diagram(parabolic_mod.parabolic(n, (2,)))
    return tuple(hd.nodes), tuple(hd.edges)


def regular_orbit_projection(n: int) -> OrbitDiagram:
    """The regular orbit of rho for crossed={2}, placed at (m1, m2)."""
    hasse_nodes, hasse_edges = _crossed2(n)
    nodes = [OrbitNode(nd.weight[:2], nd.weight) for nd in hasse_nodes]
    arrows = [
        OrbitArrow(e.source, e.target, STANDARD, e.root, e.order)
        for e in hasse_edges
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


def singular_orbit(n: int, k: int, base: Optional[Weight] = None) -> OrbitDiagram:
    """The orbit diagram of a k-singular weight for crossed={2}.

    Nodes are the Hasse-diagram elements w whose image w(base) is
    strictly Levi-dominant, placed at the first two coordinates of
    w(rho).  Arrows are the induced Hasse arrows: identity arrows join
    the coincidence pairs, the trivially-acting families at k <= 1 are
    kept but marked suppressed, all others are standard.
    """
    if base is None:
        base = lambda_k(n, k)
    else:
        base = tuple(base)
        if infer_k(base) != k:
            raise ValueError("base weight does not have the k-singular pattern")
    p = parabolic_mod.parabolic(n, (2,))
    hasse_nodes, hasse_edges = _crossed2(n)

    keep = []
    for i, nd in enumerate(hasse_nodes):
        image = weyl.standard_action(nd.element, base)
        if weyl.is_dominant(image, p.crossed, weyl.STRICTLY_FOR_LEVI):
            keep.append((i, image))
    index = {old: new for new, (old, _) in enumerate(keep)}
    nodes = [
        OrbitNode(hasse_nodes[old].weight[:2], image) for old, image in keep
    ]

    arrows = []
    for e in hasse_edges:
        if e.source not in index or e.target not in index:
            continue
        s, t = index[e.source], index[e.target]
        if nodes[s].weight == nodes[t].weight:
            kind, order = IDENTITY, None
        elif _suppressed(k, nodes[s].placement, nodes[t].placement):
            kind = SUPPRESSED
            order = parabolic_mod.order_bound(nodes[s].weight, nodes[t].weight, p)
        else:
            kind = STANDARD
            order = parabolic_mod.order_bound(nodes[s].weight, nodes[t].weight, p)
        arrows.append(OrbitArrow(s, t, kind, e.root, order))

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


def singular_orbit_from_base(base: Sequence[int]) -> OrbitDiagram:
    """Orbit diagram of any semi-regular dominant rho-shifted weight; the
    structure depends only on the ordering pattern, not the values."""
    base = tuple(base)
    return singular_orbit(len(base), infer_k(base), base)


def singular_conjugates(shifted: Sequence[int], crossed: Sequence[int]) -> set[Weight]:
    """All strictly Levi-dominant images of a weight under the full Weyl
    group, by direct orbit enumeration (oracle-grade; small n only)."""
    shifted = tuple(shifted)
    n = len(shifted)
    found = set()
    for perm in set(itertools.permutations(shifted)):
        for signs in itertools.product((1, -1), repeat=n):
            image = tuple(s * v for s, v in zip(signs, perm))
            if weyl.is_dominant(image, crossed, weyl.STRICTLY_FOR_LEVI):
                found.add(image)
    return found
