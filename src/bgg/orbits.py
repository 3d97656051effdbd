"""Orbit diagrams over the isotropic Grassmannian iGr(2,2n).

Everything here works in rho-shifted coordinates.  The regular orbit of
rho for the crossed-{2} parabolic is drawn in the plane by the first two
coordinates (m1, m2) of w(rho); the singular orbits of the semi-regular
weights lambda_k are drawn at the same placements, each weight appearing
at the two placements that project onto it.  The weight families
lambda_k and tilde_lambda, and the operator kinds STANDARD and
NONSTANDARD, live in `weyl` and are re-exported here.

W^p is searched in `cosets.hasse_rows`, each node mu = w(rho) keyed by
its barred entries.  The orbit and render commands load `cosets` with
this module and never `parabolic`; `hasse` loads `cosets` and
`parabolic` and not this module.  For crossed {2} the barred entries
are the placement (m1, m2): per rank one table (`_rank_table`) holds
each node's weight and out-arrows with roots, orders and forms.

Placement rule.  For a node mu, w(lambda_k) sends each |mu_i| = r to
f(r) = lambda_k[n - r], and f is weakly increasing with one collision:
f(k) = f(k + 1) for k >= 1, or f(1) = 0 for k = 0.  The tail of a node
therefore has a strictly descending, positive image unless it holds the
whole collision set ({k, k + 1}, or {1}).  So a node carries a point of
the singular orbit exactly when |mu_1| or |mu_2| lies in the collision
set and the image's first pair descends strictly; nothing else of mu
needs looking at.  A singular orbit lists the placements of its
collision set and reads the arrows of the kept ones from the table.
A diagram writes its own text (to_text); its JSON, TikZ and DOT are
`render`'s.  Diagrams, nodes and arrows are immutable records
(NamedTuples); nodes and arrows are built from their field tuples
through `_node` and `_arrow` (tuple.__new__ bound to the record type: a
NamedTuple's own constructor is a Python-level call, twice the cost).
"""

from __future__ import annotations

import functools
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from bgg import cosets, weyl
from bgg.weyl import STANDARD, Root, Weight, lambda_k

IDENTITY = "identity"
SUPPRESSED = "suppressed"
# the other operator kind and weight family, importable from here too
NONSTANDARD = weyl.NONSTANDARD
tilde_lambda = weyl.tilde_lambda


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


# a record from its field tuple, all fields given, with no Python-level call
_node = functools.partial(tuple.__new__, OrbitNode)
_arrow = functools.partial(tuple.__new__, OrbitArrow)


class OrbitDiagram(NamedTuple):
    """An orbit diagram for crossed {2}: kind "regular-orbit" or
    "singular-orbit", rank n, and the k of lambda_k (None if regular).
    nodes are OrbitNodes in Hasse order, a placement (m1, m2) and the
    weight drawn there, w(rho) or w(lambda_k); arrows join them by index,
    each STANDARD, IDENTITY or SUPPRESSED with its root and order bound
    (an identity arrow has neither); coincidences are the sorted index
    pairs of equal weight; conjectural marks k = 0, which has no proof."""

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

    def to_text(self) -> str:
        """The orbit commands' text listing, followed by a newline: header,
        arrow counts by kind, nodes, arrows, coincidences."""
        fmt = weyl.format_weight
        kinds = {}
        for a in self.arrows:
            kinds[a.kind] = kinds.get(a.kind, 0) + 1
        head = f"{self.kind}: n={self.n}"
        if self.k is not None:
            head += f" k={self.k}"
        if self.conjectural:
            head += " (conjectural structure)"
        lines = [head, f"nodes={len(self.nodes)} arrows={kinds}", "nodes (placement  weight):"]
        lines += [f"  {fmt(placement):10s} {fmt(weight)}" for placement, weight in self.nodes]
        lines.append("arrows:")
        for a in self.arrows:
            extra = f" root={a.root.label()}" if a.root else ""
            extra += f" order={a.order}" if a.order is not None else ""
            source, target = self.nodes[a.source].placement, self.nodes[a.target].placement
            lines.append(f"  {fmt(source)} -> {fmt(target)}  {a.kind}{extra}")
        if self.coincidences:
            lines.append("coincidences (node index pairs with equal weight):")
            lines += [
                f"  {a} ~ {b}  at {fmt(self.nodes[a].placement)} / {fmt(self.nodes[b].placement)}"
                for a, b in self.coincidences
            ]
        return "\n".join(lines) + "\n"


class _Node(NamedTuple):
    """One placement's row of the rank table: the Hasse node mu = w(rho)
    at that placement."""

    index: int  # position in Hasse order, by (length, perm, signs) of w
    weight: Weight  # mu
    # out-arrows by target: (target index, root, order on the regular
    # orbit, (i, j, a, b): <w, root^vee> * grade = a * w[i] + b * w[j])
    arrows: tuple[tuple[int, Root, int, tuple[int, int, int, int]], ...]


_row = functools.partial(tuple.__new__, _Node)


@functools.lru_cache(maxsize=8)
def _rank_table(n: int) -> Mapping[tuple[int, int], _Node]:
    """The crossed-{2} W^p of rank n, n checked by the caller, keyed by
    placement (its mu_B), in Hasse order, built once per n (for the 8
    ranks used last) as a read-only mapping no caller can change."""
    rows = enumerate(cosets.hasse_rows(n, (2,)))
    return MappingProxyType({mu: _row((i, weight, arrows)) for i, (mu, weight, _, arrows) in rows})


def regular_orbit_projection(n: int) -> OrbitDiagram:
    """The regular orbit of rho for crossed={2}, placed at (m1, m2)."""
    weyl._check_rank(n)
    table = _rank_table(n)
    nodes = [_node((p, node.weight)) for p, node in table.items()]
    arrows = [
        _arrow((source, target, STANDARD, root, order))
        for source, node in enumerate(table.values())
        for target, root, order, _ in node.arrows
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


def singular_orbit(n: int, k: int) -> OrbitDiagram:
    """The orbit diagram of lambda_k for crossed={2}.

    Nodes are the Hasse-diagram nodes mu = w(rho) whose image
    w(lambda_k) is strictly Levi-dominant, placed at the first two
    coordinates of mu.  By the placement rule (see the module docstring)
    mu is kept iff |mu_1| or |mu_2| lies in the collision set, {k, k + 1}
    or {1} at k = 0, and the image's first pair descends strictly.  Only
    the placements of the collision set are listed: the four signed
    placements of each pair of absolute values {r, s} with r in it share
    the rest of the image, lambda_k without its entries at positions
    n - r and n - s (counting from 0).  The kept placements are put in
    Hasse order by their rows of the rank table.  Arrows are the induced
    Hasse arrows: identity arrows join the coincidence pairs, the
    trivially-acting families at k <= 1 are kept but marked suppressed,
    all others are standard.
    """
    lam = lambda_k(n, k)
    table = _rank_table(n)

    collide = (k, k + 1) if k else (1,)
    kept = []  # (index, placement, image, arrows) in any order
    for r in collide:
        for s in range(1, n + 1):
            if s == r or (s < r and s in collide):
                continue
            hi, lo = (r, s) if r > s else (s, r)
            i, j = n - hi, n - lo
            fh, fl = lam[i], lam[j]
            rest = lam[:i] + lam[i + 1 : j] + lam[j + 1 :]
            for p, x in (
                ((hi, lo), (fh, fl)),
                ((hi, -lo), (fh, -fl)),
                ((lo, -hi), (fl, -fh)),
                ((-lo, -hi), (-fl, -fh)),
            ):
                if x[0] > x[1]:
                    node = table[p]
                    kept.append((node.index, p, x + rest, node.arrows))
    kept.sort()  # the indices are distinct, so nothing else is compared
    nodes = list(map(_node, map(itemgetter(1, 2), kept)))
    index = {kp[0]: new for new, kp in enumerate(kept)}

    # The target's image is s_alpha of the source's, so the conformal-weight
    # drop (parabolic.order_bound) is <image, alpha^vee> * alpha(E), which
    # the arrow's form reads off two entries of the image.  Read in node
    # order, the kept nodes' arrows are the Hasse arrows between kept nodes
    # in Hasse edge order.
    arrows = []
    for s, (_, placement, w, out) in enumerate(kept):
        for target, root, _, form in out:
            t = index.get(target)
            if t is None:
                continue
            if w == nodes[t].weight:
                kind, order = IDENTITY, None
            else:
                suppressed = k <= 1 and _suppressed(k, placement, nodes[t].placement)
                kind = SUPPRESSED if suppressed else STANDARD
                i, j, a, b = form
                order = a * w[i] + b * w[j]
            arrows.append(_arrow((s, t, kind, root, order)))

    by_weight: dict[Weight, list[int]] = {}
    for i, nd in enumerate(nodes):
        by_weight.setdefault(nd.weight, []).append(i)
    coincidences = sorted(tuple(ix) for ix in by_weight.values() if len(ix) == 2)
    for ix in by_weight.values():
        if len(ix) > 2:
            raise AssertionError("a weight appeared more than twice in an orbit")
    return OrbitDiagram("singular-orbit", n, k, nodes, arrows, coincidences, conjectural=(k == 0))
