"""Orbit diagrams over the isotropic Grassmannian iGr(2,2n).

Everything here works in rho-shifted coordinates.  The regular orbit of
rho for the crossed-{2} parabolic is drawn in the plane by the first two
coordinates (m1, m2) of w(rho); the singular orbits of the semi-regular
weights lambda_k are drawn at the same placements, each weight appearing
at the two placements that project onto it.  The weight families
lambda_k and tilde_lambda, and the operator kinds STANDARD and
NONSTANDARD, live in `weyl` and are re-exported here.

A node mu = w(rho) of the crossed-{2} Hasse diagram is its placement:
its tail mu_3 > ... > mu_n > 0 is the other absolute values, descending.
Per rank one table, keyed by placement and in Hasse order, holds each
node's weight and its out-arrows, each with its root, its order on the
regular orbit and the linear form that reads its order off any source
weight.  It is built once per rank from `weyl` arithmetic alone (see
`_rank_table`); this module never loads `parabolic`.

Placement rule.  For a node mu the image w(base) sends each |mu_i| = r
to f(r) = base[n - r], and f is weakly increasing with one collision:
f(k) = f(k + 1) for k >= 1, or f(1) = 0 for k = 0.  The tail of a node
therefore has a strictly descending, positive image unless it holds the
whole collision set ({k, k + 1}, or {1}).  So a node carries a point of
the singular orbit exactly when |mu_1| or |mu_2| lies in the collision
set and the image's first pair descends strictly; nothing else of mu
needs looking at.  A singular orbit lists the placements of its
collision set and reads the arrows of the kept ones from the table.
Nodes and arrows are immutable records (NamedTuples); a diagram holds
them in plain lists.  A diagram holds hundreds of records, and a
NamedTuple's own constructor is a Python-level function that costs
about twice tuple.__new__, so this module and `render.from_json` build
every record from its field tuple through `_node` and `_arrow`,
tuple.__new__ bound to the record type: the same type, equality and
repr at C speed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from bgg import weyl
from bgg.weyl import STANDARD, Root, Weight, lambda_k, shared_root

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


class _Node(NamedTuple):
    """One placement's row of the rank table: the Hasse node mu = w(rho)
    at that placement."""

    index: int  # position in Hasse order, by (length, perm, signs) of w
    weight: Weight  # mu
    # out-arrows in target order: (target index, root, order on the
    # regular orbit, (i, j, a, b) with <w, root^vee> * grade = a * w[i] +
    # b * w[j] for every weight w)
    arrows: tuple[tuple[int, Root, int, tuple[int, int, int, int]], ...]


@functools.lru_cache(maxsize=8)
def _rank_table(n: int) -> Mapping[tuple[int, int], _Node]:
    """The crossed-{2} Hasse diagram of rank n, keyed by placement and in
    Hasse order, built once per n (for the 8 ranks used last).  A
    read-only mapping of tuples, so no caller can change it for the next
    one.  Its roots are weyl.shared_root's, as are those render.from_json
    reads back.

    The tail is fixed by (m1, m2), so a node's length, the inversion
    count of mu (weyl.inversion_length), is read off (m1, m2) in O(1).
    Reflecting mu in a nilradical root gives a node only if the tail
    stays positive and descending, which leaves b_1, b_2, c_12 and, for
    i = 1, 2, one tail value mu_j: the one just below |mu_i| for a_ij
    (mu_i > 0), the one just above it for c_ij (mu_i < 0); the other
    neighbour's reflection is shorter.  So a node tries at most five
    reflections, keeping those whose target is one longer.  The grading
    element is E = (1, 1, 0, ..., 0), so a_ij and c_ij (j >= 3) have
    grade 1 and b_1, b_2, c_12 grade 2; at n = 2 node 2 is node n,
    E = (1/2, 1/2) and every grade halves.
    """
    if n < 2:
        raise ValueError("rank must be at least 2")
    rho = weyl.rho(n)
    big = 1 if n == 2 else 2  # the grade of b_1, b_2 and c_12
    b1 = shared_root("b", 1, 0), (0, 0, big, 0)
    b2 = shared_root("b", 2, 0), (1, 0, big, 0)
    c12 = shared_root("c", 1, 2), (0, 1, big, big)
    # (root, form) of a_ij and c_ij by [i][j], 0-based, for tail positions j
    a_ij = [[None, None] + [(shared_root("a", i + 1, j + 1), (i, j, 1, -1)) for j in range(2, n)]
            for i in (0, 1)]
    c_ij = [[None, None] + [(shared_root("c", i + 1, j + 1), (i, j, 1, 1)) for j in range(2, n)]
            for i in (0, 1)]
    # for each m_i: the tail values above it (all n - 2 if it is
    # negative), plus |m_i| if it is negative
    length = {
        (m1, m2): (n - 2 - m1 if m1 < 0 else n - m1 - (abs(m2) > m1))
        + (n - 2 - m2 if m2 < 0 else n - m2 - (abs(m1) > m2))
        for m1, m2 in _placements(n)
    }

    def sort_key(p: tuple[int, int]) -> tuple:
        # (length, perm, signs) of w.  perm lists the positions of the
        # values n, ..., 1: the tail's run 3, 4, ... up to max(a, b) (at 1
        # if that is a = |m1|, else 2), the run again up to min(a, b), so
        # perms order by -max(a, b), a < b, -min(a, b)
        m1, m2 = p
        a, b = abs(m1), abs(m2)
        return length[p], -max(a, b), a < b, -min(a, b), m1 > 0, m2 > 0

    ranked = sorted(length, key=sort_key)
    index = {p: i for i, p in enumerate(ranked)}
    table = {}
    for p in ranked:
        m1, m2 = p
        a, b = abs(m1), abs(m2)
        # (target, order on mu, (root, form)); a target that is no
        # placement (its pair does not descend) has no length
        found = [
            ((-m1, m2), m1 * big, b1),
            ((m1, -m2), m2 * big, b2),
            ((-m2, -m1), (m1 + m2) * big, c12),
        ]
        for i, x, other in ((0, m1, b), (1, m2, a)):
            # a_ij takes the tail value just below |x|, c_ij the one just above
            step = -1 if x > 0 else 1
            t = abs(x) + step if abs(x) + step != other else abs(x) + 2 * step
            if 1 <= t <= n:
                y = t if x > 0 else -t
                j = 2 + n - t - (a > t) - (b > t)  # t's position in mu
                root_form = (a_ij if x > 0 else c_ij)[i][j]
                found.append(((m1, y) if i else (y, m2), x - y, root_form))
        up = length[p] + 1
        arrows = [
            (index[target], root, order, form)
            for target, order, (root, form) in found
            if length.get(target) == up
        ]
        arrows.sort()
        lo, hi = sorted((n - a, n - b))
        table[p] = _Node(index[p], p + rho[:lo] + rho[lo + 1 : hi] + rho[hi + 1 :], tuple(arrows))
    return MappingProxyType(table)


def regular_orbit_projection(n: int) -> OrbitDiagram:
    """The regular orbit of rho for crossed={2}, placed at (m1, m2)."""
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
    w(base)_1 > w(base)_2.  Only the placements of the collision set are
    listed: the four signed placements of each pair of absolute values
    {r, s} with r in it share the rest of w(base), which is base without
    its entries at positions n - r and n - s (counting from 0).  The kept
    placements are put in Hasse order by their rows of the rank table.
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
    table = _rank_table(n)

    collide = _collision_set(base)
    kept = []  # (index, placement, image, arrows) in any order
    for r in collide:
        for s in range(1, n + 1):
            if s == r or (s < r and s in collide):
                continue
            hi, lo = (r, s) if r > s else (s, r)
            i, j = n - hi, n - lo
            fh, fl = base[i], base[j]
            rest = base[:i] + base[i + 1 : j] + base[j + 1 :]
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
