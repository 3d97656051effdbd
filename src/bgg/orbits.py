"""Orbit diagrams over the isotropic Grassmannian iGr(2,2n).

Everything here works in rho-shifted coordinates.  The regular orbit of
rho for the crossed-{2} parabolic is drawn in the plane by the first two
coordinates (m1, m2) of w(rho); the singular orbits of the semi-regular
weights lambda_k are drawn at the same placements, each weight appearing
at the two placements that project onto it.  The weight families
lambda_k and tilde_lambda, and the operator kinds STANDARD and
NONSTANDARD, live in `weyl` and are re-exported here.

W^p of any parabolic is searched here alone (`hasse_rows`), each node
mu = w(rho) keyed by its barred entries.  `parabolic.hasse_diagram`
wraps its rows, so `hasse` loads this module; the orbit and render
commands load it and never `parabolic`.  For crossed {2} the barred
entries are the placement (m1, m2): per rank one table (`_rank_table`)
holds each node's weight and out-arrows with roots, orders and forms.

Placement rule.  For a node mu the image w(base) sends each |mu_i| = r
to f(r) = base[n - r], and f is weakly increasing with one collision:
f(k) = f(k + 1) for k >= 1, or f(1) = 0 for k = 0.  The tail of a node
therefore has a strictly descending, positive image unless it holds the
whole collision set ({k, k + 1}, or {1}).  So a node carries a point of
the singular orbit exactly when |mu_1| or |mu_2| lies in the collision
set and the image's first pair descends strictly; nothing else of mu
needs looking at.  A singular orbit lists the placements of its
collision set and reads the arrows of the kept ones from the table.
Nodes and arrows are immutable records (NamedTuples) in plain lists,
built from their field tuples through `_node` and `_arrow`
(tuple.__new__ bound to the record type: a NamedTuple's own constructor
is a Python-level call, twice the cost).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import add, getitem, itemgetter, neg
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


# ---------------------------------------------------------------------------
# the Hasse diagram W^p of any parabolic, keyed by barred entries


def _twice_grading(n: int, crossed: Sequence[int]) -> tuple[int, ...]:
    """2E for the crossed nodes, which is integral: 2E_m is 1 if node n is
    crossed, plus 2 for each crossed node from m to n - 1."""
    return tuple(2 * sum(m < c < n for c in crossed) + (n in crossed) for m in range(n))


@functools.lru_cache(maxsize=None)
def _signings(size: int) -> tuple[tuple[itemgetter, int], ...]:
    """Per choice of signs of a_0 > ... > a_{size-1} > 0: a getter of the
    descending run out of (a_0, ..., -a_0, ...), and the number of pairs
    of a positive a_p and a later -a_q with a_q > a_p."""
    out = []
    for k in range(size + 1):
        for negative in itertools.combinations(range(size), k):
            positive = [p for p in range(size) if p not in negative]
            run = positive + [size + q for q in reversed(negative)]
            pick = itemgetter(*run) if size > 1 else itemgetter(slice(run[0], run[0] + 1))
            out.append((pick, sum(q < p for p in positive for q in negative)))
    return tuple(out)


def _keyed_nodes(n: int, barred: list[tuple[int, int]]) -> tuple[list, int]:
    """Every node of W^p, unsorted, as (key, mu_B, mu, mask), and the
    shift that reads the length off a key.  mu_B is the b barred entries
    of mu (all n if node n is crossed), a descending signed run per
    group; the mask has bit |v| set for each barred v.  The key, length
    << shift | perm code << b | sign code, orders by (length, perm,
    signs) of w:

    - the length (inversion_length of mu): ascents of mu_B, plus n - v -
      #{barred |a| > v} per positive barred v, plus n - b + |v| per
      negative one; summed per entry (`single`), per pair in a run
      (`_signings`) and per pair across groups (`pair`, folded in rows);
    - perm[n - |mu_i|] = i: a digit per value r from n down, r's
      position if it is barred, else b + 1; then a sign bit per entry.
    """
    b = barred[-1][1]
    width = (b + 1).bit_length()
    shift = b + width * n

    def single(i, start, v):
        # a positive v has the earlier entries of its run above it
        a = abs(v)
        length = n - v - (i - start) if v > 0 else n - b + a
        return (length << shift) - ((b - i) << (b + width * (a - 1))) + ((v > 0) << (b - 1 - i))

    def pair(u, v):
        return (u < v) - (v > 0 and abs(u) > v) - (u > 0 and abs(v) > u)

    # a row per position, read by signed value: v at index v, -v at -v
    signed = (0, *range(1, n + 1), *range(-n, 0))
    rows = [[single(i, s, v) if v else 0 for v in signed] for s, t in barred for i in range(s, t)]
    nodes = []

    def place(g, avail, prefix, key, mask, rows):
        s, t = barred[g]
        size = t - s
        here = rows[s:t]
        last = g + 1 == len(barred)
        shapes = [(pick, over << shift) for pick, over in _signings(size)]
        for picked in itertools.combinations(range(len(avail)), size):
            values = tuple(map(avail.__getitem__, picked))
            rest = list(avail)
            for p in reversed(picked):
                del rest[p]
            rest = tuple(rest)
            bits = mask | sum(map((1).__lshift__, values))
            values += tuple(map(neg, values))
            for pick, over in shapes:
                seg = pick(values)
                seg_key = key + sum(map(getitem, here, seg)) - over
                mu = prefix + seg
                if last:
                    nodes.append((seg_key, mu, mu + rest, bits))
                else:
                    cross = [sum(pair(u, v) for u in seg) << shift for v in signed]
                    later = [list(map(add, row, cross)) for row in rows[t:]]
                    place(g + 1, rest, mu, seg_key, bits, rows[:t] + later)

    place(0, weyl.rho(n), (), sum((b + 1) << (b + width * r) for r in range(n)), 0, rows)
    return nodes, shift


def _probes(n: int, crossed: Sequence[int], barred: list[tuple[int, int]]) -> tuple:
    """The nilradical roots for the arrow search on mu_B, as (root, (i,
    j, a, b)) with <w, alpha^vee> * alpha(E) = a * w[i] + b * w[j], in
    slots (i, right of i, start, stop, mid, a-forms, a-grade, c-forms,
    c-grade) per barred i and later barred group [start, stop), or the
    rest of i's own group (c only); tails (i, right of i, mid, a-forms,
    c-forms, grade) per barred i if a group is open; and b-probes (i,
    right of i, i + 1, (root, form), grade).  The right neighbour of a
    group's last position is the pad at index b; mid holds the positions
    of the groups between; forms are listed by j - start, or by j - b.
    """
    twice = _twice_grading(n, crossed)
    b = barred[-1][1]
    right = [b] * b
    for s, t in barred:
        right[s : t - 1] = range(s + 1, t)

    def forms(kind, i, js, grade):
        other = -grade if kind == "a" else grade
        return [(shared_root(kind, i + 1, j + 1), (i, j, grade, other)) for j in js]

    slots, tails, b_probes = [], [], []
    for own, (start, end) in enumerate(barred):
        for i in range(start, end):
            grade = twice[i]
            b_form = shared_root("b", i + 1, 0), (i, 0, grade, 0)
            b_probes.append((i, right[i], i + 1, b_form, grade))
            if i + 1 < end:
                c_forms = forms("c", i, range(i + 1, end), grade)
                slots.append((i, right[i], i + 1, end, None, (), 0, c_forms, grade))
            for s, t in barred[own + 1 :]:
                a, c = (twice[i] - twice[s]) // 2, (twice[i] + twice[s]) // 2
                js, mid = range(s, t), range(end, s)
                slots.append((i, right[i], s, t, mid, forms("a", i, js, a), a, forms("c", i, js, c), c))
            if crossed[-1] != n:
                grade, js = twice[i] // 2, range(b, n)
                a_forms, c_forms = forms("a", i, js, grade), forms("c", i, js, grade)
                tails.append((i, right[i], range(end, b), a_forms, c_forms, grade))
    return slots, tails, b_probes


def hasse_rows(n: int, crossed: Sequence[int]) -> list[tuple[Weight, Weight, int, tuple]]:
    """W^p for the crossed nodes (sorted, distinct) in Hasse order, per
    node w as (mu_B, mu = w(rho), length, arrows), keyed and sorted by
    mu_B (`_keyed_nodes`).  Arrows come by target as (target, root,
    order, (i, j, a, b)): s_alpha(mu) is the target's weight, one longer,
    and the order <mu, alpha^vee> * alpha(E) = a * mu[i] + b * mu[j] >= 1.

    A reflection is looked up only if <mu, alpha^vee> > 0, it keeps Levi
    dominance where it changes mu, and no cover test shows it at least
    three longer.  Between barred groups (descending runs) a_ij and c_ij
    keep dominance for one j per group, found by bisection; a_ij fails
    if a value between mu_j and mu_i sits between i and j, and c_ij
    needs a negative entry.  Into the open group only the tail value
    just below mu_i > 0 can swap in for a_ij, and the one just above
    |mu_i| for c_ij with mu_i < 0, both read off the mask.  b_i needs
    mu_i > 0 with the mu_i - 1 smaller values left of i.
    """
    groups = weyl._groups(n, crossed)
    barred = groups[:-1] if crossed[-1] != n else groups
    nodes, shift = _keyed_nodes(n, barred)
    nodes.sort()
    index = {node[1]: i for i, node in enumerate(nodes)}
    lengths = [node[0] >> shift for node in nodes]
    slots, tails, b_probes = _probes(n, crossed, barred)
    pad = (-n - 1,)
    every = (2 << n) - 2  # bits 1..n

    rows = []
    for length, (_, mu, weight, mask) in zip(lengths, nodes):
        up = length + 1
        ext = mu + pad
        arrows = []
        for i, ri, s, t, mid, a_forms, a_grade, c_forms, c_grade in slots:
            x = mu[i]
            # a_ij: j is the first position of the group with mu_j < x
            if a_forms:
                j = bisect_left(mu, -x, s, t, key=neg)
                if j < t:
                    y = mu[j]
                    if y > ext[ri] and not (mid and any(y < mu[k] < x for k in mid)):
                        v = list(mu)
                        v[i], v[j] = y, x
                        target = index[tuple(v)]
                        if lengths[target] == up:
                            root, form = a_forms[j - s]
                            arrows.append((target, root, (x - y) * a_grade, form))
            # c_ij: j is the last position with mu_j > -x, one of them < 0
            j = bisect_left(mu, x, s, t, key=neg) - 1
            if j >= s:
                y = mu[j]
                if -y > ext[ri] and (x < 0 or y < 0):
                    v = list(mu)
                    v[i], v[j] = -y, -x
                    target = index[tuple(v)]
                    if lengths[target] == up:
                        root, form = c_forms[j - s]
                        arrows.append((target, root, (x + y) * c_grade, form))
        free = every & ~mask
        for i, ri, mid, a_forms, c_forms, grade in tails:
            x = mu[i]
            if x > 0:
                # the largest tail value y < x takes x's place in the tail,
                # after the n - x values above x less the barred ones
                y = (free & ((1 << x) - 2)).bit_length() - 1
                if y > 0 and y > ext[ri] and not (mid and any(y < mu[k] < x for k in mid)):
                    v = list(mu)
                    v[i] = y
                    target = index[tuple(v)]
                    if lengths[target] == up:
                        root, form = a_forms[n - x - (mask >> x + 1).bit_count()]
                        arrows.append((target, root, (x - y) * grade, form))
            else:
                # the smallest tail value y > -x gives way to -x; the tail
                # values above y are those above -x, less y
                above = free & -(2 << -x)
                y = (above & -above).bit_length() - 1
                if y > 0 and -y > ext[ri]:
                    v = list(mu)
                    v[i] = -y
                    target = index[tuple(v)]
                    if lengths[target] == up:
                        root, form = c_forms[n + x - 1 - (mask >> 1 - x).bit_count()]
                        arrows.append((target, root, (x + y) * grade, form))
        for i, ri, most, (root, form), grade in b_probes:
            x = mu[i]
            if 0 < x <= most and -x > ext[ri] and sum(1 for w in mu[:i] if -x < w < x) == x - 1:
                v = list(mu)
                v[i] = -x
                target = index[tuple(v)]
                if lengths[target] == up:
                    arrows.append((target, root, x * grade, form))
        arrows.sort()
        rows.append((mu, weight, length, tuple(arrows)))
    return rows


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
    """The crossed-{2} W^p of rank n keyed by placement (its mu_B), in
    Hasse order, built once per n (for the 8 ranks used last) as a
    read-only mapping of tuples, so no caller can change it."""
    if n < 2:
        raise ValueError("rank must be at least 2")
    rows = enumerate(hasse_rows(n, (2,)))
    return MappingProxyType({mu: _row((i, weight, arrows)) for i, (mu, weight, _, arrows) in rows})


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
    coincidences = sorted(tuple(ix) for ix in by_weight.values() if len(ix) == 2)
    for ix in by_weight.values():
        if len(ix) > 2:
            raise AssertionError("a weight appeared more than twice in an orbit")
    return OrbitDiagram("singular-orbit", n, k, nodes, arrows, coincidences, conjectural=(k == 0))


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
