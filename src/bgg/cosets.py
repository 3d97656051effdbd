"""The Hasse diagram W^p of any parabolic of sp(2n, C), searched by each
node's barred entries.

A parabolic is given by its crossed nodes (sorted, distinct).  The bars
after them cut the positions 1..n into groups; a node mu = w(rho) of
W^p is strictly descending on each group, and is fixed by its barred
entries mu_B, those of the groups before the open one (all n if node n
is crossed).  `hasse_rows` lists the nodes in Hasse order with their
arrows.  W^p is searched here alone: `parabolic.hasse_diagram` wraps the
rows, and `orbits` reads the crossed-{2} rows into its per-rank table.
So `hasse` loads `weyl`, this module and `parabolic`, and not the orbit
diagrams; the orbit commands load `weyl`, this module and `orbits`.

The search builds only tuples, lists and dicts of them, with no
reference cycle, so what it returns is freed by reference counting
alone, with the cyclic collector off.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from operator import add, getitem, itemgetter, neg
from typing import Sequence

from bgg import weyl
from bgg.weyl import Weight, shared_root


def _twice_grading(n: int, crossed: Sequence[int]) -> tuple[int, ...]:
    """2E for the crossed nodes, which is integral: 2E_m is 1 if node n is
    crossed, plus 2 for each crossed node from m to n - 1."""
    return tuple(2 * sum(m < c < n for c in crossed) + (n in crossed) for m in range(n))


@functools.lru_cache(maxsize=None)
def _signings(size: int) -> tuple[tuple[itemgetter, int], ...]:
    """Per choice of signs of a_0 > ... > a_{size-1} > 0: a getter of the
    descending run out of (a_0, ..., -a_0, ...), and the number of pairs
    of a positive a_p and a later -a_q with a_q > a_p.  For the k
    negative positions N that is sum over q in N of size - 1 - q (the
    positions after q) less the k(k - 1)/2 pairs within N."""
    out = []
    for k in range(size + 1):
        pairs = k * (k - 1) // 2
        for negative in itertools.combinations(range(size), k):
            positive = [p for p in range(size) if p not in negative]
            run = positive + [size + q for q in reversed(negative)]
            pick = itemgetter(*run) if size > 1 else itemgetter(slice(run[0], run[0] + 1))
            out.append((pick, k * (size - 1) - sum(negative) - pairs))
    return tuple(out)


def _pair(u: int, v: int) -> int:
    """The length term of entries u and v of two groups, u the earlier."""
    return (u < v) - (v > 0 and abs(u) > v) - (u > 0 and abs(v) > u)


def _place(nodes, barred, signed, shift, g, avail, prefix, key, mask, rows) -> None:
    """Append to nodes every completion of the groups g, g + 1, ... of
    barred out of the values avail left, after the entries prefix with
    partial key and mask; rows[i] is position i's key term by signed
    value, with the pair terms of the placed groups folded in.  Module
    level, so no closure refers to itself and keeps nodes alive."""
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
                cross = [sum(_pair(u, v) for u in seg) << shift for v in signed]
                later = [list(map(add, row, cross)) for row in rows[t:]]
                _place(
                    nodes, barred, signed, shift, g + 1, rest, mu, seg_key, bits, rows[:t] + later
                )


def _keyed_nodes(n: int, barred: list[tuple[int, int]]) -> tuple[list, int]:
    """Every node of W^p, unsorted, as (key, mu_B, mu, mask), and the
    shift that reads the length off a key.  mu_B is the b barred entries
    of mu (all n if node n is crossed), a descending signed run per
    group; the mask has bit |v| set for each barred v.  The key, length
    << shift | perm code << b | sign code, orders by (length, perm,
    signs) of w:

    - the length (the inversion count of mu): ascents of mu_B, plus n - v -
      #{barred |a| > v} per positive barred v, plus n - b + |v| per
      negative one; summed per entry (`single`), per pair in a run
      (`_signings`) and per pair across groups (`_pair`, folded in rows);
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

    # a row per position, read by signed value: v at index v, -v at -v
    signed = (0, *range(1, n + 1), *range(-n, 0))
    rows = [[single(i, s, v) if v else 0 for v in signed] for s, t in barred for i in range(s, t)]
    nodes = []
    key = sum((b + 1) << (b + width * r) for r in range(n))
    _place(nodes, barred, signed, shift, 0, weyl.rho(n), (), key, 0, rows)
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
