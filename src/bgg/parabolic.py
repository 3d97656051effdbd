"""Parabolic subalgebras of sp(2n,C) by crossed Dynkin nodes, and their
Hasse diagrams.

A parabolic is recorded by the set of crossed nodes.  Its grading
element E is 1 on the crossed simple roots and 0 on the others, and a
root's grade is alpha(E): a positive root lies in the Levi factor if its
grade is 0 and in the nilradical if it is positive.  The Hasse diagram
W^p consists of the Weyl group elements w for which mu = w(rho) is
strictly dominant for the Levi factor, and mu determines w.  So a node
is its weight mu:

- nodes are enumerated directly from the admissible images of rho,
  group by group between the bars;
- the length of a node is the inversion count of mu, the number of
  positive roots alpha with <mu, alpha^vee> < 0, counted by bisection
  in O(n log n); nodes are sorted by (length, perm, signs) of w;
- an arrow w -> s_alpha w can only come from a nilradical root alpha
  (a Levi-root reflection leads out of W^p) with <mu, alpha^vee> > 0.
  Each group of mu descends, so s_alpha mu stays Levi-dominant for at
  most one j per group for a_ij and for c_ij, found by bisection; cover
  tests on mu drop most of the other pairs, and only the pairs left are
  reflected and looked up (see `hasse_diagram`).

Nodes and edges are immutable records (NamedTuples); `to_text` and
`to_json` write a diagram's listing and its JSON straight from them,
without the json module.  E, and so every conformal weight, is integral
unless node n is crossed; fractions (and the decimal module it loads)
is imported only where a Fraction is built or met.

Only the `hasse` command imports this module.  `orbits` builds the
crossed-{2} diagram from its placements with `weyl` arithmetic, and
`penrose` and `verma` read the crossed-{2} grading E = (1, 1, 0, ..., 0)
off `weyl` alone; the tests compare `orbits` with `hasse_diagram`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import mul, neg
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from bgg import weyl
from bgg.weyl import Root, Weight

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


@dataclass(frozen=True)
class Parabolic:
    n: int
    crossed: tuple[int, ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("rank must be at least 2")
        cs = tuple(sorted(set(self.crossed)))
        if not cs:
            raise ValueError("at least one crossed node is required")
        if cs[0] < 1 or cs[-1] > self.n:
            raise ValueError("crossed nodes out of range")
        object.__setattr__(self, "crossed", cs)


def parabolic(n: int, crossed: Sequence[int]) -> Parabolic:
    return Parabolic(n, tuple(crossed))


def _twice_grading(p: Parabolic) -> tuple[int, ...]:
    """2E, which is integral: 2E_n is 1 if node n is crossed, else 0, and
    2E_m = 2E_{m+1} + 2 for crossed m < n (else 2E_{m+1})."""
    e = [0] * p.n
    e[p.n - 1] = 1 if p.n in p.crossed else 0
    for m in range(p.n - 1, 0, -1):
        e[m - 1] = e[m] + (2 if m in p.crossed else 0)
    return tuple(e)


def grading_element(p: Parabolic) -> tuple[Scalar, ...]:
    """The element E with <alpha_i, E> = 1 for crossed i and 0 otherwise.

    Entries are integers unless node n is crossed (then they are
    half-integers, returned as Fractions)."""
    twice = _twice_grading(p)
    if p.n not in p.crossed:
        return tuple(x // 2 for x in twice)
    from fractions import Fraction

    return tuple(Fraction(x, 2) for x in twice)


def _half(x: Scalar) -> Scalar:
    """x / 2: an int if it is whole, else a Fraction."""
    if type(x) is int and not x % 2:
        return x // 2
    from fractions import Fraction

    half = Fraction(x, 2)
    return half.numerator if half.denominator == 1 else half


def _twice_pairing(weight: Sequence[Scalar], p: Parabolic) -> Scalar:
    """The pairing of a weight with 2E."""
    if len(weight) != p.n:
        raise ValueError("rank mismatch")
    return sum(map(mul, weight, _twice_grading(p)))


def conformal_weight(weight: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Pairing of a weight with the grading element, read off 2E and
    halved once."""
    return _half(_twice_pairing(weight, p))


def root_grade(root: Root, p: Parabolic) -> int:
    """alpha(E), the pairing of a root with the grading element, in
    integers: <2E, alpha^vee> is 2 alpha(E) for the short roots a_ij,
    c_ij and alpha(E) for the long roots b_i."""
    doubled = weyl.pairing(_twice_grading(p), root)
    return doubled if root.kind == "b" else doubled // 2


def order_bound(source: Sequence[Scalar], target: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Conformal-weight drop along an arrow; an upper bound for the order
    of the corresponding invariant operator."""
    return _half(_twice_pairing(source, p) - _twice_pairing(target, p))


# ---------------------------------------------------------------------------
# Hasse diagram


class HasseNode(NamedTuple):
    """The element w of W^p, named by its weight mu = w(rho)."""

    weight: Weight
    length: int

    @property
    def window(self) -> Weight:
        """w in window notation, its image of (1, ..., n):
        window_i = sign(mu_i) * (n + 1 - |mu_i|)."""
        return weyl.act_from_image(self.weight, range(1, len(self.weight) + 1))


class HasseEdge(NamedTuple):
    """An arrow source -> target of W^p, by the nilradical root alpha with
    s_alpha(mu_source) = mu_target, and its conformal order bound."""

    source: int
    target: int
    root: Root
    order: int


@dataclass
class HasseDiagram:
    """W^p with its arrows; base is always rho, of which the node weights
    are the images."""

    parabolic: Parabolic
    base: Weight
    nodes: list[HasseNode]
    edges: list[HasseEdge] = field(default_factory=list)

    def _rows(self):
        """(weight, length, window) per node and (source, target, root
        label, order) per edge, each label made once per Root object.  The
        memo is keyed by id, not by the dataclass's Python-level hash; the
        edges keep their roots alive for the call."""
        nodes = [(nd.weight, nd.length, nd.window) for nd in self.nodes]
        labels: dict = {}
        edges = []
        for source, target, root, order in self.edges:
            label = labels.get(id(root))
            if label is None:
                label = labels[id(root)] = root.label()
            edges.append((source, target, label, order))
        return nodes, edges

    def to_text(self) -> str:
        """The `bgg hasse` listing, followed by a newline: a header, a line
        per node with its index, weight, length and window, then a line
        per edge.  Weights and windows are int tuples of length n >= 2,
        so they print as (a, b, ...)."""
        p = self.parabolic
        nodes, edges = self._rows()
        lines = [
            f"Hasse diagram: n={p.n} crossed={tuple(p.crossed)} "
            f"nodes={len(nodes)} edges={len(edges)}"
        ]
        lines += [
            "  %3d: weight=%s length=%s window=%s" % (i, mu, length, window)
            for i, (mu, length, window) in enumerate(nodes)
        ]
        lines.append("edges:")
        lines += ["  %3d -> %3d  root=%s order=%s" % edge for edge in edges]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The diagram as JSON, followed by a newline: the text of
        json.dumps({n, crossed, nodes: [{weight, length, window}], edges:
        [{source, target, root, order}]}, indent=1), with each root as its
        label, written straight from the records.  Every value is an int
        or a root label, which needs no escaping, and weights are never
        empty."""
        p = self.parabolic
        nodes, edges = self._rows()
        ints = ",\n    ".join
        node_items = [
            '{\n   "weight": [\n    %s\n   ],\n   "length": %s,\n   "window": [\n    %s\n   ]\n  }'
            % (ints(map(str, mu)), length, ints(map(str, window)))
            for mu, length, window in nodes
        ]
        edge_items = [
            '{\n   "source": %s,\n   "target": %s,\n   "root": "%s",\n   "order": %s\n  }'
            % edge
            for edge in edges
        ]
        return '{\n "n": %s,\n "crossed": %s,\n "nodes": %s,\n "edges": %s\n}\n' % (
            p.n,
            _json_list(list(map(str, p.crossed))),
            _json_list(node_items),
            _json_list(edge_items),
        )


def _json_list(items: list[str]) -> str:
    """A list of JSON values written out, as a value of a top-level key
    of json.dumps(..., indent=1)."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"


def _ldominant_rho_images(p: Parabolic):
    """All signed arrangements of rho that are strictly Levi-dominant.

    Values are chosen group by group: each barred group takes any signed
    subset of the remaining absolute values (arranged descending), and
    the open group after the last bar is forced to the remaining values
    sorted descending.  The arrangements of a subset are made once per
    call.
    """
    n = p.n
    groups = weyl._groups(n, p.crossed)
    trailing = p.crossed[-1] == n
    sizes = [t - s for s, t in (groups if trailing else groups[:-1])]
    runs: dict[tuple[int, ...], list[Weight]] = {}

    def arranged(subset):
        if subset not in runs:
            runs[subset] = [
                tuple(sorted((s * v for s, v in zip(signs, subset)), reverse=True))
                for signs in itertools.product((1, -1), repeat=len(subset))
            ]
        return runs[subset]

    def rec(gi, available, prefix):
        last = gi + 1 == len(sizes)
        for subset in itertools.combinations(available, sizes[gi]):
            rest = tuple([v for v in available if v not in subset])
            if last:
                tail = () if trailing else rest[::-1]
                for seg in arranged(subset):
                    yield prefix + seg + tail
            else:
                for seg in arranged(subset):
                    yield from rec(gi + 1, rest, prefix + seg)

    yield from rec(0, tuple(range(1, n + 1)), ())


def _sort_key(mu: Weight) -> tuple:
    """(length, perm, signs) of the w with w(rho) = mu, where w is the
    signed permutation with perm[n - |mu_i|] = i and signs_i = sign(mu_i)."""
    n = len(mu)
    perm = [0] * n
    for i, x in enumerate(mu, start=1):
        perm[n - abs(x)] = i
    return weyl.inversion_length(mu), tuple(perm), tuple([1 if x > 0 else -1 for x in mu])


def _probes(p: Parabolic) -> tuple[list, list]:
    """The nilradical roots of p, arranged for the edge search.

    A weight is padded with a sentinel at index n, below every entry.
    The right neighbour of a position is the next one of its Levi group,
    else index n.  Returns

    - slots (i, right of i, start, stop, mid, a-roots, a-grade, c-roots,
      c-grade, open): one for each position i and each later group
      [start, stop), and one for the rest of i's own group unless that
      is open (c-roots only).  a_ij and c_ij keep Levi dominance there
      for one j each at most.  The roots are listed by j - start, and
      mid holds the positions of the groups strictly between;
    - b-probes (i, right of i, root, grade).

    Grades are read off 2E, which is constant on each group.
    """
    n = p.n
    groups = weyl._groups(n, p.crossed)
    twice = _twice_grading(p)
    opened = p.crossed[-1] != n
    right = [n] * n
    for s, t in groups:
        right[s : t - 1] = range(s + 1, t)

    def roots(kind, i, s, t):
        return tuple(Root(kind, i + 1, j + 1) for j in range(s, t))

    slots, b = [], []
    for own, (start, end) in enumerate(groups):
        for i in range(start, end):
            if not twice[i]:  # the open group: b_i, c_ij are Levi roots
                continue
            b.append((i, right[i], Root("b", i + 1), twice[i]))
            if i + 1 < end:
                c_roots = roots("c", i, i + 1, end)
                slots.append((i, right[i], i + 1, end, None, (), 0, c_roots, twice[i], False))
        for g in range(own + 1, len(groups)):
            s, t = groups[g]
            for i in range(start, end):
                slots.append((
                    i, right[i], s, t, range(end, s),
                    roots("a", i, s, t), (twice[i] - twice[s]) // 2,
                    roots("c", i, s, t), (twice[i] + twice[s]) // 2,
                    opened and g == len(groups) - 1,
                ))
    return slots, b


def hasse_diagram(p: Parabolic) -> HasseDiagram:
    """The Hasse diagram W^p, with node weights w(rho) and arrow edges.

    Each node is its weight mu = w(rho), its length is the inversion
    count of mu, and nodes are sorted by (length, perm, signs) of w.  An
    edge i -> j is a nilradical root alpha with s_alpha(mu_i) = mu_j and
    length one more; edges are listed by (source, target) and carry the
    root and the conformal order bound.  Every call returns a fresh
    diagram.  Singular weights are handled by the orbits module.

    A (node, root) pair is reflected and looked up only if

    - <mu, alpha^vee> > 0 (else s_alpha mu is shorter);
    - s_alpha mu keeps Levi dominance at the two positions it changes
      (else it is no node).  Each group of mu descends, so this leaves
      at most one j per group for a_ij and for c_ij, found by bisection;
    - no cover test fails, each of which makes s_alpha mu at least three
      longer: for a_ij a value between mu_j and mu_i sits between
      positions i and j; for b_i some |mu_p| < mu_i lies right of i; for
      c_ij mu_i and mu_j are both positive.
    """
    n = p.n
    nodes = [
        HasseNode(mu, key[0])
        for key, mu in sorted((_sort_key(mu), mu) for mu in _ldominant_rho_images(p))
    ]
    index = {nd.weight: i for i, nd in enumerate(nodes)}
    slots, b_probes = _probes(p)
    pad = (-n - 1,)

    edges = []
    for source, (mu, length) in enumerate(nodes):
        ext = mu + pad
        found = []  # (reflected weight, root, <mu, alpha^vee> * alpha(E))
        for i, ri, s, t, mid, a_roots, a_grade, c_roots, c_grade, opened in slots:
            x = mu[i]
            # a_ij: j is the first position of the range with mu_j < x
            if a_roots:
                j = bisect_left(mu, -x, s, t, key=neg)
                if j < t:
                    y = mu[j]
                    if y > ext[ri] and not (mid and any(y < mu[k] < x for k in mid)):
                        v = list(mu)
                        v[i], v[j] = y, x
                        found.append((v, a_roots[j - s], (x - y) * a_grade))
            # c_ij: j is the last position of the range with mu_j > -x, and
            # exactly one of mu_i, mu_j is negative; -x moves into the
            # range, so it must be positive if the range is an open group
            if x > 0 and opened:
                continue
            j = bisect_left(mu, x, s, t, key=neg) - 1
            if j >= s:
                y = mu[j]
                if -y > ext[ri] and (x < 0 or y < 0):
                    v = list(mu)
                    v[i], v[j] = -y, -x
                    found.append((v, c_roots[j - s], (x + y) * c_grade))
        # b_i: the x - 1 values |mu_p| < x must all lie left of i
        for i, ri, root, grade in b_probes:
            x = mu[i]
            if 0 < x <= i + 1 and -x > ext[ri]:
                if sum(1 for w in mu[:i] if -x < w < x) < x - 1:
                    continue
                v = list(mu)
                v[i] = -x
                found.append((v, root, x * grade))
        targets = []
        for v, root, order in found:
            target = index.get(tuple(v))
            if target is not None and nodes[target].length == length + 1:
                if order < 1:
                    raise AssertionError(f"conformal drop {order} < 1 on a Hasse edge")
                targets.append((target, root, order))
        targets.sort()
        for target, root, order in targets:
            edges.append(HasseEdge(source, target, root, order))
    return HasseDiagram(p, weyl.rho(n), nodes, edges)
