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
  positive roots alpha with <mu, alpha^vee> < 0;
- an arrow w -> s_alpha w can only come from a nilradical root alpha
  (a Levi-root reflection leads out of W^p), so the edges are found by
  reflecting each mu in the nilradical roots and looking the image up.

Nodes and edges are immutable records (NamedTuples).  E, and so every
conformal weight, is integral unless node n is crossed; fractions (and
the decimal module it loads) is imported only where a Fraction is built
or met.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
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


@functools.lru_cache(maxsize=256)
def _twice_grading(p: Parabolic) -> tuple[int, ...]:
    """2E, which is integral: 2E_n is 1 if node n is crossed, else 0, and
    2E_m = 2E_{m+1} + 2 for crossed m < n (else 2E_{m+1})."""
    e = [0] * p.n
    e[p.n - 1] = 1 if p.n in p.crossed else 0
    for m in range(p.n - 1, 0, -1):
        e[m - 1] = e[m] + (2 if m in p.crossed else 0)
    return tuple(e)


@functools.lru_cache(maxsize=256)
def grading_element(p: Parabolic) -> tuple[Scalar, ...]:
    """The element E with <alpha_i, E> = 1 for crossed i and 0 otherwise.

    Entries are integers unless node n is crossed (then they are
    half-integers, returned as Fractions).  Computed once per parabolic.
    """
    twice = _twice_grading(p)
    if p.n not in p.crossed:
        return tuple(x // 2 for x in twice)
    from fractions import Fraction

    return tuple(Fraction(x, 2) for x in twice)


@functools.lru_cache(maxsize=256)
def _grading_support(p: Parabolic) -> tuple[tuple[int, Scalar], ...]:
    """The nonzero entries (index, E_i) of E; for crossed {2} the two
    coordinates (0, 1) and (1, 1)."""
    return tuple((i, e) for i, e in enumerate(grading_element(p)) if e)


def conformal_weight(weight: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Pairing of a weight with the grading element, summed over the
    nonzero entries of E only."""
    if len(weight) != p.n:
        raise ValueError("rank mismatch")
    total = 0
    for i, e in _grading_support(p):
        total += weight[i] * e
    return _whole(total)


def _whole(x: Scalar) -> Scalar:
    """x as an int if it is a Fraction with denominator 1, else x."""
    if type(x) is int:
        return x
    from fractions import Fraction  # loaded already if x is a Fraction

    if type(x) is Fraction and x.denominator == 1:
        return int(x)
    return x


def root_grade(root: Root, p: Parabolic) -> int:
    """alpha(E), the pairing of a root with the grading element, in
    integers: <2E, alpha^vee> is 2 alpha(E) for the short roots a_ij,
    c_ij and alpha(E) for the long roots b_i."""
    doubled = weyl.pairing(_twice_grading(p), root)
    return doubled if root.kind == "b" else doubled // 2


def levi_roots(p: Parabolic) -> list[Root]:
    """Positive roots of grade 0."""
    return [r for r in weyl.positive_roots(p.n) if root_grade(r, p) == 0]


def nilradical_roots(p: Parabolic) -> list[Root]:
    """Positive roots of positive grade."""
    return [r for r in weyl.positive_roots(p.n) if root_grade(r, p) > 0]


def order_bound(source: Sequence[Scalar], target: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Conformal-weight drop along an arrow; an upper bound for the order
    of the corresponding invariant operator."""
    return _whole(conformal_weight(source, p) - conformal_weight(target, p))


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

    def node_count(self) -> int:
        return len(self.nodes)

    def to_dict(self) -> dict:
        return {
            "n": self.parabolic.n,
            "crossed": list(self.parabolic.crossed),
            "nodes": [
                {"weight": list(nd.weight), "length": nd.length, "window": list(nd.window)}
                for nd in self.nodes
            ],
            "edges": [
                {"source": e.source, "target": e.target, "root": e.root.label(), "order": e.order}
                for e in self.edges
            ],
        }


def _ldominant_rho_images(p: Parabolic):
    """All signed arrangements of rho that are strictly Levi-dominant.

    Values are chosen group by group: each barred group takes any signed
    subset of the remaining absolute values (arranged descending), and
    the open group after the last bar is forced to the remaining values
    sorted descending.
    """
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


def _sort_key(mu: Weight) -> tuple:
    """(length, perm, signs) of the w with w(rho) = mu, where w is the
    signed permutation with perm[n - |mu_i|] = i and signs_i = sign(mu_i)."""
    n = len(mu)
    perm = [0] * n
    for i, x in enumerate(mu, start=1):
        perm[n - abs(x)] = i
    return weyl.inversion_length(mu), tuple(perm), tuple(1 if x > 0 else -1 for x in mu)


def hasse_diagram(p: Parabolic) -> HasseDiagram:
    """The Hasse diagram W^p, with node weights w(rho) and arrow edges.

    Each node is its weight mu = w(rho), its length is the inversion
    count of mu, and nodes are sorted by (length, perm, signs) of w.  An
    edge i -> j is a nilradical root alpha with s_alpha(mu_i) = mu_j and
    length one more; edges are listed by (source, target) and carry the
    root and the conformal order bound.  Every call returns a fresh
    diagram.  Singular weights are handled by the orbits module.
    """
    n = p.n
    nodes = [
        HasseNode(mu, key[0])
        for key, mu in sorted((_sort_key(mu), mu) for mu in _ldominant_rho_images(p))
    ]
    index = {nd.weight: i for i, nd in enumerate(nodes)}

    # the conformal drop along s_alpha is <weight, alpha^vee> * alpha(E);
    # the nilradical roots are those of positive grade, graded once here
    grades = {}
    for r in weyl.positive_roots(n):
        grade = root_grade(r, p)
        if grade > 0:
            grades[r] = grade
    edges = []
    for i, nd in enumerate(nodes):
        targets = []
        for root in grades:
            j = index.get(weyl.reflect(nd.weight, root))
            if j is not None and nodes[j].length == nd.length + 1:
                targets.append((j, root))
        for j, root in sorted(targets):
            order = weyl.pairing(nd.weight, root) * grades[root]
            if order < 1:
                raise AssertionError(f"conformal drop {order} < 1 on a Hasse edge")
            edges.append(HasseEdge(i, j, root, order))
    return HasseDiagram(p, weyl.rho(n), nodes, edges)
