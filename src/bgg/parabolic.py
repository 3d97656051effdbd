"""Parabolic subalgebras of sp(2n,C) by crossed Dynkin nodes, and their
Hasse diagrams.

A parabolic is recorded by the set of crossed nodes.  A positive root
lies in the nilradical iff its expansion has a nonzero coefficient on
some crossed simple root.  The Hasse diagram W^p consists of the Weyl
elements w for which mu = w(rho) is strictly dominant for the Levi
factor, and mu determines w.  So the diagram is keyed by mu:

- nodes are enumerated directly from the admissible images of rho,
  group by group between the bars;
- the length of a node is the inversion count of mu, the number of
  positive roots alpha with <mu, alpha^vee> < 0;
- an arrow w -> s_alpha w can only come from a nilradical root alpha
  (a Levi-root reflection leads out of W^p), so the edges are found by
  reflecting each mu in the nilradical roots and looking the image up.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from bgg import weyl
from bgg.weyl import Root, Weight, WeylElement

Scalar = Union[int, Fraction]


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


def levi_roots(p: Parabolic) -> list[Root]:
    """Positive roots whose crossed-node coefficients all vanish."""
    return [
        r
        for r in weyl.positive_roots(p.n)
        if all(weyl.simple_coefficient(r, m, p.n) == 0 for m in p.crossed)
    ]


def nilradical_roots(p: Parabolic) -> list[Root]:
    """Positive roots with a nonzero coefficient on some crossed node."""
    return [
        r
        for r in weyl.positive_roots(p.n)
        if any(weyl.simple_coefficient(r, m, p.n) != 0 for m in p.crossed)
    ]


@functools.lru_cache(maxsize=256)
def grading_element(p: Parabolic) -> tuple[Scalar, ...]:
    """The element E with <alpha_i, E> = 1 for crossed i and 0 otherwise.

    Entries are integers unless node n is crossed (then they are
    half-integers, returned as Fractions).  Computed once per parabolic.
    """
    e = [Fraction(0)] * p.n
    e[p.n - 1] = Fraction(1, 2) if p.n in p.crossed else Fraction(0)
    for m in range(p.n - 1, 0, -1):
        e[m - 1] = e[m] + (1 if m in p.crossed else 0)
    return tuple(int(x) if x.denominator == 1 else x for x in e)


def conformal_weight(weight: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Pairing of a weight with the grading element."""
    if len(weight) != p.n:
        raise ValueError("rank mismatch")
    total = sum(w * e for w, e in zip(weight, grading_element(p)))
    if isinstance(total, Fraction) and total.denominator == 1:
        return int(total)
    return total


def order_bound(source: Sequence[Scalar], target: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Conformal-weight drop along an arrow; an upper bound for the order
    of the corresponding invariant operator."""
    drop = conformal_weight(source, p) - conformal_weight(target, p)
    if isinstance(drop, Fraction) and drop.denominator == 1:
        return int(drop)
    return drop


# ---------------------------------------------------------------------------
# Hasse diagram


@dataclass(frozen=True)
class HasseNode:
    element: WeylElement
    weight: Weight
    length: int

    @property
    def window(self) -> Weight:
        """The element in window notation: its image of (1, ..., n)."""
        return weyl.standard_action(self.element, tuple(range(1, self.element.n + 1)))


@dataclass(frozen=True)
class HasseEdge:
    source: int
    target: int
    root: Root
    order: int


@dataclass
class HasseDiagram:
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


def hasse_diagram(p: Parabolic, base: Optional[Weight] = None) -> HasseDiagram:
    """The Hasse diagram W^p, with node weights w(base) and arrow edges.

    base defaults to rho and must be g-dominant and regular (for singular
    bases use the orbit-diagram constructions instead).  Each node is
    found from mu = w(rho), its length is the inversion count of mu, and
    nodes are sorted by (length, perm, signs).  An edge i -> j is a
    nilradical root alpha with s_alpha(mu_i) = mu_j and length one more;
    edges are listed by (source, target) and carry the root and the
    conformal order bound.  Every call returns a fresh diagram.
    """
    n = p.n
    if base is None:
        base = weyl.rho(n)
    if len(base) != n:
        raise ValueError("rank mismatch between parabolic and base weight")
    if weyl.classify(base) != weyl.REGULAR or not weyl.is_dominant(base):
        raise ValueError(
            "base must be g-dominant and regular; singular orbits are built "
            "by the orbits module"
        )

    # (length, w, mu) sorts as (length, perm, signs): the w are distinct
    ranked = sorted(
        (weyl.inversion_length(mu), weyl.from_regular_image(mu), mu)
        for mu in _ldominant_rho_images(p)
    )
    nodes = [HasseNode(w, weyl.standard_action(w, base), ell) for ell, w, _ in ranked]
    index = {mu: i for i, (_, _, mu) in enumerate(ranked)}

    # the conformal drop along s_alpha is <weight, alpha^vee> * alpha(E),
    # and alpha(E) is alpha's coefficient sum on the crossed nodes
    grades = {
        r: sum(weyl.simple_coefficient(r, m, n) for m in p.crossed)
        for r in nilradical_roots(p)
    }
    edges = []
    for i, (ell, _, mu) in enumerate(ranked):
        targets = []
        for root in grades:
            j = index.get(weyl.reflect(mu, root))
            if j is not None and ranked[j][0] == ell + 1:
                targets.append((j, root))
        for j, root in sorted(targets):
            order = weyl.pairing(nodes[i].weight, root) * grades[root]
            if order < 1:
                raise AssertionError(f"conformal drop {order} < 1 on a Hasse edge")
            edges.append(HasseEdge(i, j, root, order))
    return HasseDiagram(p, tuple(base), nodes, edges)
