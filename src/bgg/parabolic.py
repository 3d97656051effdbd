"""Parabolic subalgebras of sp(2n,C) by crossed Dynkin nodes, and their
Hasse diagrams.

A parabolic is recorded by the set of crossed nodes.  Its grading
element E is 1 on the crossed simple roots and 0 on the others, and a
root's grade is alpha(E): a positive root lies in the Levi factor if its
grade is 0 and in the nilradical if it is positive.  The Hasse diagram
W^p consists of the Weyl group elements w for which mu = w(rho) is
strictly dominant for the Levi factor, and mu determines w.  W^p is
searched in `cosets.hasse_rows`, by each node's barred entries, with
the integer 2E of `cosets._twice_grading`; this module keeps the
diagram's records and writers, and `order_bound`.  E, conformal weights
and root grades are test oracles (tests/parabolic_oracle.py).

The diagram, its nodes and its edges are immutable records
(NamedTuples), the nodes and edges built from field tuples at C speed.
A Parabolic stays a dataclass, since it validates its crossed nodes.
The diagram's own `to_text` and `to_json` write it in one pass each,
without the json module, reading every window off a table of the rank
and making each root's label once.  E, and so an order bound, is
integral unless node n is crossed; fractions (and the decimal module it
loads) is imported only where a Fraction is built or met.  Only the
`hasse` command imports this module, and with it `weyl` and `cosets`,
not the orbit diagrams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from bgg import cosets, weyl
from bgg.weyl import Root, Weight

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


@dataclass(frozen=True)
class Parabolic:
    """The parabolic of sp(2n, C) with the Dynkin nodes `crossed` crossed,
    kept sorted and without repeats.  A rank below 2, no crossed node or
    a node outside 1..n is refused with ValueError."""

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
    return sum(map(mul, weight, cosets._twice_grading(p.n, p.crossed)))


def order_bound(source: Sequence[Scalar], target: Sequence[Scalar], p: Parabolic) -> Scalar:
    """Conformal-weight drop along an arrow; an upper bound for the order
    of the corresponding invariant operator.  No command calls it; it
    stays because perfbench/tracing.py wraps it by name."""
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


# a record from its field tuple, all fields given, with no Python-level call
_node = functools.partial(tuple.__new__, HasseNode)
_edge = functools.partial(tuple.__new__, HasseEdge)


class HasseDiagram(NamedTuple):
    """W^p with its arrows; base is always rho, of which the node weights
    are the images."""

    parabolic: Parabolic
    base: Weight
    nodes: list[HasseNode]
    edges: list[HasseEdge]

    def _labels(self) -> dict[int, str]:
        """Each edge root's label, made once per Root object.  The memo is
        keyed by id, not by the Root dataclass's Python-level hash; the
        edges keep their roots alive for the call."""
        roots = {id(root): root for _, _, root, _ in self.edges}
        return {key: root.label() for key, root in roots.items()}

    def to_text(self) -> str:
        """The `bgg hasse` listing, followed by a newline: a header, a line
        per node with its index, weight, length and window, then a line
        per edge.  Weights and windows are int tuples of length n >= 2,
        so they print as (a, b, ...), here joined from the value texts."""
        p = self.parabolic
        text, window = _value_texts(p.n)
        labels = self._labels()
        entries = ", ".join
        lines = [
            f"Hasse diagram: n={p.n} crossed={tuple(p.crossed)} "
            f"nodes={len(self.nodes)} edges={len(self.edges)}"
        ]
        lines += [
            "  %3d: weight=(%s) length=%s window=(%s)"
            % (i, entries(map(text, mu)), length, entries(map(window, mu)))
            for i, (mu, length) in enumerate(self.nodes)
        ]
        lines.append("edges:")
        lines += [
            "  %3d -> %3d  root=%s order=%s" % (source, target, labels[id(root)], order)
            for source, target, root, order in self.edges
        ]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The diagram as JSON, followed by a newline: the text of
        json.dumps({n, crossed, nodes: [{weight, length, window}], edges:
        [{source, target, root, order}]}, indent=1), with each root as its
        label, written straight from the records.  Every value is an int
        or a root label, which needs no escaping, and weights are never
        empty."""
        p = self.parabolic
        text, window = _value_texts(p.n)
        labels = self._labels()
        ints = ",\n    ".join
        node_items = [
            '{\n   "weight": [\n    %s\n   ],\n   "length": %s,\n   "window": [\n    %s\n   ]\n  }'
            % (ints(map(text, mu)), length, ints(map(window, mu)))
            for mu, length in self.nodes
        ]
        edge_items = [
            '{\n   "source": %s,\n   "target": %s,\n   "root": "%s",\n   "order": %s\n  }'
            % (source, target, labels[id(root)], order)
            for source, target, root, order in self.edges
        ]
        return '{\n "n": %s,\n "crossed": %s,\n "nodes": %s,\n "edges": %s\n}\n' % (
            p.n,
            _json_list(list(map(str, p.crossed))),
            _json_list(node_items),
            _json_list(edge_items),
        )


def _value_texts(n: int) -> tuple:
    """Getters of the text of each signed value v of rank n, and of its
    window entry sign(v) * (n + 1 - |v|), both by v: v at index v, -v at
    index -v.  So a node's window_i is the second getter at mu_i, as
    `HasseNode.window` computes it."""
    values = [*range(n + 1), *range(-n, 0)]
    windows = [0, *range(n, 0, -1), *range(-1, -n - 1, -1)]
    return list(map(str, values)).__getitem__, list(map(str, windows)).__getitem__


def _json_list(items: list[str]) -> str:
    """A list of JSON values written out, as a value of a top-level key
    of json.dumps(..., indent=1)."""
    return "[\n  " + ",\n  ".join(items) + "\n ]" if items else "[]"


def hasse_diagram(p: Parabolic) -> HasseDiagram:
    """The Hasse diagram W^p, fresh per call, read off `cosets.hasse_rows`:
    nodes mu = w(rho) with their lengths, sorted by (length, perm, signs)
    of w, and edges i -> j by (source, target), each a nilradical root
    with s_alpha(mu_i) = mu_j and its conformal order bound."""
    rows = cosets.hasse_rows(p.n, p.crossed)
    nodes = [_node((mu, length)) for _, mu, length, _ in rows]
    edges = [
        _edge((source, target, root, order))
        for source, row in enumerate(rows)
        for target, root, order, _ in row[3]
    ]
    return HasseDiagram(p, weyl.rho(p.n), nodes, edges)
