"""Rendering of orbit diagrams: TikZ, Graphviz dot, and JSON.

TikZ pictures place every mark at its (m1, m2) placement.  Columns whose
absolute coordinate is listed in skip_columns are omitted; a row or
column of arrows interrupted by omitted nodes is bridged by a single
dotted \\skipped segment between its visible endpoints.  Crosses mark
the regular placements that carry no node of a singular orbit.

The TikZ and DOT marks of a placement (its TikZ coordinate, node mark
and cross, its DOT node name and node line) depend on the placement
alone.  They are formatted once per rank for all 2n(n-1) regular
placements, in one read-only table kept for the 8 ranks used last, and
looked up per node and per cross.  A placement outside its rank's table
(a hand-built diagram, or one read back with an n its placements do not
fit) is formatted by the same function that fills the table.

JSON output is schema-stable and holds the whole diagram, so
from_json(to_json(d)) == d.  to_json writes the text straight from the
diagram's immutable node and arrow records (NamedTuples).  The JSON
text of each scalar and of each arrow tail (kind, root kind, i, j,
order) is formatted once per process, keyed by value and type, in
tables bounded at 256 and 4096 values used last (_scalar_json,
_arrow_tail): a sweep over n, k and sign writes the same tails again
and again.  Node text is formatted per call.  from_json builds the
records from the parsed JSON through `orbits._node` and
`orbits._arrow`, which take a record's field tuple at C speed (a
NamedTuple's own constructor is a Python-level call per record): it
puts weyl.shared_root's Root, the one the rank tables hold, into the
parsed arrows in place, then reads every arrow's fields in one pass of
itemgetter.  It refuses a node entry, coincidence or arrow end that is
not an int, and what the writers cannot draw: a placement that is not a
pair, an arrow end that is no node's index, an unknown arrow kind.
Diagrams are fresh per call; compare roots with ==.
"""

from __future__ import annotations

import functools
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from bgg import orbits
from bgg.orbits import OrbitArrow, OrbitDiagram, _arrow, _node
from bgg.weyl import Root, shared_root

_PREAMBLE = r"""% marks: \ldominant node, \trivial cross, \arrow standard map,
% \equal identity, \suppressedarrow trivially acting map, \skipped omitted run
\newcommand{\ldominant}[2]{\fill (#1,#2) circle (0.09);}
\newcommand{\trivial}[2]{\node at (#1,#2) {$\times$};}
\newcommand{\arrow}[4]{\draw[->, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\equal}[4]{\draw[double, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\suppressedarrow}[4]{\draw[->, dashed, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\skipped}[4]{\draw[dotted, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
"""


class RenderConfig(NamedTuple):
    skip_columns: tuple[int, ...] = ()
    show_labels: bool = False
    show_suppressed: bool = False


def _visible(placement, skips) -> bool:
    return all(abs(c) not in skips for c in placement)


def _node_visibility(diagram: OrbitDiagram, skips) -> list[bool]:
    """Whether each node is drawn, indexed like diagram.nodes."""
    if not skips:
        return [True] * len(diagram.nodes)
    return [_visible(node.placement, skips) for node in diagram.nodes]


def _skipped_segments(diagram: OrbitDiagram, visible: list[bool]) -> list[tuple]:
    """Visible placement pairs joined by axis-aligned arrow paths running
    entirely through hidden nodes (interrupted rows and columns); visible
    is _node_visibility of the diagram."""
    if all(visible):
        return []
    succ: dict[int, list[int]] = {}
    for a in diagram.arrows:
        succ.setdefault(a.source, []).append(a.target)
    out = []
    for start, node in enumerate(diagram.nodes):
        if not visible[start]:
            continue
        stack = [t for t in succ.get(start, [])]
        hidden_reached = set()
        ends = set()
        while stack:
            i = stack.pop()
            if visible[i]:
                continue  # direct arrows are drawn normally
            if i in hidden_reached:
                continue
            hidden_reached.add(i)
            for j in succ.get(i, []):
                if visible[j]:
                    ends.add(j)
                else:
                    stack.append(j)
        for j in sorted(ends):
            a, b = node.placement, diagram.nodes[j].placement
            if a[0] == b[0] or a[1] == b[1]:
                out.append((a, b))
    return sorted(set(out))


class _Marks(NamedTuple):
    """The text of every mark of one placement (m1, m2)."""

    coord: str  # TikZ "{m1}{m2}", shared by the node mark and every arrow
    node: str  # TikZ node mark \ldominant{m1}{m2}
    cross: str  # TikZ cross \trivial{m1}{m2}
    name: str  # quoted DOT node name, shared by the node line and every arrow
    dot_node: str  # DOT node line


def _marks_of(placement: tuple[int, int]) -> _Marks:
    """Every mark of one placement: the one place they are formatted."""
    coord = "{%d}{%d}" % placement
    name = f'"p{placement[0]}_{placement[1]}"'.replace("-", "m")
    return _Marks(
        coord,
        r"\ldominant" + coord,
        r"\trivial" + coord,
        name,
        f'  {name} [pos="{placement[0]},{placement[1]}!"];',
    )


@functools.lru_cache(maxsize=8)
def _rank_marks(n: int) -> Mapping[tuple[int, int], _Marks]:
    """The marks of the 2n(n-1) regular placements of rank n, in the order
    of orbits._placements, built once per n (for the 8 ranks used last).
    A read-only mapping of tuples, so no caller can change it for the
    next one."""
    return MappingProxyType({pl: _marks_of(pl) for pl in orbits._placements(n)})


def _node_marks(diagram: OrbitDiagram) -> list[_Marks]:
    """Each node's marks, indexed like diagram.nodes: read off its rank's
    table, or formatted for a placement that is not in it (a hand-built
    diagram, or one read back with an n that its placements do not fit)."""
    table = _rank_marks(diagram.n) if isinstance(diagram.n, int) else {}
    return [table.get(pl) or _marks_of(pl) for pl, _ in diagram.nodes]


def to_tikz(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    visible = _node_visibility(diagram, skips)
    marks = _node_marks(diagram)
    lines = [_PREAMBLE, r"\begin{tikzpicture}[x=0.8cm,y=0.8cm]"]
    lines += [m.node for m, shown in zip(marks, visible) if shown]
    if diagram.kind == "singular-orbit":
        table = _rank_marks(diagram.n)
        lines += [
            table[pl].cross
            for pl in diagram.cross_placements()
            if not skips or _visible(pl, skips)
        ]
    coords = [m.coord for m in marks]
    for source, target, kind, root, _ in diagram.arrows:
        if skips and not (visible[source] and visible[target]):
            continue
        if kind == orbits.IDENTITY:
            lines.append(r"\equal" + coords[source] + coords[target])
        elif kind == orbits.SUPPRESSED:
            if config.show_suppressed:
                lines.append(r"\suppressedarrow" + coords[source] + coords[target])
        else:
            lines.append(r"\arrow" + coords[source] + coords[target])
            if config.show_labels and root is not None:
                s = diagram.nodes[source].placement
                t = diagram.nodes[target].placement
                mx, my = (s[0] + t[0]) / 2.0, (s[1] + t[1]) / 2.0
                lines.append(
                    r"\node[font=\tiny, above right] at (%.1f,%.1f) {$%s$};"
                    % (mx, my, _root_tex(root))
                )
    for s, t in _skipped_segments(diagram, visible):
        lines.append(r"\skipped{%d}{%d}{%d}{%d}" % (s + t))
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _root_tex(root: Root) -> str:
    """Root.label() with everything after the kind as the subscript."""
    label = root.label()
    return f"{label[0]}_{{{label[1:]}}}"


_DOT_STYLES = {
    orbits.STANDARD: "",
    orbits.IDENTITY: " [style=bold, arrowhead=none, label=\"=\"]",
    orbits.SUPPRESSED: " [style=dotted]",
}


def to_dot(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    visible = _node_visibility(diagram, skips)
    marks = _node_marks(diagram)
    lines = ["digraph orbit {", "  rankdir=LR;", "  node [shape=point];"]
    lines += [m.dot_node for m, shown in zip(marks, visible) if shown]
    names = [m.name for m in marks]
    for source, target, kind, _, _ in diagram.arrows:
        if skips and not (visible[source] and visible[target]):
            continue
        if kind == orbits.SUPPRESSED and not config.show_suppressed:
            continue
        lines.append(f"  {names[source]} -> {names[target]}{_DOT_STYLES[kind]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON


@functools.lru_cache(maxsize=256, typed=True)
def _scalar_json(x) -> str:
    """json.dumps of one scalar, once per process for the 256 values used
    last; typed, since True == 1 == 1.0 but json writes them apart.  Any
    other value is refused with ValueError, so none is ever kept: the
    key types only the value itself, and a tuple would share the text
    of an equal tuple of other element types."""
    import json

    if x is not None and not isinstance(x, (str, int, float)):
        raise ValueError(f"not a JSON scalar: {x!r}")
    return json.dumps(x)


@functools.lru_cache(maxsize=4096, typed=True)
def _arrow_tail(kind, order, *root) -> str:
    """An arrow's JSON text after its target, once per process for the
    4096 tails used last.  root is the (kind, i, j) of its Root, or empty
    for a null root; keyed by value and type, like _scalar_json, which
    refuses any field that is not a scalar before a tail is kept."""
    if root:
        rkind, i, j = map(_scalar_json, root)
        text = f'{{"kind": {rkind}, "i": {i}, "j": {j}}}'
    else:
        text = "null"
    return f'"kind": {_scalar_json(kind)}, "root": {text}, "order": {_scalar_json(order)}}}'


def to_json(diagram: OrbitDiagram, indent: Optional[int] = None) -> str:
    """The diagram as JSON text, followed by a newline.

    The schema is {kind, n, k, conjectural, nodes: [{placement, weight}],
    arrows: [{source, target, kind, root: {kind, i, j} or null, order}],
    coincidences}.  The compact text (indent None) is written straight
    from the diagram's fields: int lists as their repr, every other
    scalar through json.dumps (_scalar_json), so strings are escaped as
    json escapes them (ensure_ascii).  Each arrow's text after its target
    is read off _arrow_tail by (kind, order, root kind, i, j).  With an
    indent, json re-indents the compact text, so both forms equal
    json.dumps of the schema's payload byte for byte.  A field that is
    not a scalar (str, int, float, bool or None), a tuple or list order
    say, is refused with ValueError.  Node entries, coincidences and
    arrow ends must be ints, as `bgg.orbits` and from_json give them:
    they are written as their repr, unchecked.
    """
    nodes = ", ".join(
        [
            '{"placement": %s, "weight": %s}' % (list(placement), list(weight))
            for placement, weight in diagram.nodes
        ]
    )
    coincidences = ", ".join(str(list(c)) for c in diagram.coincidences)
    val = _scalar_json
    try:
        arrows = ", ".join(
            [
                '{"source": %s, "target": %s, %s'
                % (
                    source,
                    target,
                    _arrow_tail(kind, order)
                    if r is None
                    else _arrow_tail(kind, order, r.kind, r.i, r.j),
                )
                for source, target, kind, r, order in diagram.arrows
            ]
        )
        text = (
            f'{{"kind": {val(diagram.kind)}, "n": {val(diagram.n)}, "k": {val(diagram.k)}, '
            f'"conjectural": {val(diagram.conjectural)}, "nodes": [{nodes}], '
            f'"arrows": [{arrows}], "coincidences": [{coincidences}]}}'
        )
    except TypeError:
        # An unhashable field, a list say, fails a table's key before
        # _scalar_json sees it: refuse the first non-scalar as it would.
        fields = [diagram.kind, diagram.n, diagram.k, diagram.conjectural]
        for _, _, kind, r, order in diagram.arrows:
            fields += (kind, order) if r is None else (kind, order, r.kind, r.i, r.j)
        for x in fields:
            _scalar_json.__wrapped__(x)
        raise
    if indent is not None:
        import json

        text = json.dumps(json.loads(text), indent=indent)
    return text + "\n"


# a parsed arrow's field tuple, in OrbitArrow's field order, and a parsed
# root's (kind, i, j)
_ARROW_FIELDS = itemgetter(*OrbitArrow._fields)
_ROOT_FIELDS = itemgetter("kind", "i", "j")


def from_json(text: str) -> OrbitDiagram:
    """The diagram to_json wrote.  A node entry, coincidence or arrow end
    that is not an int (JSON true, 1.5, a string) is refused with
    ValueError naming its field, after a pass of type over the field, and
    so is what to_tikz and to_dot cannot draw: a placement that is not a
    pair, an arrow end that is no node's index, an unknown arrow kind."""
    import json

    data = json.loads(text)
    nodes = [_node((tuple(nd["placement"]), tuple(nd["weight"]))) for nd in data["nodes"]]
    coincidences = [tuple(c) for c in data["coincidences"]]
    # each root is weyl.shared_root's: it takes the place of the root's
    # dict in the parsed arrow
    arrows = data["arrows"]
    for a in arrows:
        r = a["root"]
        a["root"] = shared_root(*_ROOT_FIELDS(r)) if r else None
    arrows = list(map(_arrow, map(_ARROW_FIELDS, arrows)))
    entries = chain.from_iterable(chain.from_iterable(nodes))
    ends = [*map(itemgetter(0), arrows), *map(itemgetter(1), arrows)]
    kinds = map(itemgetter(2), arrows)
    for message, values, allowed in (
        ("node entries must be ints", map(type, entries), {int}),
        ("coincidences must be ints", map(type, chain.from_iterable(coincidences)), {int}),
        ("arrow ends must be ints", map(type, ends), {int}),
        ("node placements must be pairs", map(len, map(itemgetter(0), nodes)), {2}),
        ("arrow ends must be node indices", ends, range(len(nodes))),
        ("arrow kinds must be standard, identity or suppressed", kinds, _DOT_STYLES),
    ):
        try:
            ok = set(values).issubset(allowed)
        except TypeError:  # an unhashable kind: a JSON list or object
            ok = False
        if not ok:
            raise ValueError(message)
    kind, n, k = data["kind"], data["n"], data["k"]
    return OrbitDiagram(kind, n, k, nodes, arrows, coincidences, data["conjectural"])
