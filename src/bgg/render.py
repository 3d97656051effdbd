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
diagram's immutable node and arrow records (NamedTuples), formatting
each distinct arrow tail (kind, root, order) once per call; from_json
builds those records directly from the parsed JSON, with one Root per
distinct root.  Neither JSON direction keeps anything across calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from bgg import orbits
from bgg.orbits import OrbitArrow, OrbitDiagram, OrbitNode
from bgg.weyl import Root

_PREAMBLE = r"""% marks: \ldominant node, \trivial cross, \arrow standard map,
% \equal identity, \suppressedarrow trivially acting map, \skipped omitted run
\newcommand{\ldominant}[2]{\fill (#1,#2) circle (0.09);}
\newcommand{\trivial}[2]{\node at (#1,#2) {$\times$};}
\newcommand{\arrow}[4]{\draw[->, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\equal}[4]{\draw[double, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\suppressedarrow}[4]{\draw[->, dashed, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
\newcommand{\skipped}[4]{\draw[dotted, shorten >=3pt, shorten <=3pt] (#1,#2) -- (#3,#4);}
"""


@dataclass(frozen=True)
class RenderConfig:
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


def to_json(diagram: OrbitDiagram, indent: Optional[int] = None) -> str:
    """The diagram as JSON text, followed by a newline.

    The schema is {kind, n, k, conjectural, nodes: [{placement, weight}],
    arrows: [{source, target, kind, root: {kind, i, j} or null, order}],
    coincidences}.  The compact text (indent None) is written straight
    from the diagram's fields: int lists as their repr, every other
    scalar through json.dumps, once per distinct value, so strings are
    escaped as json escapes them (ensure_ascii).  Each arrow's text after
    its target is formatted once per distinct (kind, root, order).  With
    an indent, json re-indents the compact text, so both forms equal
    json.dumps of the schema's payload byte for byte.
    """
    import json

    dumped: dict = {}

    def val(x) -> str:
        key = (type(x), x)  # True == 1, but json writes them apart
        text = dumped.get(key)
        if text is None:
            text = dumped[key] = json.dumps(x)
        return text

    def root(r: Optional[Root]) -> str:
        if r is None:
            return "null"
        return f'{{"kind": {val(r.kind)}, "i": {val(r.i)}, "j": {val(r.j)}}}'

    nodes = ", ".join(
        [
            '{"placement": %s, "weight": %s}' % (list(placement), list(weight))
            for placement, weight in diagram.nodes
        ]
    )
    # a root is keyed by identity: a diagram's arrows share their Root
    # objects, and equal roots may differ in field types (True == 1)
    tails: dict = {}
    parts = []
    for source, target, kind, r, order in diagram.arrows:
        key = (type(kind), kind, id(r), type(order), order)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = (
                f'"kind": {val(kind)}, "root": {root(r)}, "order": {val(order)}}}'
            )
        parts.append('{"source": %s, "target": %s, %s' % (source, target, tail))
    arrows = ", ".join(parts)
    coincidences = ", ".join(str(list(c)) for c in diagram.coincidences)
    text = (
        f'{{"kind": {val(diagram.kind)}, "n": {val(diagram.n)}, "k": {val(diagram.k)}, '
        f'"conjectural": {val(diagram.conjectural)}, "nodes": [{nodes}], '
        f'"arrows": [{arrows}], "coincidences": [{coincidences}]}}'
    )
    if indent is not None:
        text = json.dumps(json.loads(text), indent=indent)
    return text + "\n"


def from_json(text: str) -> OrbitDiagram:
    import json

    data = json.loads(text)
    nodes = [
        OrbitNode(tuple(nd["placement"]), tuple(nd["weight"]))
        for nd in data["nodes"]
    ]
    # each distinct root is built once and shared by its arrows
    roots: dict[tuple, Root] = {}
    arrows = []
    for a in data["arrows"]:
        r = a["root"]
        if r:
            key = (r["kind"], r["i"], r["j"])
            r = roots.get(key)
            if r is None:
                r = roots[key] = Root(*key)
        else:
            r = None
        arrows.append(OrbitArrow(a["source"], a["target"], a["kind"], r, a["order"]))
    return OrbitDiagram(
        data["kind"],
        data["n"],
        data["k"],
        nodes,
        arrows,
        [tuple(c) for c in data["coincidences"]],
        conjectural=data["conjectural"],
    )
