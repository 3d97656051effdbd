"""Rendering of orbit diagrams: TikZ, Graphviz dot, and JSON.

TikZ pictures place every mark at its (m1, m2) placement.  Columns whose
absolute coordinate is listed in skip_columns are omitted; a row or
column of arrows interrupted by omitted nodes is bridged by a single
dotted \\skipped segment between its visible endpoints.  Crosses mark
the regular placements that carry no node of a singular orbit.

JSON output is schema-stable and holds the whole diagram, so
from_json(to_json(d)) == d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def to_tikz(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    visible = _node_visibility(diagram, skips)
    lines = [_PREAMBLE, r"\begin{tikzpicture}[x=0.8cm,y=0.8cm]"]
    for node, shown in zip(diagram.nodes, visible):
        if shown:
            lines.append(r"\ldominant{%d}{%d}" % node.placement)
    if diagram.kind == "singular-orbit":
        for pl in diagram.cross_placements():
            if _visible(pl, skips):
                lines.append(r"\trivial{%d}{%d}" % pl)
    for a in diagram.arrows:
        if not (visible[a.source] and visible[a.target]):
            continue
        s = diagram.nodes[a.source].placement
        t = diagram.nodes[a.target].placement
        quad = s + t
        if a.kind == orbits.IDENTITY:
            lines.append(r"\equal{%d}{%d}{%d}{%d}" % quad)
        elif a.kind == orbits.SUPPRESSED:
            if config.show_suppressed:
                lines.append(r"\suppressedarrow{%d}{%d}{%d}{%d}" % quad)
        else:
            lines.append(r"\arrow{%d}{%d}{%d}{%d}" % quad)
            if config.show_labels and a.root is not None:
                mx, my = (s[0] + t[0]) / 2.0, (s[1] + t[1]) / 2.0
                lines.append(
                    r"\node[font=\tiny, above right] at (%.1f,%.1f) {$%s$};"
                    % (mx, my, _root_tex(a.root))
                )
    for s, t in _skipped_segments(diagram, visible):
        lines.append(r"\skipped{%d}{%d}{%d}{%d}" % (s + t))
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def _root_tex(root: Root) -> str:
    """Root.label() with everything after the kind as the subscript."""
    label = root.label()
    return f"{label[0]}_{{{label[1:]}}}"


def to_dot(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    lines = ["digraph orbit {", "  rankdir=LR;", "  node [shape=point];"]

    def name(pl):
        return f'"p{pl[0]}_{pl[1]}"'.replace("-", "m")

    visible = _node_visibility(diagram, skips)
    for node, shown in zip(diagram.nodes, visible):
        if shown:
            lines.append(
                f"  {name(node.placement)} [pos=\"{node.placement[0]},{node.placement[1]}!\"];"
            )
    styles = {
        orbits.STANDARD: "",
        orbits.IDENTITY: " [style=bold, arrowhead=none, label=\"=\"]",
        orbits.SUPPRESSED: " [style=dotted]",
    }
    for a in diagram.arrows:
        if not (visible[a.source] and visible[a.target]):
            continue
        if a.kind == orbits.SUPPRESSED and not config.show_suppressed:
            continue
        s = diagram.nodes[a.source].placement
        t = diagram.nodes[a.target].placement
        lines.append(f"  {name(s)} -> {name(t)}{styles[a.kind]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON


def _root_obj(root: Optional[Root]):
    if root is None:
        return None
    return {"kind": root.kind, "i": root.i, "j": root.j}


def to_json(diagram: OrbitDiagram, indent: Optional[int] = None) -> str:
    import json

    payload = {
        "kind": diagram.kind,
        "n": diagram.n,
        "k": diagram.k,
        "conjectural": diagram.conjectural,
        "nodes": [
            {"placement": list(nd.placement), "weight": list(nd.weight)}
            for nd in diagram.nodes
        ],
        "arrows": [
            {
                "source": a.source,
                "target": a.target,
                "kind": a.kind,
                "root": _root_obj(a.root),
                "order": a.order,
            }
            for a in diagram.arrows
        ],
        "coincidences": [list(c) for c in diagram.coincidences],
    }
    return json.dumps(payload, indent=indent) + "\n"


def from_json(text: str) -> OrbitDiagram:
    import json

    data = json.loads(text)
    nodes = [
        OrbitNode(tuple(nd["placement"]), tuple(nd["weight"]))
        for nd in data["nodes"]
    ]
    roots: dict[tuple, Root] = {}  # each distinct root is built once

    def root_of(obj) -> Optional[Root]:
        if not obj:
            return None
        key = (obj["kind"], obj["i"], obj["j"])
        if key not in roots:
            roots[key] = Root(*key)
        return roots[key]

    arrows = [
        OrbitArrow(a["source"], a["target"], a["kind"], root_of(a["root"]), a["order"])
        for a in data["arrows"]
    ]
    return OrbitDiagram(
        data["kind"],
        data["n"],
        data["k"],
        nodes,
        arrows,
        [tuple(c) for c in data["coincidences"]],
        conjectural=data["conjectural"],
    )
