"""The orbit-diagram writers as `bgg.render` used to write them.

Test-only reference.  The JSON payload is built as nested dicts and
lists and handed to `json.dumps`; `render.to_json` writes the same text
straight from the diagram and is checked against this, compact and
indented.  `to_tikz` and `to_dot` format every coordinate, cross and
node name per node and per cross, where `bgg.render` reads them off its
per-rank mark table; the visibility, skipped-segment and label helpers
they share with `bgg.render` are not under test here.
"""

from __future__ import annotations

import json
from typing import Optional

from bgg import orbits
from bgg.orbits import OrbitDiagram
from bgg.render import (
    _DOT_STYLES,
    _PREAMBLE,
    RenderConfig,
    _node_visibility,
    _root_tex,
    _skipped_segments,
    _visible,
)


def payload(diagram: OrbitDiagram) -> dict:
    return {
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
                "root": None
                if a.root is None
                else {"kind": a.root.kind, "i": a.root.i, "j": a.root.j},
                "order": a.order,
            }
            for a in diagram.arrows
        ],
        "coincidences": [list(c) for c in diagram.coincidences],
    }


def to_json(diagram: OrbitDiagram, indent: Optional[int] = None) -> str:
    return json.dumps(payload(diagram), indent=indent) + "\n"


def to_tikz(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    visible = _node_visibility(diagram, skips)
    # each node's "{m1}{m2}" once, shared by its mark and every arrow
    coords = ["{%d}{%d}" % node.placement for node in diagram.nodes]
    lines = [_PREAMBLE, r"\begin{tikzpicture}[x=0.8cm,y=0.8cm]"]
    lines += [r"\ldominant" + c for c, shown in zip(coords, visible) if shown]
    if diagram.kind == "singular-orbit":
        for pl in diagram.cross_placements():
            if not skips or _visible(pl, skips):
                lines.append(r"\trivial{%d}{%d}" % pl)
    for a in diagram.arrows:
        if skips and not (visible[a.source] and visible[a.target]):
            continue
        if a.kind == orbits.IDENTITY:
            lines.append(r"\equal" + coords[a.source] + coords[a.target])
        elif a.kind == orbits.SUPPRESSED:
            if config.show_suppressed:
                lines.append(r"\suppressedarrow" + coords[a.source] + coords[a.target])
        else:
            lines.append(r"\arrow" + coords[a.source] + coords[a.target])
            if config.show_labels and a.root is not None:
                s = diagram.nodes[a.source].placement
                t = diagram.nodes[a.target].placement
                mx, my = (s[0] + t[0]) / 2.0, (s[1] + t[1]) / 2.0
                lines.append(
                    r"\node[font=\tiny, above right] at (%.1f,%.1f) {$%s$};"
                    % (mx, my, _root_tex(a.root))
                )
    for s, t in _skipped_segments(diagram, visible):
        lines.append(r"\skipped{%d}{%d}{%d}{%d}" % (s + t))
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def to_dot(diagram: OrbitDiagram, config: Optional[RenderConfig] = None) -> str:
    config = config or RenderConfig()
    skips = set(config.skip_columns)
    visible = _node_visibility(diagram, skips)
    # each node's quoted name once, shared by its line and every arrow
    names = [f'"p{nd.placement[0]}_{nd.placement[1]}"'.replace("-", "m") for nd in diagram.nodes]
    lines = ["digraph orbit {", "  rankdir=LR;", "  node [shape=point];"]
    for name, node, shown in zip(names, diagram.nodes, visible):
        if shown:
            lines.append(f'  {name} [pos="{node.placement[0]},{node.placement[1]}!"];')
    for a in diagram.arrows:
        if skips and not (visible[a.source] and visible[a.target]):
            continue
        if a.kind == orbits.SUPPRESSED and not config.show_suppressed:
            continue
        lines.append(f"  {names[a.source]} -> {names[a.target]}{_DOT_STYLES[a.kind]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
