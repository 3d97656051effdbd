"""The orbit-diagram JSON as `bgg.render` used to write it.

Test-only reference: the payload is built as nested dicts and lists and
handed to `json.dumps`.  `render.to_json` writes the same text straight
from the diagram and is checked against this, compact and indented.
"""

from __future__ import annotations

import json
from typing import Optional

from bgg.orbits import OrbitDiagram


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
