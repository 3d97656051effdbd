"""TikZ / dot / JSON rendering of orbit diagrams."""

import pytest

from bgg import orbits, render


def _count(text, token):
    return text.count(token)


def test_preamble_defines_macros():
    out = render.to_tikz(orbits.regular_orbit_projection(3))
    for macro in (
        r"\newcommand{\ldominant}",
        r"\newcommand{\trivial}",
        r"\newcommand{\arrow}",
        r"\newcommand{\equal}",
        r"\newcommand{\suppressedarrow}",
        r"\newcommand{\skipped}",
    ):
        assert macro in out
    assert out.count(r"\begin{tikzpicture}") == 1
    assert out.count(r"\end{tikzpicture}") == 1


def test_regular_figure_mark_counts(figure_regular_n8):
    fx = figure_regular_n8
    d = orbits.regular_orbit_projection(fx["n"])
    out = render.to_tikz(d, render.RenderConfig(skip_columns=tuple(fx["skips"])))
    assert _count(out, "\\ldominant{") == fx["visible_node_count"]
    assert _count(out, "\\arrow{") == len(fx["arrows"])
    assert _count(out, "\\skipped{") == 24
    assert _count(out, "\\trivial{") == 0
    assert _count(out, "\\equal{") == 0


@pytest.mark.parametrize(
    "name",
    [
        "figure_singular_n8_k7",
        "figure_singular_n14_k7",
        "figure_singular_n8_k1",
        "figure_singular_n8_k0",
    ],
)
def test_singular_figure_mark_counts(name, load):
    fx = load(name)
    d = orbits.singular_orbit(fx["n"], fx["k"])
    out = render.to_tikz(d, render.RenderConfig(skip_columns=tuple(fx["skips"])))
    assert _count(out, "\\ldominant{") == len(fx["nodes"])
    assert _count(out, "\\trivial{") == fx["trivial_count"]
    assert _count(out, "\\arrow{") == len(fx["arrows"])
    assert _count(out, "\\equal{") == len(fx["equals"])
    assert _count(out, "\\suppressedarrow{") == 0


def test_suppressed_toggle(load):
    fx = load("figure_singular_n8_k1")
    d = orbits.singular_orbit(8, 1)
    cfg = render.RenderConfig(
        skip_columns=tuple(fx["skips"]), show_suppressed=True
    )
    out = render.to_tikz(d, cfg)
    assert _count(out, "\\suppressedarrow{") == 10


def test_crosses_toggle():
    d = orbits.singular_orbit(4, 1)
    assert "\\trivial{" in render.to_tikz(d)
    out = render.to_tikz(d, render.RenderConfig(show_crosses=False))
    assert "\\trivial{" not in out


def test_labels_toggle():
    d = orbits.regular_orbit_projection(4)
    plain = render.to_tikz(d)
    assert "\\node[font=\\tiny" not in plain
    labeled = render.to_tikz(d, render.RenderConfig(show_labels=True))
    n_arrows = _count(labeled, "\\arrow{")
    assert _count(labeled, "\\node[font=\\tiny") == n_arrows
    assert "{$b_{2}$}" in labeled
    assert "{$c_{12}$}" in labeled


def test_skipped_segments_are_axis_aligned(figure_regular_n8):
    fx = figure_regular_n8
    d = orbits.regular_orbit_projection(fx["n"])
    segs = render._skipped_segments(d, set(fx["skips"]))
    assert len(segs) == 24
    for a, b in segs:
        assert a[0] == b[0] or a[1] == b[1]
        assert all(abs(c) not in fx["skips"] for c in a + b)


def test_no_skips_no_skipped_segments():
    d = orbits.regular_orbit_projection(5)
    assert render._skipped_segments(d, set()) == []
    assert "\\skipped{" not in render.to_tikz(d)


def test_dot_output():
    d = orbits.singular_orbit(3, 1)
    out = render.to_dot(d)
    assert out.startswith("digraph orbit {")
    assert out.rstrip().endswith("}")
    n_points = _count(out, "[pos=")
    assert n_points == len(d.nodes)
    assert 'label="="' in out  # identity arrows
    assert "style=dotted" not in out  # suppressed hidden by default
    shown = render.to_dot(d, render.RenderConfig(show_suppressed=True))
    has_suppressed = any(a.kind == orbits.SUPPRESSED for a in d.arrows)
    assert ("style=dotted" in shown) == has_suppressed


def test_json_roundtrip():
    for d in (orbits.regular_orbit_projection(4), orbits.singular_orbit(4, 1)):
        text = render.to_json(d, indent=1)
        back = render.from_json(text)
        assert back == d
        assert render.to_json(back, indent=1) == text


def test_json_schema_keys():
    import json

    payload = json.loads(render.to_json(orbits.singular_orbit(3, 2)))
    assert list(payload) == ["kind", "n", "k", "conjectural", "nodes", "arrows", "coincidences"]
    assert payload["kind"] == "singular-orbit"
    assert payload["conjectural"] is False
    arrow = payload["arrows"][0]
    assert set(arrow) == {"source", "target", "kind", "root", "order"}
