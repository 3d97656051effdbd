"""TikZ / dot / JSON rendering of orbit diagrams."""

import dataclasses
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

import render_oracle
from bgg import orbits, render, weyl
from bgg.orbits import OrbitArrow, OrbitDiagram, OrbitNode
from bgg.weyl import Root


SWEEP = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sweep_check.py"


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
    """Crosses are drawn on every singular diagram."""
    d = orbits.singular_orbit(4, 1)
    assert "\\trivial{" in render.to_tikz(d)


def test_labels_toggle():
    d = orbits.regular_orbit_projection(4)
    plain = render.to_tikz(d)
    assert "\\node[font=\\tiny" not in plain
    labeled = render.to_tikz(d, render.RenderConfig(show_labels=True))
    n_arrows = _count(labeled, "\\arrow{")
    assert _count(labeled, "\\node[font=\\tiny") == n_arrows
    assert "{$b_{2}$}" in labeled
    assert "{$c_{12}$}" in labeled


def test_root_tex_follows_root_label():
    assert render._root_tex(Root("a", 1, 10)) == "a_{1,10}"
    assert render._root_tex(Root("c", 10, 11)) == "c_{10,11}"
    assert render._root_tex(Root("b", 11)) == "b_{11}"
    d = orbits.regular_orbit_projection(11)
    labeled = render.to_tikz(d, render.RenderConfig(show_labels=True))
    tex = re.findall(r"\{\$(\w)_\{([\d,]+)\}\$\}", labeled)
    assert [kind + rest for kind, rest in tex] == [a.root.label() for a in d.arrows]
    assert any("," in rest for _, rest in tex)


def test_skipped_segments_are_axis_aligned(figure_regular_n8):
    fx = figure_regular_n8
    d = orbits.regular_orbit_projection(fx["n"])
    segs = render._skipped_segments(d, render._node_visibility(d, set(fx["skips"])))
    assert len(segs) == 24
    for a, b in segs:
        assert a[0] == b[0] or a[1] == b[1]
        assert all(abs(c) not in fx["skips"] for c in a + b)


def test_no_skips_no_skipped_segments():
    d = orbits.regular_orbit_projection(5)
    assert render._skipped_segments(d, render._node_visibility(d, set())) == []
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


def _diagrams(n):
    """Every orbit diagram of rank n: the regular orbit and each k."""
    yield orbits.regular_orbit_projection(n)
    for k in range(n):
        yield orbits.singular_orbit(n, k)


def _same_json(diagram, indent) -> bool:
    """to_json equals the oracle; a failure names the first difference
    instead of diffing two long texts."""
    got, want = render.to_json(diagram, indent), render_oracle.to_json(diagram, indent)
    if got == want:
        return True
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    near = slice(max(at - 40, 0), at + 40)
    pytest.fail(
        f"{diagram.kind} n={diagram.n} k={diagram.k} indent={indent!r}: at {at}, "
        f"got {got[near]!r}, want {want[near]!r}"
    )


@pytest.mark.parametrize("n", range(2, 13))
def test_to_json_matches_json_dumps(n):
    for d in _diagrams(n):
        for indent in (None, 0, 1, 2):
            assert _same_json(d, indent)
        assert render.from_json(render.to_json(d)) == d


def _odd_diagram():
    """Strings json must escape, a null k, orders of every JSON type and
    a node with an empty weight."""
    odd = 'q"uo\\te \u00e9\u2603\n\t\x00\U0001f600'
    roots = [Root(odd, 1, 2), Root("b", 3), Root(odd, 1, 2)]
    return OrbitDiagram(
        odd,
        3,
        None,
        [OrbitNode((1, -2), (3, -1, 2)), OrbitNode((2, 1), ()), OrbitNode((-3, 1), (-3, 1, 2))],
        [
            OrbitArrow(0, 1, orbits.STANDARD, roots[0], 2),
            OrbitArrow(1, 2, orbits.IDENTITY, None, None),
            OrbitArrow(0, 2, orbits.STANDARD, roots[1], True),
            OrbitArrow(2, 0, orbits.SUPPRESSED, roots[2], -1.5),
        ],
        [(0, 2)],
        conjectural=True,
    )


def test_to_json_escapes_like_json_dumps():
    d = _odd_diagram()
    # an arrow kind and a placement the writers cannot draw: to_json
    # writes them as json would, and from_json refuses them
    odd_kind = d._replace(arrows=[d.arrows[0]._replace(kind=d.kind), *d.arrows[1:]])
    no_pair = d._replace(nodes=[d.nodes[0], OrbitNode((), ()), d.nodes[2]])
    empty = OrbitDiagram("regular-orbit", 2, 0, [], [], [])
    for diagram in (d, odd_kind, no_pair, empty):
        for indent in (None, 0, 1, 2, "\t"):
            assert _same_json(diagram, indent)
    assert render.to_json(d).isascii()
    assert render.from_json(render.to_json(d, 2)) == d
    for diagram, field in ((odd_kind, "arrow kinds"), (no_pair, "node placements")):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            render.from_json(render.to_json(diagram, 2))


def test_to_json_tails_keep_equal_values_of_other_types_apart():
    """Arrow tails are shared per process; values that compare equal but
    json writes apart (1, True, 1.0, and roots holding them) each keep
    their own text within one diagram."""
    roots = [Root("a", 1, 2), Root("a", True, 2), Root("a", 1, 2)]
    assert roots[0] == roots[1]
    arrows = [
        OrbitArrow(0, 1, orbits.STANDARD, root, order)
        for root in roots
        for order in (1, True, 1.0, None)
    ]
    d = OrbitDiagram("singular-orbit", 2, 1, [OrbitNode((2, 1), (1, 1))] * 2, arrows, [(0, 1)])
    for indent in (None, 2):
        assert _same_json(d, indent)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_from_json_builds_records(n):
    """from_json reads back OrbitNode and OrbitArrow records: a NamedTuple
    equals a plain tuple of its values, so == alone cannot show this."""
    for d in [*_diagrams(n), _odd_diagram()]:
        back = render.from_json(render.to_json(d))
        assert back == d
        assert all(type(nd) is OrbitNode for nd in back.nodes)
        assert all(type(a) is OrbitArrow for a in back.arrows)
        assert all(type(a.root) is Root for a in back.arrows if a.root is not None)
        assert all(type(c) is tuple for c in back.coincidences)
        with pytest.raises(AttributeError):
            back.arrows[0].kind = orbits.IDENTITY


def _assert_public_records(d):
    """Every record of d has the record's own type, and equals and reprs
    like the record its public constructor builds from the same fields."""
    for cls, records in ((OrbitNode, d.nodes), (OrbitArrow, d.arrows)):
        for x in records:
            public = cls(*x)
            assert type(x) is cls
            assert x == public
            assert repr(x) == repr(public)


@pytest.mark.parametrize("n", range(2, 15))
def test_records_are_the_public_records(n):
    """orbits and from_json build records from their field tuples; the
    records of every diagram of rank n, and of its read-back, are those
    OrbitNode(...) and OrbitArrow(...) build."""
    for d in [orbits.regular_orbit_projection(n)] + [
        orbits.singular_orbit(n, k) for k in range(n)
    ]:
        _assert_public_records(d)
        _assert_public_records(render.from_json(render.to_json(d)))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ('"placement": [3, 1]', '"placement": [3, true]', "node entries"),
        ('"weight": [2, 1, 1]', '"weight": [2, 1.5, 1]', "node entries"),
        ('"coincidences": [[', '"coincidences": [["0", 1], [', "coincidences"),
        ('"source": 0', '"source": false', "arrow ends"),
        ('"target": 1', '"target": 1.0', "arrow ends"),
    ],
)
def test_from_json_refuses_non_int_entries(old, new, field):
    """A node entry, coincidence or arrow end that is not an int (JSON
    true, 1.5, a string) is refused with ValueError naming the field,
    not read back into a diagram whose to_json is not JSON."""
    text = render.to_json(orbits.singular_orbit(3, 1))
    assert old in text
    with pytest.raises(ValueError, match=f"^{field} must be ints$"):
        render.from_json(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ('"placement": [3, 1]', '"placement": [3, 1, 2]', "node placements must be pairs"),
        ('"placement": [3, 1]', '"placement": [3]', "node placements must be pairs"),
        ('"source": 0', '"source": 10', "arrow ends must be node indices"),
        ('"target": 1', '"target": -1', "arrow ends must be node indices"),
        ('"kind": "standard"', '"kind": "dashed"', "arrow kinds must be standard, identity or suppressed"),
        ('"kind": "standard"', '"kind": ["standard"]', "arrow kinds must be standard, identity or suppressed"),
    ],
)
def test_from_json_refuses_what_the_writers_cannot_draw(old, new, field):
    """A placement that is not a pair, an arrow end that is not the index
    of one of the 10 nodes, and an arrow kind to_dot has no style for are
    refused with ValueError naming the field: read back, they made
    to_tikz or to_dot raise TypeError, IndexError or KeyError, or (an
    end of -1) draw an arrow from the last node."""
    d = orbits.singular_orbit(3, 1)
    text = render.to_json(d)
    assert len(d.nodes) == 10 and old in text
    with pytest.raises(ValueError, match=f"^{re.escape(field)}$"):
        render.from_json(text.replace(old, new, 1))


def test_from_json_reads_indented_text_and_null_roots():
    """Indented text reads back the same diagram, and a null root reads
    back as None, next to a shared Root, in an arrow of the public type."""
    d = orbits.singular_orbit(5, 2)
    for indent in (0, 1, 2, "\t"):
        assert render.from_json(render.to_json(d, indent)) == d
    root = Root("a", 1, 3)
    nodes = [OrbitNode((2, 1), (3, 1, 2)), OrbitNode((2, -1), (3, -1, 2))]
    arrows = [
        OrbitArrow(0, 1, orbits.IDENTITY),
        OrbitArrow(0, 1, orbits.STANDARD, root, 2),
        OrbitArrow(1, 0, orbits.SUPPRESSED, root, 1),
    ]
    hand = OrbitDiagram("singular-orbit", 3, 1, nodes, arrows, [])
    for indent in (None, 1):
        back = render.from_json(render.to_json(hand, indent))
        assert back == hand
        assert back.arrows[0].root is None
        assert back.arrows[1].root is back.arrows[2].root
        _assert_public_records(back)


def test_from_json_builds_each_root_once():
    """from_json takes every root from weyl.shared_root: two texts read
    back the rank table's own Root objects, and reading them again builds
    no root."""
    diagrams = [orbits.regular_orbit_projection(6), orbits.singular_orbit(6, 2)]
    texts = [render.to_json(diagrams[0]), render.to_json(diagrams[1], 1)]
    table = {
        (r.kind, r.i, r.j): r for node in orbits._rank_table(6).values() for _, r, _, _ in node.arrows
    }
    first = [render.from_json(t) for t in texts]
    misses = weyl.shared_root.cache_info().misses
    again = [render.from_json(t) for t in texts]
    assert weyl.shared_root.cache_info().misses == misses
    for d, *backs in zip(diagrams, first, again):
        for back in backs:
            assert back == d
            assert render_oracle.to_json(back) == render_oracle.to_json(d)
            for a, want in zip(back.arrows, d.arrows):
                assert a.root is want.root
                assert a.root is None or a.root is table[(a.root.kind, a.root.i, a.root.j)]


def _typed_diagram(one, order):
    """A hand-built diagram whose scalars and root index are all `one`
    (1, True or 1.0, equal values json writes apart)."""
    root = Root("a", one, 2)
    arrows = [
        OrbitArrow(0, 1, orbits.STANDARD, root, order),
        OrbitArrow(1, 0, orbits.SUPPRESSED, Root("b", one, 0), order),
        OrbitArrow(0, 1, orbits.IDENTITY, None, order),
    ]
    nodes = [OrbitNode((2, 1), (2, 1)), OrbitNode((2, -1), (2, -1))]
    return OrbitDiagram("singular-orbit", one, one, nodes, arrows, [(0, 1)], conjectural=one)


@pytest.mark.parametrize(
    "ones", [(1, True, 1.0), (1.0, True, 1), (True, 1.0, 1), (1, (1,), (True,), [1])]
)
def test_shared_texts_keep_equal_values_of_other_types_apart(ones):
    """The per-process scalar and tail texts are keyed by type: diagrams
    that differ only in 1, True and 1.0, rendered one after another in any
    order, each give the oracle's bytes, and read back roots of their own
    index type.  A tuple field, (1,) and then the equal (True,), which
    the schema does not allow, is refused with ValueError rather than
    written as the text of the first; so is a list field, [1], which no
    table can key."""
    for one in ones:
        for order in ones + (None,):
            d = _typed_diagram(one, order)
            if {type(one), type(order)} & {tuple, list}:
                for indent in (None, 2):
                    with pytest.raises(ValueError, match="not a JSON scalar"):
                        render.to_json(d, indent)
                continue
            for indent in (None, 2):
                assert _same_json(d, indent)
            back = render.from_json(render.to_json(d))
            assert back == d
            assert render.to_json(back) == render_oracle.to_json(d)
            assert type(back.arrows[0].root.i) is type(one)
            assert type(back.arrows[0].order) is type(order)


def test_shared_roots_stay_frozen():
    """A Root handed out by weyl.shared_root, to a rank table and to
    from_json alike, is the frozen record: no field can be set."""
    back = render.from_json(render.to_json(orbits.singular_orbit(5, 2)))
    for root in (weyl.shared_root("a", 1, 3), back.arrows[0].root):
        with pytest.raises(dataclasses.FrozenInstanceError):
            root.i = 2
    assert weyl.shared_root("a", 1, 3) == Root("a", 1, 3)


def test_shared_tables_are_bounded_and_typed():
    """Every per-process table of shared records and texts has a constant,
    finite bound and keeps keys of other types apart."""
    for table in (weyl.shared_root, render._scalar_json, render._arrow_tail):
        params = table.cache_parameters()
        assert type(params["maxsize"]) is int and params["maxsize"] > 0
        assert params["typed"] is True


def test_sweep_is_the_same_cold_and_warm():
    """One sweep over n = 8, 10, 12 (every k, both signs; JSON, TikZ, DOT
    and page and complex dicts) in a fresh process gives the same bytes
    cold and warm, and the same digests under two hash seeds."""
    runs = [
        subprocess.run(
            [sys.executable, str(SWEEP)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            timeout=120,
        )
        for seed in ("0", "1")
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count("\n") == 363


# ---------------------------------------------------------------------------
# TikZ and DOT against the per-node writers of the oracle


def _configs(n):
    """Skips off and on (one column, and a set holding a column past n),
    each with and without labels and suppressed arrows."""
    for skips in ((), (2,), (1, 3, n + 2)):
        for labels in (False, True):
            for suppressed in (False, True):
                yield render.RenderConfig(skips, labels, suppressed)


def _writer_mismatches(diagrams, configs) -> list:
    """(diagram kind, n, k, config, writer) of every output that differs
    from the oracle's, byte for byte."""
    bad = []
    for d in diagrams:
        for cfg in configs(d.n if isinstance(d.n, int) else 3):
            for name in ("to_tikz", "to_dot"):
                if getattr(render, name)(d, cfg) != getattr(render_oracle, name)(d, cfg):
                    bad.append((d.kind, d.n, d.k, cfg, name))
    return bad


@pytest.mark.parametrize("n", range(2, 13))
def test_tikz_and_dot_match_oracle(n):
    """Every regular and singular diagram of rank n, with skips off and
    on, labels and suppressed arrows, is written byte for byte as the
    per-node oracle writes it."""
    assert _writer_mismatches(list(_diagrams(n)), _configs) == []


def _foreign_diagrams():
    """Diagrams whose placements are not all in their rank's table."""
    d = orbits.singular_orbit(5, 2)
    # a rank-5 diagram claiming rank 3: most placements lie outside
    # rank 3's table, and its crosses are rank 3's
    yield render.from_json(render.to_json(d).replace('"n": 5', '"n": 3', 1))
    # a regular diagram read back with no rank at all
    regular = orbits.regular_orbit_projection(4)
    yield render.from_json(render.to_json(regular).replace('"n": 4', '"n": null', 1))
    # hand-built: placements off the plane's grid of any small rank
    root = Root("a", 1, 2)
    yield OrbitDiagram(
        "singular-orbit",
        2,
        1,
        [OrbitNode((9, -7), (1, 0)), OrbitNode((2, 1), (2, 1)), OrbitNode((-11, -3), (0, 1))],
        [
            OrbitArrow(0, 1, orbits.STANDARD, root, 1),
            OrbitArrow(1, 2, orbits.SUPPRESSED, root, 2),
            OrbitArrow(0, 2, orbits.IDENTITY),
        ],
        [(0, 2)],
    )


def test_tikz_and_dot_of_placements_outside_the_table():
    diagrams = list(_foreign_diagrams())
    table = render._rank_marks(3)
    assert any(nd.placement not in table for nd in diagrams[0].nodes)
    assert diagrams[1].n is None
    assert _writer_mismatches(diagrams, _configs) == []


def test_mark_table_is_per_rank_read_only_and_bounded():
    """One read-only table per rank, keyed by the rank's placements in
    their order, each entry the marks _marks_of formats; 8 ranks kept."""
    render._rank_marks.cache_clear()
    for n in range(2, 11):
        table = render._rank_marks(n)
        assert list(table) == list(orbits._placements(n))
        assert all(marks == render._marks_of(pl) for pl, marks in table.items())
        assert render._rank_marks(n) is table
        with pytest.raises(TypeError):
            table[(1, 2)] = table[(2, 1)]
        with pytest.raises(AttributeError):
            table[(2, 1)].coord = ""
    info = render._rank_marks.cache_info()
    assert info.maxsize == 8 and info.currsize == 8
    assert render._marks_of((3, -12)) == (
        "{3}{-12}",
        r"\ldominant{3}{-12}",
        r"\trivial{3}{-12}",
        '"p3_m12"',
        '  "p3_m12" [pos="3,-12!"];',
    )


def _swapped(n):
    """A mis-keyed table: the marks of two placements trade keys."""
    pls = orbits._placements(n)
    table = {pl: render._marks_of(pl) for pl in pls}
    table[pls[0]], table[pls[-1]] = table[pls[-1]], table[pls[0]]
    return table


def _edited(n):
    """A stale table: every entry still in an older format of its marks."""
    return {
        pl: render._Marks(*(text.replace("}{", "}{ ").replace("_", "__") for text in marks))
        for pl, marks in ((pl, render._marks_of(pl)) for pl in orbits._placements(n))
    }


@pytest.mark.parametrize("table", [_swapped, _edited])
def test_writer_oracle_sees_a_bad_table(monkeypatch, table):
    """The oracle comparison fails on a table whose marks do not belong to
    their keys, on singular and regular diagrams alike."""
    monkeypatch.setattr(render, "_rank_marks", table)
    for n in (4, 6):
        bad = _writer_mismatches(list(_diagrams(n)), lambda n: [render.RenderConfig()])
        assert {kind for kind, *_ in bad} == {"regular-orbit", "singular-orbit"}
        assert {name for *_, name in bad} == {"to_tikz", "to_dot"}


def test_writer_oracle_sees_a_table_of_another_rank(monkeypatch):
    """A table kept for the wrong rank (here the one below) fails the
    comparison on a singular diagram: its crosses are missing or wrong."""
    real = render._rank_marks
    monkeypatch.setattr(render, "_rank_marks", lambda n: real(n - 1))
    d = orbits.singular_orbit(6, 2)
    with pytest.raises(KeyError):
        _writer_mismatches([d], lambda n: [render.RenderConfig()])


def test_sweep_check_fails_on_a_warm_difference(monkeypatch, capsys):
    """A writer whose text changes between the cold and the warm sweep
    makes the script exit 1 and name the outputs that differ."""
    spec = importlib.util.spec_from_file_location("sweep_check", SWEEP)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    real = render.to_dot

    def drifting(diagram, config=None):
        calls.append(1)
        return real(diagram, config) + ("" if len(calls) <= 4 else " ")

    monkeypatch.setattr(render, "to_dot", drifting)
    assert script.main(["--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 4 * 6 + 2 * 3 * 2 + 1
    assert err.startswith("error: 4 outputs differ warm: regular n=3 dot, singular n=3 k=0 dot")
