"""Exit codes and output of the command-line interface."""

import dataclasses
import itertools
import json

import pytest

from bgg import cli, geometry, verma
from bgg.weyl import Root


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_hasse_text(capsys):
    rc, out, err = run(capsys, "hasse", "--n", "3")
    assert rc == 0 and not err
    assert "nodes=12" in out
    assert "window=" in out
    assert "root=" in out


def test_hasse_json(capsys):
    rc, out, _ = run(capsys, "hasse", "--n", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 12
    assert payload["crossed"] == [2]
    assert all(e["order"] >= 1 for e in payload["edges"])


def test_hasse_rejects_tikz(capsys):
    rc, out, err = run(capsys, "hasse", "--n", "3", "--format", "tikz")
    assert rc == 1
    assert "orbit diagrams" in err


def test_missing_required_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["hasse"])
    assert exc.value.code == 1


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_regular_orbit_json(capsys):
    rc, out, _ = run(capsys, "regular-orbit", "--n", "4", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["nodes"]) == 24
    assert payload["kind"] == "regular-orbit"


def test_singular_orbit_text(capsys):
    rc, out, _ = run(capsys, "singular-orbit", "--n", "4", "--k", "1")
    assert rc == 0
    assert "coincidences" in out
    assert "suppressed" in out


def test_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "singular-orbit", "--n", "5", "--k", "2", "--format", "json")
    rc2, out2, _ = run(capsys, "singular-orbit", "--n", "5", "--k", "2", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_relative_bgg(capsys):
    rc, out, _ = run(capsys, "relative-bgg", "--n", "4", "--k", "-2")
    assert rc == 0
    assert len([l for l in out.splitlines() if l.strip().startswith("p=")]) == 6


def test_penrose_pages(capsys):
    rc, out, _ = run(capsys, "penrose-e1", "--n", "5", "--k", "2")
    assert rc == 0
    assert "q=1" in out and "q=0" in out
    rc, out, _ = run(capsys, "penrose-e1", "--n", "5", "--k", "2", "--page", "2")
    assert rc == 0
    assert "Ker d_1" in out
    assert "order<=2" in out


def test_bgg_complex_text(capsys):
    rc, out, _ = run(capsys, "bgg-complex", "--n", "5", "--k", "2", "--sign", "-")
    assert rc == 0
    assert "nonstandard" in out
    assert "resolves:" in out


def test_bgg_complex_k0_needs_flag(capsys):
    rc, out, err = run(capsys, "bgg-complex", "--n", "5", "--k", "0")
    assert rc == 1
    assert "conjectural" in err
    rc, out, err = run(capsys, "bgg-complex", "--n", "5", "--k", "0", "--conjectural")
    assert rc == 0
    assert "[CONJECTURAL]" in out
    assert out.count("(direct-sum column)") == 2


def test_bgg_complex_k0_rejects_minus_sign(capsys):
    rc, out, err = run(
        capsys, "bgg-complex", "--n", "3", "--k", "0", "--conjectural", "--sign", "-"
    )
    assert rc == 1 and not out
    assert "error:" in err and "k = 0 has a single conjugate" in err


def test_bgg_complex_json(capsys):
    rc, out, _ = run(
        capsys, "bgg-complex", "--n", "4", "--k", "0", "--conjectural", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["conjectural"] is True
    assert payload["branch"] == [2, 3]
    assert len(payload["terms"]) == 6


def test_verify_maximal_pass(capsys):
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_verify_maximal_single_row_json(capsys):
    rc, out, _ = run(
        capsys, "verify-maximal", "--n", "3", "--k", "2", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 1
    assert payload["results"][0]["ok"] is True


def test_verify_maximal_perturb(capsys):
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--perturb", "--no-kernel")
    assert rc == 0
    assert "correctly fails" in out


def test_verify_maximal_detects_failure(capsys, monkeypatch):
    real = verma.singular_vector_row

    def broken(n, k, sign="+"):
        row = real(n, k, sign)
        (c0, ys0, f0), *rest = row.terms
        return dataclasses.replace(row, terms=((-c0, ys0, f0),) + tuple(rest))

    # the genuine rows pass without the kernel check, so the failure below
    # comes from the broken row and not from the skipped check
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--no-kernel")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4 and all(l.startswith("PASS") for l in lines)
    monkeypatch.setattr(verma, "singular_vector_row", broken)
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--no-kernel")
    assert rc == 2
    assert "FAIL" in out


def test_verify_maximal_mixed_weights_fail(capsys, monkeypatch):
    """A row whose terms have two weights is a mathematical failure:
    FAIL with weight=False and exit 2, in text and in JSON, not a bad-
    input error."""
    real = verma.singular_vector_row

    def mixed(n, k, sign="+"):
        row = real(n, k, sign)
        (c0, ys0, f0), *_ = row.terms
        return dataclasses.replace(row, terms=((c0, ys0, f0), (1, (Root("b", 2),), f0)))

    monkeypatch.setattr(verma, "singular_vector_row", mixed)
    rc, out, err = run(capsys, "verify-maximal", "--n", "4", "--k", "1", "--sign", "-")
    assert rc == 2 and err == ""
    assert out.startswith("FAIL") and "weight=False" in out
    rc, out, _ = run(capsys, "verify-maximal", "--n", "4", "--k", "1", "--sign", "-", "--format", "json")
    assert rc == 2
    (result,) = json.loads(out)["results"]
    assert result["weight_ok"] is False and result["ok"] is False


def test_verify_maximal_perturb_needs_a_refutation(capsys, monkeypatch):
    """A perturbed row whose flipped last term cancels the one before
    straightens to zero: not maximal, but nothing was tested, so it is
    a FAIL with exit 2, in text and in JSON."""
    real = verma.singular_vector_row

    def cancelling(n, k, sign="+"):
        row = real(n, k, sign)
        if (k, sign) != (1, "-"):
            return row
        (c0, ys0, f0), *_ = row.terms
        return dataclasses.replace(row, terms=((c0, ys0, f0), (c0, ys0, f0)))

    monkeypatch.setattr(verma, "singular_vector_row", cancelling)
    rc, out, _ = run(capsys, "verify-maximal", "--n", "4", "--perturb", "--no-kernel")
    assert rc == 2
    lines = out.splitlines()
    assert len(lines) == 6
    bad = [l for l in lines if l.startswith("FAIL")]
    assert bad == [l for l in lines if "k=1 sign=-" in l]
    assert "nothing was tested" in bad[0]
    assert all("correctly fails" in l for l in lines if l.startswith("PASS"))
    rc, out, _ = run(
        capsys, "verify-maximal", "--n", "4", "--k", "1", "--sign", "-", "--perturb",
        "--format", "json",
    )
    assert rc == 2
    (result,) = json.loads(out)["results"]
    assert result["maximal_ok"] is False and result["weight_ok"] is False
    rc, _, _ = run(capsys, "verify-maximal", "--n", "4", "--k", "2", "--perturb")
    assert rc == 0


def test_verify_maximal_no_kernel_json(capsys):
    rc, out, _ = run(
        capsys, "verify-maximal", "--n", "3", "--k", "2", "--no-kernel", "--format", "json"
    )
    assert rc == 0
    result = json.loads(out)["results"][0]
    assert result["kernel_dim"] is None and result["ok"] is True


def test_verify_maximal_sign_without_k(capsys):
    """--sign alone keeps the rows of that sign; --k alone means '+';
    neither checks both signs.  --no-kernel says the kernel was skipped."""
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--sign", "-", "--no-kernel")
    assert rc == 0
    lines = out.splitlines()
    assert [l.split()[1:4] for l in lines] == [
        ["n=3", "k=1", "sign=-"],
        ["n=3", "k=2", "sign=-"],
    ]
    assert all(l.startswith("PASS") and "kernel_dim=not checked" in l for l in lines)
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--k", "2", "--no-kernel")
    assert rc == 0 and out.split()[1:4] == ["n=3", "k=2", "sign=+"]
    rc, out, _ = run(capsys, "verify-maximal", "--n", "3", "--no-kernel")
    assert rc == 0 and [l.split()[3] for l in out.splitlines()] == ["sign=+", "sign=-"] * 2


def test_internal_check_failure_exits_2(capsys, monkeypatch):
    from bgg import parabolic

    def broken(p):
        raise AssertionError("conformal drop 0 < 1 on a Hasse edge")

    monkeypatch.setattr(parabolic, "hasse_diagram", broken)
    rc, out, err = run(capsys, "hasse", "--n", "3")
    assert rc == 2 and not out
    # one error line, no traceback
    assert err == "error: internal check failed: conformal drop 0 < 1 on a Hasse edge\n"


@pytest.mark.parametrize("n", ["2", "1", "-3"])
def test_verify_maximal_rejects_small_rank(capsys, n):
    rc, out, err = run(capsys, "verify-maximal", "--n", n)
    assert rc == 1 and not out
    assert err.startswith("error:")


def test_geometry_check(capsys):
    rc, out, _ = run(capsys, "geometry-check", "--n", "4", "--count", "25", "--seed", "7")
    assert rc == 0
    assert out.startswith("PASS")


def test_geometry_check_detects_failure(capsys, monkeypatch):
    """Every failed point and every failed solve counts once; a solve
    whose reconstruction check raises counts as failed."""
    monkeypatch.setattr(geometry, "isotropy_check", lambda pt: False)
    rc, out, _ = run(capsys, "geometry-check", "--n", "3", "--count", "5")
    assert rc == 2
    assert out == "FAIL big-cell isotropy and twistor cover: n=3 points=5 seed=0 failures=10\n"

    def off_line(line):
        raise AssertionError("twistor line does not lie on the solved plane")

    monkeypatch.setattr(geometry, "isotropy_check", lambda pt: True)
    monkeypatch.setattr(geometry, "twistor_cover_solve", off_line)
    rc, out, _ = run(capsys, "geometry-check", "--n", "3", "--count", "4", "--format", "json")
    assert rc == 2
    assert json.loads(out) == {"n": 3, "count": 4, "seed": 0, "failures": 4, "ok": False}


def test_geometry_check_checks_solved_planes(capsys, monkeypatch):
    """Each round checks the random point and the solved plane; a solved
    plane that is not isotropic counts as a failure."""
    real = geometry.isotropy_check
    calls = []

    def counted(pt):
        calls.append(pt)
        return real(pt)

    monkeypatch.setattr(geometry, "isotropy_check", counted)
    rc, out, _ = run(capsys, "geometry-check", "--n", "4", "--count", "6")
    assert rc == 0 and out.startswith("PASS")
    assert len(calls) == 12

    solve = geometry.twistor_cover_solve
    solved = []

    def recorded(line):
        solved.append(solve(line))
        return solved[-1]

    monkeypatch.setattr(geometry, "twistor_cover_solve", recorded)
    monkeypatch.setattr(geometry, "isotropy_check", lambda pt: all(pt is not p for p in solved))
    rc, out, _ = run(capsys, "geometry-check", "--n", "4", "--count", "6", "--format", "json")
    assert rc == 2
    assert json.loads(out)["failures"] == 6


@pytest.mark.parametrize("count", ["-5", "0"])
def test_geometry_check_rejects_empty_count(capsys, count):
    rc, out, err = run(capsys, "geometry-check", "--n", "6", "--count", count)
    assert rc == 1 and not out
    assert "--count" in err


def test_render_tikz(capsys):
    rc, out, _ = run(
        capsys, "render", "--what", "singular", "--n", "8", "--k", "7",
        "--skip", "4,11", "--format", "tikz",
    )
    assert rc == 0
    assert "\\begin{tikzpicture}" in out
    assert out.count("\\ldominant{") == 42


def test_render_singular_needs_k(capsys):
    rc, _, err = run(capsys, "render", "--what", "singular", "--n", "4")
    assert rc == 1
    assert "--k" in err


def test_render_regular_rejects_k(capsys):
    rc, out, err = run(capsys, "render", "--what", "regular", "--n", "3", "--k", "9")
    assert rc == 1 and not out
    assert err == "error: regular diagrams take no --k\n"


def test_render_regular_dot(capsys):
    rc, out, _ = run(capsys, "render", "--what", "regular", "--n", "3", "--format", "dot")
    assert rc == 0
    assert out.startswith("digraph")


BOUNDARY = ("-1", "0", "1", "2", "3")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("hasse", ("--n",)),
        ("regular-orbit", ("--n",)),
        ("singular-orbit", ("--n", "--k")),
        ("relative-bgg", ("--n", "--k")),
        ("penrose-e1", ("--n", "--k")),
        ("bgg-complex", ("--n", "--k")),
        ("verify-maximal", ("--n", "--k")),
        ("geometry-check", ("--n", "--count")),
        ("render --what regular", ("--n",)),
        ("render --what singular", ("--n", "--k")),
    ],
)
def test_boundary_integers(capsys, command, flags):
    """Every subcommand at boundary values of its integer options: exit 0,
    1 or 2 with no exception, an error message on exit 1, and never
    success below rank 2."""
    for values in itertools.product(BOUNDARY, repeat=len(flags)):
        argv = command.split() + [x for pair in zip(flags, values) for x in pair]
        rc, _, err = run(capsys, *argv)
        assert rc in (0, 1, 2), argv
        if rc == 1:
            assert "error:" in err, argv
        if int(values[0]) < 2:
            assert rc != 0, argv


def test_import_does_not_load_numpy(python):
    python(
        "import sys, bgg.cli; assert 'numpy' not in sys.modules;"
        " assert sorted(m for m in sys.modules if m.startswith('bgg')) == ['bgg', 'bgg.cli']"
    )


_LOADED_BY_MAIN = """
import contextlib, io, sys
import bgg.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = bgg.cli.main(sys.argv[1:])
print(rc, *sorted(m for m in sys.modules if m.startswith("bgg.") or m in ("json", "fractions")))
"""
_ORBIT_LAYERS = ("weyl", "cosets", "orbits")
_HASSE_LAYERS = ("weyl", "cosets", "parabolic")
_PENROSE_LAYERS = ("weyl", "penrose")


@pytest.mark.parametrize(
    "command, layers",
    [
        ("hasse --n 4", _HASSE_LAYERS),
        ("regular-orbit --n 3", _ORBIT_LAYERS),
        ("singular-orbit --n 4 --k 2", _ORBIT_LAYERS),
        ("render --what singular --n 4 --k 1 --format dot", _ORBIT_LAYERS + ("render",)),
        ("relative-bgg --n 4 --k -2", _PENROSE_LAYERS),
        ("penrose-e1 --n 4 --k 2 --page 2", _PENROSE_LAYERS),
        ("bgg-complex --n 4 --k 1", _PENROSE_LAYERS),
        ("verify-maximal --n 3 --k 1", _PENROSE_LAYERS + ("verma",)),
        ("geometry-check --n 3 --count 2", ("geometry", "fractions")),
        ("hasse --n 4 --format json", _HASSE_LAYERS),
        ("singular-orbit --n 4 --k 2 --format json", _ORBIT_LAYERS + ("render", "json")),
        ("singular-orbit --n 14 --k 7", _ORBIT_LAYERS),
        ("regular-orbit --n 3 --format json", _ORBIT_LAYERS + ("render", "json")),
    ],
)
def test_subcommand_loads_only_its_layers(python, command, layers):
    """A fresh `bgg` process imports only the layers its subcommand runs:
    `cosets`, whose `hasse_rows` is the one W^p search, for `hasse` and
    the orbit commands, `parabolic` only for `hasse`, which never loads
    the orbit diagrams, `orbits` only for the orbit commands,
    `render` only for a diagram not printed as text, `json` only if it
    prints JSON other than a Hasse diagram's (which
    `HasseDiagram.to_json` writes itself), and `fractions` only if it
    computes with Fractions (geometry does; no E here is half-integral)."""
    rc, *loaded = python(_LOADED_BY_MAIN, *command.split()).split()
    assert rc == "0"
    expected = [m if m in ("json", "fractions") else f"bgg.{m}" for m in ("cli",) + layers]
    assert sorted(loaded) == sorted(expected)


@pytest.mark.parametrize(
    "command",
    [
        "verify-maximal --n 2",
        "verify-maximal --n -3 --perturb",
        "geometry-check --n 4 --count 0",
        "hasse --n 4 --format tikz",
        "render --what regular --n 3 --k 9",
        "render --what singular --n 4",
    ],
)
def test_argument_errors_load_no_layer(python, command):
    """A request the CLI refuses on its own options exits 1 before any
    bgg layer is imported: only `bgg.cli` is loaded."""
    rc, *loaded = python(_LOADED_BY_MAIN, *command.split()).split()
    assert rc == "1"
    assert loaded == ["bgg.cli"]


def run_any(capsys, argv):
    """Like run, but an argparse error (SystemExit) gives its exit code."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


WELL_FORMED_LISTS = ("", "2", "1,3", " 2", "0", "-1", "9", "1,2,3,4")
MALFORMED_LISTS = ("2,", ",", "a,b", "1,,2", "1;2", "1.5", "x")
FORMATS = ("text", "json", "tikz", "dot")


@pytest.mark.parametrize(
    "command, flag",
    [
        *((f"hasse --n 4 --format {fmt}", "--crossed") for fmt in ("text", "json")),
        *(
            (f"{what} --format {fmt}", "--skip")
            for what in ("regular-orbit --n 4", "singular-orbit --n 4 --k 1")
            for fmt in FORMATS
        ),
        *(
            (f"render --what singular --n 4 --k 0 --format {fmt}", "--skip")
            for fmt in ("tikz", "dot", "json")
        ),
    ],
)
def test_boundary_lists(capsys, command, flag):
    """--crossed and --skip values: a malformed list exits 1 with an error
    in every format; any other value exits 0, 1 or 2 with no exception."""
    for value in WELL_FORMED_LISTS + MALFORMED_LISTS:
        argv = command.split() + [f"{flag}={value}"]
        rc, out, err = run_any(capsys, argv)
        assert rc in (0, 1, 2), argv
        if rc == 1:
            assert "error:" in err and not out, argv
        if value in MALFORMED_LISTS:
            assert rc == 1 and f"argument {flag}" in err, argv
    rc, _, _ = run_any(capsys, command.split() + [f"{flag}=2"])
    assert rc == 0


@pytest.mark.parametrize(
    "command",
    [
        "regular-orbit --n 4 --format tikz",
        "singular-orbit --n 4 --k 1 --format dot",
        "render --what regular --n 4 --format dot",
        "render --what singular --n 4 --k 0",
    ],
)
def test_skip_refuses_columns_below_one(capsys, command):
    """No placement has a coordinate 0, so a --skip column below 1 would
    omit nothing: it exits 1 with an error line and prints nothing.
    Columns above n are kept, and omit nothing."""
    for value in ("-3", "0", "2,0", "1,-4", "-1,3"):
        rc, out, err = run_any(capsys, command.split() + [f"--skip={value}"])
        assert rc == 1 and not out, value
        assert "error: argument --skip: each column must be at least 1" in err, value
    # "--skip -3" reads like "--skip=-3"; "--skip -1,3" is not a value to argparse
    rc, out, err = run_any(capsys, command.split() + ["--skip", "-3"])
    assert rc == 1 and not out and "each column must be at least 1, got -3" in err
    rc, plain, _ = run_any(capsys, command.split())
    rc_far, far, _ = run_any(capsys, command.split() + ["--skip", "9,11"])
    assert rc == rc_far == 0 and far == plain


_EXIT_AND_LOADED = """
import contextlib, io, sys
import bgg.cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = bgg.cli.main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(rc, *sorted(m for m in sys.modules if m.startswith("bgg.")))
"""


@pytest.mark.parametrize(
    "command",
    [
        "regular-orbit --n 4 --format tikz --skip=-3",
        "singular-orbit --n 4 --k 1 --format dot --skip=2,0",
        "render --what regular --n 4 --skip=-1,3",
    ],
)
def test_skip_errors_load_no_layer(python, command):
    """A --skip column below 1 is refused while the arguments are parsed,
    before any bgg layer is imported."""
    rc, *loaded = python(_EXIT_AND_LOADED, *command.split()).split()
    assert rc == "1"
    assert loaded == ["bgg.cli"]


def test_refused_k0_complex_loads_no_layer(python, capsys):
    """`bgg-complex --k 0` without --conjectural is refused on its options
    alone, with the library's own message: exit 1, and only `bgg.cli`
    loaded."""
    rc, *loaded = python(_EXIT_AND_LOADED, "bgg-complex", "--n", "5", "--k", "0").split()
    assert rc == "1"
    assert loaded == ["bgg.cli"]
    from bgg import penrose

    with pytest.raises(ValueError) as refused:
        penrose.assemble_singular_bgg(5, 0)
    assert run(capsys, "bgg-complex", "--n", "5", "--k", "0") == (1, "", f"error: {refused.value}\n")


def test_skip_omits_its_columns(capsys):
    """At n = 4 the regular orbit has 24 node marks; --skip 3 leaves the
    12 with no coordinate of absolute value 3."""
    base = ["regular-orbit", "--n", "4", "--format", "tikz"]
    rc, out, _ = run(capsys, *base)
    assert rc == 0 and out.count("\\ldominant{") == 24
    rc, out, _ = run(capsys, *base, "--skip", "3")
    assert rc == 0 and out.count("\\ldominant{") == 12
    assert "{3}" not in out.split("\\begin{tikzpicture}")[1]
    rc, wide, _ = run(capsys, *base, "--skip", "3,11")
    assert rc == 0 and wide == out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("page", ["-1", "0", "1", "2", "3", "x", ""])
def test_boundary_pages(capsys, fmt, page):
    rc, out, err = run_any(
        capsys, ["penrose-e1", "--n", "4", "--k", "1", "--format", fmt, f"--page={page}"]
    )
    if page in ("1", "2"):
        assert rc == 0 and out and not err
    else:
        assert rc == 1 and not out and "error:" in err
