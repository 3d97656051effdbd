"""Exit codes and output of the command-line interface."""

import dataclasses
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from bgg import cli, geometry, verma


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


def test_verify_maximal_no_kernel_json(capsys):
    rc, out, _ = run(
        capsys, "verify-maximal", "--n", "3", "--k", "2", "--no-kernel", "--format", "json"
    )
    assert rc == 0
    result = json.loads(out)["results"][0]
    assert result["kernel_dim"] is None and result["ok"] is True


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
    monkeypatch.setattr(geometry, "isotropy_check", lambda pt: False)
    rc, out, _ = run(capsys, "geometry-check", "--n", "3", "--count", "5")
    assert rc == 2
    assert out.startswith("FAIL")


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


def test_import_does_not_load_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import sys, bgg.cli; assert 'numpy' not in sys.modules"],
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


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
