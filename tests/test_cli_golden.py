"""Golden CLI outputs: SHA-256 digests of stdout and stderr, and the exit
code, for every subcommand in every format and the main option paths.

The digests in fixtures/cli_golden.json pin the bytes the CLI prints, so
a refactor of the result models or of cli.py cannot change them
unnoticed.  Rewrite the fixture only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import gc
import hashlib
import io
import json
import os
import pathlib
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bgg import cli, orbits, parabolic, penrose, verma

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "cli_golden.json"

# argparse wraps its usage lines to the terminal width
COLUMNS = "80"

COMMANDS = [
    # hasse: every format, crossed {2}, {1,3} and {n}
    "hasse --n 3",
    "hasse --n 3 --format json",
    "hasse --n 3 --format tikz",
    "hasse --n 4 --crossed 1,3",
    "hasse --n 4 --crossed 1,3 --format json",
    "hasse --n 4 --crossed 4",
    "hasse --n 4 --crossed 4 --format json",
    # regular-orbit
    "regular-orbit --n 3",
    "regular-orbit --n 3 --format json",
    "regular-orbit --n 3 --format tikz",
    "regular-orbit --n 3 --format dot",
    "regular-orbit --n 4 --format tikz --skip 1 --labels --suppressed",
    "regular-orbit --n 4 --format dot --skip 1 --suppressed",
    # singular-orbit: every k at n = 4 in every format
    *(
        f"singular-orbit --n 4 --k {k} --format {fmt}"
        for k in range(4)
        for fmt in ("text", "json", "tikz", "dot")
    ),
    "singular-orbit --n 5 --k 2 --format tikz --skip 3 --labels",
    "singular-orbit --n 4 --k 1 --format tikz --suppressed",
    "singular-orbit --n 4 --k 1 --format dot --suppressed --skip 2",
    "singular-orbit --n 4 --k 1 --skip 2 --labels",
    "singular-orbit --n 4 --k 0 --format json --skip 1,2",
    # relative-bgg
    "relative-bgg --n 4 --k 2",
    "relative-bgg --n 4 --k 2 --format json",
    "relative-bgg --n 4 --k -3",
    "relative-bgg --n 4 --k -3 --format json",
    # penrose-e1: both pages, both signs, a single-row page
    "penrose-e1 --n 4 --k 1",
    "penrose-e1 --n 4 --k 1 --format json",
    "penrose-e1 --n 4 --k 1 --page 2",
    "penrose-e1 --n 4 --k 1 --page 2 --format json",
    "penrose-e1 --n 5 --k 2 --sign -",
    "penrose-e1 --n 5 --k 2 --sign - --page 2 --format json",
    "penrose-e1 --n 4 --k 3 --format json",
    # bgg-complex: both signs, the single-row case, the conjectural k = 0
    "bgg-complex --n 4 --k 1",
    "bgg-complex --n 4 --k 1 --format json",
    "bgg-complex --n 5 --k 2 --sign -",
    "bgg-complex --n 5 --k 2 --sign - --format json",
    "bgg-complex --n 4 --k 3 --format json",
    "bgg-complex --n 4 --k 0 --conjectural",
    "bgg-complex --n 4 --k 0 --conjectural --format json",
    "bgg-complex --n 4 --k 0",
    # verify-maximal: all rows and one row, perturbed, without the kernel
    "verify-maximal --n 3",
    "verify-maximal --n 3 --format json",
    "verify-maximal --n 4 --k 2",
    "verify-maximal --n 4 --k 2 --sign - --format json",
    "verify-maximal --n 3 --perturb",
    "verify-maximal --n 3 --perturb --format json",
    "verify-maximal --n 3 --no-kernel",
    "verify-maximal --n 3 --k 1 --sign - --no-kernel --format json",
    "verify-maximal --n 3 --k 2 --perturb --no-kernel",
    # geometry-check
    "geometry-check --n 4 --count 20 --seed 3",
    "geometry-check --n 4 --count 20 --seed 3 --format json",
    # render
    "render --what regular --n 3",
    "render --what regular --n 3 --format dot",
    "render --what regular --n 3 --format json",
    "render --what singular --n 4 --k 2",
    "render --what singular --n 4 --k 2 --format dot",
    "render --what singular --n 4 --k 2 --format json",
    "render --what singular --n 5 --k 1 --skip 3 --labels --suppressed",
    # bad input: exit 1 with a message
    "hasse --n 1",
    "hasse --n 4 --crossed 5",
    "hasse",
    "hasse --n x",
    "regular-orbit --n 1",
    "singular-orbit --n 4 --k 9",
    "relative-bgg --n 1 --k 0",
    "penrose-e1 --n 4 --k 0",
    "verify-maximal --n 2",
    "geometry-check --n 4 --count 0",
    "render --what singular --n 4",
    # bad input that the library refuses: one per input rule the CLI reaches
    "penrose-e1 --n 4 --k 4",
    "bgg-complex --n 4 --k 4 --sign -",
    "verify-maximal --n 4 --k 4",
    "singular-orbit --n 1 --k 0",
    "hasse --n 4 --crossed 0",
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(command: str) -> dict:
    """Run one command in process; digests of its output and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_commands(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(golden, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert run(command) == golden[command]


def _at_rank(command: str, n: int) -> str:
    words = command.split()
    words[words.index("--n") + 1] = str(n)
    return " ".join(words)


# the commands that succeed, each of which takes --n
_SUCCEEDING = [c for c, want in json.loads(FIXTURE.read_text()).items() if want["exit"] == 0]


@pytest.mark.parametrize("command", _SUCCEEDING)
def test_no_cycle_grows_with_rank(collector_off, monkeypatch, command):
    """`cli.main` turns the cyclic collector off, so a command may leave
    no reference cycle behind but the argument parser's and, where the
    json module writes the output, its encoder's per-call closures.  Run
    in process once to load its layers, then at n and n + 1, it leaves
    the same garbage at both ranks, and no more than those."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    n = int(command.split()[command.split().index("--n") + 1])
    cli.build_parser()
    parser = gc.collect()
    json.dumps({"n": [n]}, indent=1)
    encoder = gc.collect()
    assert run(command)["exit"] == 0
    gc.collect()
    left = []
    for rank in (n, n + 1):
        assert run(_at_rank(command, rank))["exit"] == 0
        left.append(gc.collect())
    assert left[0] == left[1]
    assert left[0] in (parser, parser + encoder)


def _library_text(args) -> str:
    """A text command's stdout from its one library call and the writer
    its result owns, with no handler of `bgg.cli` in between."""
    if args.command == "hasse":
        return parabolic.hasse_diagram(parabolic.parabolic(args.n, args.crossed)).to_text()
    if args.command == "regular-orbit":
        return orbits.regular_orbit_projection(args.n).to_text()
    if args.command == "singular-orbit":
        return orbits.singular_orbit(args.n, args.k).to_text()
    if args.command == "relative-bgg":
        return penrose.relative_bgg_text(args.n, args.k)
    if args.command == "penrose-e1":
        page = penrose.e1_page if args.page == 1 else penrose.e2_page
        return page(args.n, args.k, args.sign).to_text()
    if args.command == "bgg-complex":
        cx = penrose.assemble_singular_bgg(args.n, args.k, args.sign, args.conjectural)
        return cx.to_text()
    assert args.command == "verify-maximal", args.command
    results = verma.verify_first_operators(
        args.n, k=args.k, sign=args.sign, perturb=args.perturb, kernel=not args.no_kernel
    )
    return "".join(r.to_text() for r in results)


# the succeeding commands that print text, but for geometry-check, whose
# verdict line the CLI writes itself
_TEXT = [
    c
    for c in _SUCCEEDING
    if cli.build_parser().parse_args(shlex.split(c)).format == "text"
    and not c.startswith("geometry-check")
]


def test_every_text_writer_is_covered():
    commands = {c.split()[0] for c in _TEXT}
    assert len(_TEXT) == 22
    assert commands == {
        "hasse", "regular-orbit", "singular-orbit", "relative-bgg",
        "penrose-e1", "bgg-complex", "verify-maximal",
    }


@pytest.mark.parametrize("command", _TEXT)
def test_writers_give_the_golden_text(golden, command):
    """Each result's own text writer, called in process, prints exactly
    the stdout of its command."""
    args = cli.build_parser().parse_args(shlex.split(command))
    assert _digest(_library_text(args)) == golden[command]["stdout"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    FIXTURE.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {FIXTURE}")
