"""Golden CLI outputs: SHA-256 digests of stdout and stderr, and the exit
code, for every subcommand in every format and the main option paths.

The digests in fixtures/cli_golden.json pin the bytes the CLI prints, so
a refactor of the result models or of cli.py cannot change them
unnoticed.  Rewrite the fixture only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import os
import pathlib
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bgg import cli

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


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    FIXTURE.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {FIXTURE}")
