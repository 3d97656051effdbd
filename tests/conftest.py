"""Shared helpers for the test suite."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def load_fixture(name):
    """Load a frozen diagram fixture by basename (without extension)."""
    return json.loads((FIXTURES / f"{name}.json").read_text())


@pytest.fixture(autouse=True)
def _collector_restored():
    """`cli.main` turns the cyclic collector off for the rest of its
    process; a test that calls it in process, or turns the collector off
    itself, leaves it as it found it for the tests after."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def collector_off():
    """The cyclic collector off, as `cli.main` leaves it, with every object
    made so far frozen out of its collections: `gc.collect()` then walks
    only what the test makes, and returns the objects it found in cycles."""
    gc.disable()
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def load():
    return load_fixture


def spawn_python(code, *args):
    """Run `code` in a fresh interpreter with src on the path and return
    the finished process, with its exit code and captured output."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )


def run_python(code, *args):
    """Run `code` in a fresh interpreter with src on the path; a non-zero
    exit fails the test.  Returns the captured stdout."""
    done = spawn_python(code, *args)
    done.check_returncode()
    return done.stdout


def bracket_elem(lie, dx, dy):
    """[dx, dy] for elements {label: coeff} of lie, by structure constants."""
    out = {}
    for lx, cx in dx.items():
        for ly, cy in dy.items():
            for lz, cz in lie.bracket(lx, ly):
                v = out.get(lz, 0) + cx * cy * cz
                if v:
                    out[lz] = v
                else:
                    out.pop(lz, None)
    return out


def jacobi_holds(lie, x, y, z):
    """[x, [y, z]] = [[x, y], z] + [y, [x, z]] for labels x, y, z of lie."""
    lhs = bracket_elem(lie, {x: 1}, bracket_elem(lie, {y: 1}, {z: 1}))
    for part in (
        bracket_elem(lie, bracket_elem(lie, {x: 1}, {y: 1}), {z: 1}),
        bracket_elem(lie, {y: 1}, bracket_elem(lie, {x: 1}, {z: 1})),
    ):
        for lab, c in part.items():
            v = lhs.get(lab, 0) - c
            if v:
                lhs[lab] = v
            else:
                lhs.pop(lab, None)
    return not lhs


@pytest.fixture(scope="session")
def python():
    return run_python


@pytest.fixture(scope="session")
def figure_regular_n8():
    return load_fixture("figure_regular_n8")


@pytest.fixture(scope="session")
def figure_singular_n8_k7():
    return load_fixture("figure_singular_n8_k7")


@pytest.fixture(scope="session")
def figure_singular_n14_k7():
    return load_fixture("figure_singular_n14_k7")


@pytest.fixture(scope="session")
def figure_singular_n8_k1():
    return load_fixture("figure_singular_n8_k1")


@pytest.fixture(scope="session")
def figure_singular_n8_k0():
    return load_fixture("figure_singular_n8_k0")
