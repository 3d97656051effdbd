"""Shared helpers for the test suite."""

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


@pytest.fixture(scope="session")
def load():
    return load_fixture


def run_python(code, *args):
    """Run `code` in a fresh interpreter with src on the path; a non-zero
    exit fails the test.  Returns the captured stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    return done.stdout


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
