"""The `bgg` package loads its layers lazily."""

import importlib

import pytest

import bgg

LAYERS = ("weyl", "parabolic", "orbits", "penrose", "verma", "geometry", "render")


def test_all_names_every_layer():
    assert sorted(bgg.__all__) == sorted(LAYERS)


def test_import_loads_no_layer(python):
    python(
        "import sys, bgg\n"
        "assert [m for m in sys.modules if m.startswith('bgg.')] == [], sys.modules\n"
        "bgg.orbits\n"
        "assert 'bgg.orbits' in sys.modules and 'bgg.verma' not in sys.modules\n"
    )


def test_star_import_binds_every_layer(python):
    python(
        "from bgg import *\n"
        f"assert [type(m).__name__ for m in ({', '.join(LAYERS)},)] == ['module'] * 7\n"
    )


def test_attribute_is_the_imported_module():
    for name in LAYERS:
        assert getattr(bgg, name) is importlib.import_module(f"bgg.{name}")
    from bgg import orbits

    assert bgg.orbits is orbits


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="nope"):
        bgg.nope


def test_dir_lists_all(python):
    # in a fresh interpreter, before any layer is loaded and bound
    python("import bgg; assert set(bgg.__all__) | {'__version__'} <= set(dir(bgg)), dir(bgg)")
