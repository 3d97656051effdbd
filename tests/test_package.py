"""The `bgg` package loads its layers lazily."""

import ast
import importlib
from pathlib import Path

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
        "import bgg.verma\n"
        "assert 'bgg.parabolic' not in sys.modules, sys.modules\n"
        "bgg.orbits.singular_orbit(4, 2)\n"
        "bgg.orbits.regular_orbit_projection(4)\n"
        "assert 'bgg.parabolic' not in sys.modules, sys.modules\n"
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


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in source (function
    bodies included) that no expression in source reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_check_sees_one():
    assert _unused_imports("from bgg import orbits, weyl\nweyl.rho(2)\n") == ["orbits"]
    assert _unused_imports("def f():\n    import json\n    return json\n") == []


def test_every_import_is_used():
    """A subcommand loads only the layers it imports, so an unused
    cross-layer import costs load time."""
    modules = sorted(Path(bgg.__file__).parent.glob("*.py"))
    assert len(modules) == len(LAYERS) + 3  # __init__, cli and the W^p search, cosets
    unused = {m.name: _unused_imports(m.read_text()) for m in modules}
    assert {name: names for name, names in unused.items() if names} == {}
