"""The `bgg` package: its layers load lazily, each import is used, and
no public name or documented reference is stale."""

import ast
import importlib
import re
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


ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _names_read(path: Path) -> set[str]:
    """The identifiers that the code of path reads: names, attributes and
    imported names, and each part of a string that is a dotted name
    ("parabolic.order_bound", as a tracer keys what it wraps)."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                read.update(node.value.split("."))
    return read


def test_every_public_name_is_used():
    """Every public top-level function or class of a layer is read in
    src/bgg, perfbench/ or scripts/, or named in backticks in README.md:
    a name that only the tests call belongs in a test oracle."""
    read = set()
    for folder in ("src/bgg", "perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            read |= _names_read(path)
    documented = {w for span in re.findall(r"`([^`]+)`", README) for w in re.findall(r"\w+", span)}
    unused = []
    for layer in LAYERS:
        tree = ast.parse((ROOT / "src" / "bgg" / f"{layer}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in read | documented:
                    unused.append(f"{layer}.{node.name}")
    assert unused == []


def _docstrings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef)
    return [ast.get_docstring(node) or "" for node in ast.walk(tree) if isinstance(node, kinds)]


def test_backticked_names_resolve():
    """Every `layer.name` in backticks in README.md or in a docstring of
    src/bgg names an attribute that its module has."""
    modules = sorted(Path(bgg.__file__).parent.glob("*.py"))
    stems = [m.stem for m in modules if m.stem != "__init__"]
    pattern = re.compile(r"`(?:bgg\.)?(%s)\.(\w+)" % "|".join(stems))
    texts = [README] + [d for m in modules for d in _docstrings(m)]
    refs = {match.groups() for text in texts for match in pattern.finditer(text)}
    assert len(refs) >= 20, refs  # the check sees the references
    missing = sorted(
        f"{layer}.{name}"
        for layer, name in refs
        if not hasattr(importlib.import_module(f"bgg.{layer}"), name)
    )
    assert missing == []
