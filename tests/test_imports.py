"""Every name a ``kvgeom`` module imports is used in that module.

The package's ``__init__.py`` imports names to re-export them, so it is left out. A name counts as used
when it appears as a name in the module's code, or in a string annotation such as ``-> "AffineMap"``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kvgeom"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def test_the_scan_sees_names_in_code_and_in_string_annotations():
    tree = ast.parse(
        "import os.path\nfrom a import B, c as d, e\n"
        "def f(x: 'B') -> 'list[e]':\n    return os\n"
    )
    assert _imported(tree) == {"os": 1, "B": 2, "d": 2, "e": 2}
    assert set(_imported(tree)) - _used(tree) == {"d"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported(tree)
    unused = sorted(f"{name} (line {imported[name]})" for name in set(imported) - _used(tree))
    assert unused == [], f"{path.name} imports names it does not use"
