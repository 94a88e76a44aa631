"""Every name a ``src/moncoh`` module imports is used in that module.

The package re-exports names in ``__init__.py``, which is skipped; any
other module that imports a name it never reads is reported, with the
line of the import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1]
                             / "src" / "moncoh").glob("*.py")
                 if p.name != "__init__.py")


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                out[name] = node.lineno
    return out


def used(tree: ast.Module) -> set[str]:
    """Every name read in the module, also inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value,
                                                                 str):
                    names |= used(ast.parse(part.value, mode="eval"))
    return names


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"grid.py", "totalcx.py", "leech.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    names = used(tree)
    unused = sorted((line, name) for name, line in imported(tree).items()
                    if name not in names)
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("from typing import Callable, Sequence\n"
                     "import os.path\n"
                     "def f(x: 'Sequence[int]') -> None:\n"
                     "    return None\n")
    assert sorted(set(imported(tree)) - used(tree)) == ["Callable", "os"]
