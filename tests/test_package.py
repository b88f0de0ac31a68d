"""Package hygiene: every name a module of ``sste`` imports is read there,
and every function and class it defines is read outside the tests."""

import ast
import functools
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = sorted((REPO / "src" / "sste").glob("*.py"))
# The code that may read a definition of ``sste``: the package, its scripts
# and the benchmark, tests excluded.
READERS = sorted(path for folder in ("src", "scripts", "perfbench")
                 for path in (REPO / folder).rglob("*.py")
                 if "tests" not in path.relative_to(REPO).parts)


def unread_imports(source: str) -> list[str]:
    """``line N: name`` for each name that ``source`` imports and never reads;
    ``from __future__`` imports are features, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .data import Dataset, load_tsv as load\nnp = load(Dataset)\n")
    assert unread_imports(source) == ["line 2: os", "line 3: np"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def read_names(source: str) -> set[str]:
    """The names ``source`` reads, bare or as an attribute; a module-level
    definition's reads of its own name (a recursive call) do not count."""
    names = set()
    for top in ast.parse(source).body:
        names |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(top)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load)} - {getattr(top, "name", None)}
    return names


def unread_definitions(source: str, read: set[str]) -> list[str]:
    """``line N: name`` for each module-level function or class of ``source``
    whose name is not in ``read``."""
    return [f"line {node.lineno}: {node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in read]


@functools.cache
def read_outside_tests() -> frozenset[str]:
    return frozenset().union(*(read_names(path.read_text(encoding="utf-8")) for path in READERS))


def test_the_check_finds_an_unread_definition():
    source = ("def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n"
              "\n\nclass Unused:\n    pass\n")
    reader = "import mod\nmod.used()\n"
    read = read_names(source) | read_names(reader)
    assert unread_definitions(source, read) == ["line 5: recursive", "line 9: Unused"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_definition_is_read_outside_the_tests(path):
    assert unread_definitions(path.read_text(encoding="utf-8"), read_outside_tests()) == []
