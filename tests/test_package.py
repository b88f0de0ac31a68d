"""Package hygiene: every name a module of ``sste`` imports is read there."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sste").glob("*.py"))


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
