"""Source hygiene checks that need no linter."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from cachenet.experiment import AXES, FIXED_FIELDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cachenet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ only re-exports


def unused_imports(source: str) -> list:
    """Names bound by an import and never read; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def assert_lines(source: str) -> list:
    """Lines of ``assert`` statements, which ``python -O`` strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_detector_finds_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\nfrom a import b as c\n") == [(2, "c")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exports_defined(path):
    """Every ``__all__`` name exists, so ``from cachenet.<module> import *`` works."""
    module = importlib.import_module(f"cachenet.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []


def test_detector_finds_assert():
    assert assert_lines("x = 1\nassert x, 'never under -O'\nif not x:\n    raise ValueError\n") == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == []


def test_readme_lists_the_accepted_spec_keys():
    """README's sentence naming the accepted sweep-spec keys matches the code."""
    sentence = re.search(r"Besides (.*?)\.\s+Each\s+is\s+optional", (ROOT / "README.md").read_text(), re.S)
    named = set(re.findall(r"`(\w+)`", sentence.group(1))) - {"SimConfig", "scheme", "seed"}
    assert named == set(AXES) | set(FIXED_FIELDS)
