"""Source hygiene checks that need no linter."""

import ast
import importlib
import re
import subprocess
import sys
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


def dead_private_names(sources: dict) -> list:
    """(module, name) for each module-level ``_``-prefixed name that no
    module in ``sources`` (name -> source) reads; dunder names are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in bound
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(dead)


def tuple_index_add_at(source: str) -> list:
    """Lines of ``np.add.at`` calls given a tuple index, which leaves add.at's
    1-D fast path (about 5x slower at 512 x 800); a flat index into a
    ``reshape(-1)`` view counts the same cells."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.add.at", "numpy.add.at")
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Tuple))


def assert_lines(source: str) -> list:
    """Lines of ``assert`` statements, which ``python -O`` strips."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def weight_products(source: str) -> list:
    """Lines of a ``*`` or ``@``, or a numpy product call, with an operand
    reading ``rates``, outside ``Instance.weights``, the one place that forms
    a hop's weight (a name or an attribute of that name counts as a read, and
    so does a name the module binds from a read, as in ``q = demand.rates``):
    a cost, gain or metric that weighs hops by ``demand.rates`` skips the
    weights' exact grid."""
    tree = ast.parse(source)
    exempt = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Instance"
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "weights"
              for node in ast.walk(fn)}
    # (target, value) of each assignment, a tuple assigned a tuple pairwise
    bound = [pair for node in ast.walk(tree) if isinstance(node, ast.Assign) and id(node) not in exempt
             for target in node.targets
             for pair in (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                          and isinstance(node.value, ast.Tuple) else [(target, node.value)])]
    names = {"rates"}

    def reads_rates(node):
        return any(getattr(n, "id", None) in names or getattr(n, "attr", None) == "rates" for n in ast.walk(node))

    while aliases := {t.id for t, v in bound if isinstance(t, ast.Name) and t.id not in names and reads_rates(v)}:
        names |= aliases

    def operands(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
            return [node.left, node.right]
        name = getattr(node.func, "attr", getattr(node.func, "id", None)) if isinstance(node, ast.Call) else None
        return node.args if name in ("multiply", "matmul", "dot", "einsum", "inner", "tensordot", "vdot") else []

    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in exempt and any(map(reads_rates, operands(node))))


def test_detector_finds_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == [(1, "os")]
    assert unused_imports("from __future__ import annotations\nfrom a import b as c\n") == [(2, "c")]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_finds_dead_private_name():
    sources = {
        "a.py": "_DEAD = 1\n_READ = 2\n__dunder__ = 3\ndef _dead_fn(): return _READ\nclass _Dead: pass\n",
        "b.py": "import a\n_x, _y = a._ATTR, 0\nprint(_y)\n",
    }
    assert dead_private_names(sources) == [("a.py", "_DEAD"), ("a.py", "_Dead"), ("a.py", "_dead_fn"), ("b.py", "_x")]


def test_no_dead_private_names():
    """Every module-level private name in ``src/cachenet`` has a reader in ``src/``."""
    sources = {p.name: p.read_text() for p in (ROOT / "src").rglob("*.py")}
    assert dead_private_names(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_exports_defined(path):
    """Every ``__all__`` name exists, so ``from cachenet.<module> import *`` works."""
    module = importlib.import_module(f"cachenet.{path.stem}")
    assert [name for name in getattr(module, "__all__", []) if not hasattr(module, name)] == []


def test_detector_finds_tuple_index_add_at():
    source = ("np.add.at(a, (rows, cols), 1)\nnp.add.at(a.reshape(-1), rows * m + cols, 1)\n"
              "numpy.add.at(a, (r[h], c[h]), w)\nnp.add.at(a, idx, 1)\nnp.maximum.at(a, (r, c), 1)\n")
    assert tuple_index_add_at(source) == [1, 3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_add_at_takes_flat_indices(path):
    assert tuple_index_add_at(path.read_text()) == []


def test_detector_finds_weight_product():
    source = ("class Instance:\n    def weights(self):\n        return self.demand.rates * 1.0\n"
              "cost = (inst.demand.rates * dist).sum()\n"
              "gain = rates.T @ saved\n"
              "best = np.matmul(instance.demand.rates[:, k], buf)\n"
              "total = float(rates.sum())\nw = inst.weights * dist\nhit = q[x].sum() / rates.sum()\n"
              "q = instance.demand.rates\ntraffic = (q * dist).sum()\n"
              "r = q\nsaved = np.dot(r, hops)\n"
              "w2, q2 = inst.weights, inst.demand.rates\nmetric = (w2 * dist).sum() / w2.sum() + q2[x].sum() / q2.sum()\n")
    assert weight_products(source) == [4, 5, 6, 11, 13]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_weight_product(path):
    """No cost, gain or metric weighs hops by ``demand.rates``: each reads
    ``Instance.weights``, the rates on the instance's exact grid."""
    assert weight_products(path.read_text()) == []


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


def test_cells_leave_numpy_ma_unimported():
    """A tiny cell of each scheme, in a fresh interpreter, never imports
    ``numpy.ma`` (about 1 MB of peak RSS; ``np.unique`` is one way in)."""
    script = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
              "from cachenet.simnet import Scheme, SimConfig, run_simulation\n"
              "for scheme in Scheme:\n"
              "    run_simulation(SimConfig(scheme, nodes=6, objects=10, cache_fraction=0.2,\n"
              "                             requests_per_epoch=200, epochs=3, warmup_epochs=1))\n"
              "print('numpy.ma' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
