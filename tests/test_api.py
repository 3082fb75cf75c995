"""Every name a module lists in ``__all__`` exists in that module, and has a
caller outside its own tests: a reference in the package source, other than
its own definition and ``__all__`` entry, or in the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fasthebb

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    m.name for m in pkgutil.iter_modules(fasthebb.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fasthebb.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _is_own(stmt, name):
    """Whether the module-level ``stmt`` defines ``name`` or ``__all__``."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id in (name, "__all__") for t in targets)


def _references(tree, skip=None):
    """The names a tree refers to: bare names, attributes and string
    constants (a tracer wraps functions by their name), outside the
    module-level statements that ``skip`` picks."""
    found = set()
    for stmt in tree.body:
        if skip is not None and skip(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def _callers():
    """Source files that count as callers: the package and the benchmark
    harness, without the benchmark's tests."""
    files = sorted((ROOT / "src" / "fasthebb").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text()) for path in files}


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_caller(name):
    module = importlib.import_module(f"fasthebb.{name}")
    own = ROOT / "src" / "fasthebb" / f"{name}.py"
    trees = _callers()
    unused = []
    for public in getattr(module, "__all__", ()):
        if not any(
            public in _references(tree, (lambda stmt: _is_own(stmt, public)) if path == own else None)
            for path, tree in trees.items()
        ):
            unused.append(public)
    assert unused == []
