"""Every name a module lists in ``__all__`` exists in that module, and has a
caller outside its own tests: a reference in the package source, other than
its own definition and ``__all__`` entry, or in the benchmark.  Every error
the package raises is one the CLI maps to an exit code, and every error class
is raised.  No docstring or comment in the package holds a time figure:
measurements belong in ``CHANGES.md``."""

import ast
import builtins
import importlib
import io
import pkgutil
import re
import tokenize
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


def _raises():
    """``(file name, line, raised name)`` for each ``raise`` in the package;
    the name is None for a bare re-raise."""
    for path in sorted((ROOT / "src" / "fasthebb").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = None if exc is None else getattr(exc, "id", getattr(exc, "attr", ast.unparse(exc)))
                yield path.name, node.lineno, name


def _error_classes():
    tree = ast.parse((ROOT / "src" / "fasthebb" / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def test_every_raise_is_an_error_the_cli_maps():
    """A raise names a class from ``errors`` (the CLI prints its message and
    exits with its code), an ``OSError`` (a data error), or re-raises."""
    classes = _error_classes()

    def mapped(name):
        builtin = getattr(builtins, name or "", None)
        return name is None or name in classes or (isinstance(builtin, type) and issubclass(builtin, OSError))

    assert [raise_ for raise_ in _raises() if not mapped(raise_[2])] == []


def test_every_error_class_is_raised():
    """No error class goes unused; ``FastHebbError`` is the base the CLI catches."""
    raised = {name for _, _, name in _raises()}
    assert sorted(_error_classes() - raised) == ["FastHebbError"]


_TIME_FIGURE = re.compile(r"\d+(?:\.\d+)?\s?(?:ms|µs|ns)\b")


def _docs_and_comments(source):
    """``(line, text)`` for each docstring (read with ``ast``) and comment
    (read with ``tokenize``) of ``source``; other strings are not included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def test_docs_and_comments_hold_no_time_figures():
    """A docstring states a contract and a comment a reason; a figure such as
    ``15.9 ms`` is a measurement of one machine."""
    found = [
        (path.name, line, match)
        for path in sorted((ROOT / "src" / "fasthebb").glob("*.py"))
        for line, text in _docs_and_comments(path.read_text(encoding="utf-8"))
        for match in _TIME_FIGURE.findall(text)
    ]
    assert found == []
