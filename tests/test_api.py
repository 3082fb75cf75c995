"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import fasthebb

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(fasthebb.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fasthebb.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
