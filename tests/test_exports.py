"""Every mvdet module's ``__all__`` names exactly the public functions and
classes it defines (constants may be listed too)."""

import importlib
import inspect
import pkgutil

import pytest

import mvdet


def _is_definition(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(mvdet.__path__)))
def test_all_lists_public_definitions(name):
    mod = importlib.import_module(f"mvdet.{name}")
    exported = mod.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    assert all(hasattr(mod, n) and not n.startswith("_") for n in exported)
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_") and _is_definition(obj) and obj.__module__ == mod.__name__
    }
    assert {n for n in exported if _is_definition(getattr(mod, n))} == defined
