"""Every mvdet module's ``__all__`` names exactly the public functions and
classes it defines (constants may be listed too), and every module-level
private name is used somewhere in the package."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

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


_SRC = Path(mvdet.__file__).parent


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree: ast.AST) -> Counter:
    """Names read in ``tree``, bare or as an attribute (``camgeo._json_write``)."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    )


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if uses[name] - _uses(node)[name] == 0
    ]
    assert unused == []
