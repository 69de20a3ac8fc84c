"""Package-level checks: every public name a module declares exists,
every name the package re-exports is one its module declares, and
new_source takes the parameters of the class it builds."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import lpn
from lpn.instance import ExampleSource, new_source

MODULES = sorted(m.name for m in pkgutil.iter_modules(lpn.__path__, "lpn."))


def test_every_module_is_listed():
    assert "lpn.gf2" in MODULES and "lpn.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry imports fine and fails only on `import *`
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)


def test_package_exports_are_in_their_modules_all():
    # a name retired from a module's __all__ must not live on as a
    # package export
    with open(lpn.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported, stale = 0, []
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            name = f"lpn.{node.module}"
        elif node.level == 0 and node.module.startswith("lpn."):
            name = node.module
        else:
            continue
        listed = importlib.import_module(name).__all__
        imported += len(node.names)
        stale += [f"{name}.{a.name}" for a in node.names if a.name not in listed]
    assert imported > 0
    assert stale == []


def test_new_source_takes_the_parameters_of_example_source():
    # new_source forwards by keyword, so a parameter added to or dropped
    # from one of the two must be added to or dropped from the other
    init = list(inspect.signature(ExampleSource.__init__).parameters.values())
    assert list(inspect.signature(new_source).parameters.values()) == init[1:]
