"""Package-level checks: every public name a module declares exists."""

import importlib
import pkgutil

import pytest

import lpn

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
