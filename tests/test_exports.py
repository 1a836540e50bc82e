"""Every name a kvnsim module lists in ``__all__`` exists, so a star import works."""

import importlib
import pkgutil

import pytest

import kvnsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(kvnsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"kvnsim.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from kvnsim.{name} import *", namespace)
    assert set(exported) <= set(namespace)
