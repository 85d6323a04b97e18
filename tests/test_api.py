import importlib
import pkgutil

import pytest

import stride_lab

MODULES = ["stride_lab", *(f"stride_lab.{m.name}" for m in pkgutil.iter_modules(stride_lab.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from stride_lab import *", namespace)
    assert set(stride_lab.__all__) <= set(namespace)
