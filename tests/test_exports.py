import importlib
import pkgutil

import pytest

import tsfem

MODULES = sorted(info.name for info in pkgutil.iter_modules(tsfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tsfem.{name}")
    assert hasattr(module, "__all__"), f"tsfem.{name} has no __all__"
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"tsfem.{name}.__all__ names missing attributes: {missing}"
