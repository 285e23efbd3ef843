import importlib
import pkgutil

import pytest

import bdstirling

MODULES = sorted(
    f"bdstirling.{info.name}" for info in pkgutil.iter_modules(bdstirling.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
