import importlib
import pkgutil

import pytest

import choimarg

MODULES = ["choimarg"] + [
    f"choimarg.{info.name}" for info in pkgutil.iter_modules(choimarg.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a name left in __all__ after its definition is deleted breaks `import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
