import importlib
import pkgutil

import pytest

import dswave

_MODULES = ["dswave"] + sorted(f"dswave.{m.name}"
                               for m in pkgutil.iter_modules(dswave.__path__)
                               if m.name != "__main__")


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    # dsbench/tracer.py wraps each module's public functions by __all__ and
    # skips a name that does not resolve, so a stale entry would drop a
    # layer from the benchmark trace without an error
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
