"""Every name a mottreg module exports in __all__ exists."""
import importlib
import pkgutil

import mottreg


def test_every_exported_name_exists():
    modules = [mottreg] + [importlib.import_module(f"mottreg.{info.name}")
                           for info in pkgutil.iter_modules(mottreg.__path__)]
    assert len(modules) > 10
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
