import importlib
import pkgutil

import zxna


def test_every_exported_name_resolves():
    missing = [f"zxna.{name}" for name in zxna.__all__ if not hasattr(zxna, name)]
    for info in pkgutil.iter_modules(zxna.__path__):
        mod = importlib.import_module(f"zxna.{info.name}")
        missing += [f"{mod.__name__}.{name}" for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
