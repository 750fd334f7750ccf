"""Public API: every exported name resolves."""

import importlib
import pkgutil

import pftcs


def test_public_names_resolve():
    modules = [pftcs] + [importlib.import_module(f"pftcs.{info.name}")
                         for info in pkgutil.iter_modules(pftcs.__path__)]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
