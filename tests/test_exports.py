from __future__ import annotations

import importlib
import pkgutil

import pqvol


def test_every_exported_name_resolves():
    modules = [pqvol] + [
        importlib.import_module(f"pqvol.{info.name}") for info in pkgutil.iter_modules(pqvol.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_star_import_succeeds():
    namespace: dict[str, object] = {}
    exec("from pqvol import *", namespace)
    assert set(pqvol.__all__) <= namespace.keys()
