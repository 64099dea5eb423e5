"""Every name a module of the package exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import ddmech

MODULES = ["ddmech"] + [
    f"ddmech.{info.name}" for info in pkgutil.iter_modules(ddmech.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
