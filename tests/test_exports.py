"""Every name a stringc module exports in __all__ exists."""

import importlib
import pkgutil

import pytest

import stringc

MODULES = sorted(m.name for m in pkgutil.iter_modules(stringc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stringc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_modules_found():
    assert {"classify", "perms", "sggi"} <= set(MODULES)
