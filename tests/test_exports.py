"""Every name a stringc module exports in __all__ exists, and so does every
name the benchmark tracer patches."""

import importlib
import pkgutil
from pathlib import Path

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


def test_bench_tracer_patches_resolve(monkeypatch):
    # bench/tracing.py patches library names given as strings; a name that
    # src/ drops would otherwise break only `bench/run.py --trace 1`.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import Tracer

    from stringc import classify, families

    originals = (classify.check_intersection_property, families.canonical_form)
    tracer = Tracer()
    try:
        tracer.install()
        assert families.canonical_form is not originals[1]
    finally:
        tracer.uninstall()
    assert (classify.check_intersection_property,
            families.canonical_form) == originals
