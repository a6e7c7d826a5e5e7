"""Every name a stringc module exports in __all__ exists, and so does every
name the benchmark tracer patches; a name a module imports but never uses
is one the tracer patches."""

import ast
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


def test_unused_imports_are_tracer_patches(monkeypatch):
    # A name counts as used when the module reads it or lists it in
    # __all__.  The rest are kept only for bench/tracing.py to patch, so
    # they leave with their PATCHES rows.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracing import PATCHES

    unused = set()
    for name in MODULES:
        tree = ast.parse(Path(stringc.__path__[0], f"{name}.py").read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        used.update(getattr(importlib.import_module(f"stringc.{name}"),
                            "__all__", ()))
        unused.update((f"stringc.{name}", n) for n in imported - used)
    assert unused <= {(module, attribute) for module, attribute, _ in PATCHES}
    # The walk does see imports: the shim families keeps for the tracer.
    assert ("stringc.families", "sggi_to_graph") in unused
