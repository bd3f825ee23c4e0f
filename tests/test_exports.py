"""Public names: one ``__all__`` per module, all re-exported by the package."""

import importlib
import importlib.util
import os

import pytest

import evidkit

MODULES = ("evidence", "exceptions", "generic", "glm", "selection")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_layers():
    """``LAYERS`` of the benchmark tracer, read without importing the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name", MODULES)
def test_module_names_resolve_on_package(module_name):
    module = importlib.import_module(f"evidkit.{module_name}")
    for name in module.__all__:
        assert getattr(evidkit, name) is getattr(module, name)


def test_package_list_is_sorted_union():
    union = set()
    for module_name in MODULES:
        union.update(importlib.import_module(f"evidkit.{module_name}").__all__)
    assert evidkit.__all__ == sorted(evidkit.__all__)
    assert set(evidkit.__all__) == union


def test_traced_functions_importable():
    for layer, names in _tracing_layers().items():
        module = importlib.import_module(f"evidkit.{layer}")
        for name in names:
            assert callable(getattr(module, name))


def test_laplace_curvature_is_exported():
    assert evidkit.laplace_curvature is evidkit.evidence.laplace_curvature
