"""Package surface: every exported name resolves, the package exports
exactly its layers' own lists, and every attribute the benchmark looks up
resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import bovirial
from bovirial import bo_solver, experiment_cli, inequality_harness, spectral_core, virial_diagnostics

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["bovirial"] + [f"bovirial.{m.name}" for m in pkgutil.iter_modules(bovirial.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_surface_is_the_layers_all():
    # the package declares no public name of its own: its namespace is the
    # four library layers' __all__, in layer order, object for object
    layers = (spectral_core, bo_solver, virial_diagnostics, inequality_harness)
    assert bovirial.__all__ == ["__version__", *(n for m in layers for n in m.__all__)]
    assert [(m.__name__, n) for m in layers for n in m.__all__
            if getattr(bovirial, n) is not getattr(m, n)] == []


def test_every_attribute_the_benchmark_patches_resolves():
    # perfbench/tracer.py swaps module attributes for timing wrappers and
    # perfbench/probe.py calls experiment_cli.make_grid; a refactor that
    # drops one of them breaks the benchmark, so tier-1 checks them too.
    # The tracer is run from its source, without importing it as a module
    # (which would also write a bytecode cache under perfbench/).
    path = ROOT / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    table = namespace["_traced_attributes"]() + [(experiment_cli, "make_grid", "probe")]
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in table
               if not callable(getattr(module, attr, None))]
    assert missing == []
