"""Package surface: every exported name resolves, the package exports
exactly its layers' own lists, every attribute the benchmark looks up
resolves, and every export, like every other module-level def and class,
is called in src or kept for a stated reason."""

import ast
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


# exported names that no code in src calls, each kept for a stated reason
UNCALLED_EXPORTS = {
    "bo_rhs",  # single-state API (README, "Library"): the equation's right side
    "invariants",  # single-state API: (I1, I2, E, L1)
    "local_energy",  # single-state API: F
    "diag_record",  # single-state API: a record's cells; perfbench's tracer wraps it
    "conserved_energy",  # single-state API: the Hamiltonian
    "run_trajectory",  # iter_trajectory as a list, for library callers; perfbench's tracer wraps it
    "mass_budget",  # perfbench's tracer times budgets through these two halves
    "energy_budget",  # (experiment_cli imports them for it) until budgets is traced itself
    "run_check",  # tests' single check; perfbench's tracer patches it
    "dealias",  # the 2/3 rule as its own round trip; perfbench's tracer wraps it
    "hilbert",  # H as its own round trip, for library callers and the tests' reference
    "deriv",  # helpers; perfbench's tracer wraps both (virial_diagnostics imports them for it)
}


def _loaded_names(path):
    """Every bare name `path` loads, with the aliases of its `import ... as`
    statements resolved to the imported name. (src reaches its own modules'
    names only through `from ... import`, never as module attributes.)"""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    return {aliases.get(node.id, node.id) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_called_in_src():
    paths = sorted((ROOT / "src" / "bovirial").glob("*.py"))
    loaded = set().union(*map(_loaded_names, paths))
    assert sorted(set(bovirial.__all__) - loaded - UNCALLED_EXPORTS) == []
    # an allowlist entry that gains a caller is dropped from the list
    assert sorted(loaded & UNCALLED_EXPORTS) == []
    # every module-level def and class, private helpers included, is loaded
    # by src code, or is an export of its module that the allowlist keeps
    unused = []
    for path in paths:
        module = importlib.import_module(
            "bovirial" if path.stem == "__init__" else f"bovirial.{path.stem}")
        unused += [f"{path.stem}.{node.name}"
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name not in loaded
                   and not (node.name in module.__all__ and node.name in UNCALLED_EXPORTS)]
    assert unused == []
