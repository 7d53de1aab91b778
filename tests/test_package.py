"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import bovirial

MODULES = ["bovirial"] + [f"bovirial.{m.name}" for m in pkgutil.iter_modules(bovirial.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
