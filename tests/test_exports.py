"""Every name a module exports through ``__all__`` must resolve."""

import importlib
import pkgutil

import pytest

import nvflow

MODULES = ["nvflow"] + [f"nvflow.{info.name}"
                        for info in pkgutil.iter_modules(nvflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
