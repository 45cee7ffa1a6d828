"""Every name a module exports through ``__all__`` must resolve, the
package's top level exports nothing but its version (the API is the
submodules), and every module-level function or class has a caller."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nvflow

MODULES = ["nvflow"] + [f"nvflow.{info.name}"
                        for info in pkgutil.iter_modules(nvflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_top_level_exports_only_the_version():
    # A fresh interpreter: in this one, other tests have imported submodules.
    script = ("import json, sys, nvflow; print(json.dumps([nvflow.__all__, "
              "sorted(m for m in sys.modules if m.startswith('nvflow.'))]))")
    src = str(Path(nvflow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    exported, submodules = json.loads(proc.stdout)
    assert exported == ["__version__"]
    assert submodules == []


ROOT = Path(__file__).resolve().parents[1]


def _referenced(node: ast.AST) -> set[str]:
    """The names, attributes and imported names under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def _patched(tree: ast.Module) -> set[str]:
    """The names ``patch(owner, attr, ...)`` calls replace: each attr, and
    the class of an owner written ``module:Class``."""
    found = set()
    for sub in ast.walk(tree):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "patch" and len(sub.args) >= 2
                and all(isinstance(a, ast.Constant) for a in sub.args[:2])):
            owner, attr = sub.args[0].value, sub.args[1].value
            found |= {attr, owner.rpartition(":")[2]} - {""}
    return found


def test_every_module_level_definition_has_a_caller():
    """A function or class of ``src/nvflow`` that nothing in ``src/`` or
    ``perfbench/`` names, outside its own definition, is API only its
    tests use.  An ``__all__`` entry is a string, so it is no reference."""
    defined: dict[str, str] = {}
    uses: dict[str, set] = {}          # name -> the definitions referring to it
    for path in sorted([*(ROOT / "src" / "nvflow").glob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_package = path.parent.name == "nvflow"
        for node in tree.body:
            own = None
            if in_package and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                ast.ClassDef)):
                own = node.name
                defined[own] = path.name
            for name in _referenced(node):
                uses.setdefault(name, set()).add(own)
        if path.name == "tracing.py":
            for name in _patched(tree):
                uses.setdefault(name, set()).add(None)
    uncalled = sorted(f"{module}: {name}" for name, module in defined.items()
                      if not uses.get(name, set()) - {name})
    assert uncalled == []
