"""Every name a module exports through ``__all__`` must resolve, and the
package's top level exports nothing but its version: the API is the
submodules."""

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
