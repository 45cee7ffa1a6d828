"""Guards for the benchmark harness in ``perfbench/``, so that it cannot rot.

The harness times layers by replacing nvflow functions at the names their
callers look them up by; a renamed or moved function leaves a name the tracer
cannot find, and that layer's traced numbers read 0 without an error.  These
tests import the harness from the source checkout and run its smoke mode.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import nvflow

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = Path(nvflow.__file__).resolve().parent.parent


def run_python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH", "")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, **kwargs)


def test_tracer_finds_every_patched_name():
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        print(json.dumps(tracer.missing))
    """)
    proc = run_python(["-c", script], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_smoke_run_passes():
    proc = run_python([str(PERFBENCH / "run.py"), "--smoke"], timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke: 0 failed"
