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


# Spans a rigid and a rope `run` must open.  `deformable.plan` and
# `deformable.exec_step` are left out: the rollout plans through the private
# `_plan`, so those patched names are never called.
TRACED_SPANS = (
    "sim.generate", "sim.bundle_write", "fileio.hash", "fileio.ppm_write",
    "flow.calibrate", "flow.distill", "flow.score", "flow.render",
    "rigid.pose_fit", "rigid.grasp", "kinematics.ik", "kinematics.fk",
    "kinematics.sphere_fk", "trajopt.optimize", "trajopt.collision", "trajopt.lm",
    "trajopt.residual", "trajopt.jacobian", "deformable.mpc",
)


def test_traced_layers_are_called(tmp_path):
    script = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        from nvflow.cli import main     # imported before the patches, as child.py does
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        assert main(["run", "--seed", "0", "--candidates", "2",
                     "--out-dir", {str(tmp_path / "rigid")!r}]) == 0
        assert main(["run", "--config", {str(SRC / "nvflow/fixtures/scene_rope.json")!r},
                     "--horizon", "2", "--out-dir", {str(tmp_path / "rope")!r}]) == 0
        print(json.dumps(tracer.calls))
    """)
    proc = run_python(["-c", script], timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [name for name in TRACED_SPANS if not calls.get(name)] == []
