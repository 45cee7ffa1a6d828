"""Benchmark of the nvflow pipeline, run through the ``nvflow`` CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload once, reduced size
    python3 perfbench/run.py --self-test    # each output check rejects a tampered output

Run it from the root of a source checkout: the program is imported from
``src/``.  Load is a closed loop: this process is the one client and issues
one command at a time, each in a fresh interpreter that calls
``nvflow.cli.main`` (``child.py``), as a user's shell would.  BLAS is pinned
to one thread in the environment of every process it starts.

A run repeats whole rounds of its workload's commands for ``--seconds`` (at
least one round, and no round that would end past that time), checks every
command's outputs (``checks.py``), and prints the machine, one line per
metric, and last a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
untraced, with times in reference seconds (``reference.py``); with
``--trace 1`` every command runs twice, untraced and then traced
(``tracing.py``), and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)   # before numpy loads, for the checks made in this process

import numpy as np  # noqa: E402  (needs the pin above)

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9        # fresh processes timed for setup_s, after one warm-up
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "final_cost": "cost"}
PER_LAYER = {
    "sim.generate_s": "s", "sim.bundle_write_s": "s",
    "fileio.ppm_write_s": "s", "fileio.hash_s": "s", "fileio.hash_mb": "MB",
    "fileio.out_mb": "MB",
    "flow.render_s": "s", "flow.calibrate_s": "s", "flow.distill_s": "s", "flow.score_s": "s",
    "rigid.pose_fit_s": "s", "rigid.grasp_s": "s",
    "rigid.final_trans_err_mm": "mm", "rigid.final_rot_err_deg": "deg",
    "kinematics.ik_s": "s", "kinematics.fk_calls": "count",
    "kinematics.sphere_fk_s": "s", "kinematics.sphere_fk_configs": "count",
    "trajopt.optimize_s": "s", "trajopt.jacobian_s": "s", "trajopt.jacobian_evals": "count",
    "trajopt.residual_s": "s", "trajopt.collision_s": "s", "trajopt.lm_self_s": "s",
    "trajopt.lm_accepted": "count", "trajopt.lm_rejected": "count",
    "deformable.mpc_s": "s", "deformable.plan_s": "s", "deformable.plan_calls": "count",
    "deformable.exec_step_s": "s", "deformable.sample_steps": "count",
    "deformable.sample_steps_per_s": "1/s", "deformable.track_rmse_mm": "mm",
    "cli.self_s": "s", "trace.run_s": "s", "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (not a failed nvflow command)."""


@dataclass
class OpResult:
    key: str
    traced: bool
    exited: bool                  # the command exited 0
    fails: list[str]
    run_s: float = float("nan")   # wall seconds of nvflow.cli.main
    ref_s: float = float("nan")   # the same in reference seconds (reference.py)
    peak_rss_mb: float = float("nan")
    out_mb: float = 0.0
    quality: dict = field(default_factory=dict)
    trace: dict | None = None


class Runner:
    """Starts one fresh process per step, waits for it, and checks what it wrote.

    A pass of the reference kernel, made in this process while no child
    runs, follows every step; so every step is bracketed by two passes, and
    a pass closes one step's bracket and opens the next one's.
    """

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.env = {**os.environ, **BLAS_PIN}
        self.manifests: dict[str, bytes] = {}
        self.kernel_s = [reference.kernel_s()]

    def _child(self, spec: dict) -> tuple[int | str, dict | None, str, tuple[float, float]]:
        """Run one step; also return the kernel passes that bracket it."""
        result = self.work / "child.json"
        result.unlink(missing_ok=True)
        spec = {**spec, "src": str(self.src), "result": str(result)}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                  cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", None, f"no exit within {CHILD_TIMEOUT_S} s", (0.0, 0.0)
        finally:
            self.kernel_s.append(reference.kernel_s())
        report = json.loads(result.read_text()) if result.exists() else None
        lines = proc.stderr.strip().splitlines()
        bracket = (self.kernel_s[-2], self.kernel_s[-1])
        return proc.returncode, report, lines[-1] if lines else "", bracket

    def setup_s(self) -> tuple[float, float]:
        """Set-up time of one fresh process: wall seconds and reference seconds."""
        code, report, err, bracket = self._child({"mode": "setup"})
        if report is None:
            raise BenchError(f"setup process failed ({code}): {err}")
        return report["setup_s"], reference.to_reference(report["setup_s"], *bracket)

    def op(self, workload, op, trace: bool = False, keep: Path | None = None) -> OpResult:
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        code, report, err, bracket = self._child(
            {"mode": "op", "argv": [*op.argv, "--out-dir", str(out)], "trace": trace})
        rc = report["rc"] if report is not None else code
        result = OpResult(op.key, trace, rc == 0, [] if rc == 0 else [f"exit {rc}: {err}"])
        if report is not None:
            result.run_s = report["run_s"]
            result.ref_s = reference.to_reference(report["run_s"], *bracket)
            result.peak_rss_mb = report["peak_rss_mb"]
            result.trace = report.get("trace")
        if result.exited:
            try:
                result.fails, result.quality = workload.check(out)
                manifest = (out / "run_manifest.json").read_bytes()
            except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                result.fails.append(f"output: unreadable ({exc!r})")
            else:
                result.fails += checks.check_repeat(
                    self.manifests.setdefault(op.key, manifest), manifest)
        if out.exists():
            result.out_mb = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 2**20
            if keep is not None:
                shutil.move(str(out), str(keep))
            else:
                shutil.rmtree(out)
        return result


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": int(BLAS_PIN["OPENBLAS_NUM_THREADS"]), "commit": commit}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def quality_by_key(results: list[OpResult]) -> dict[str, dict]:
    """One quality record per distinct input, so a repeated input weighs once."""
    out: dict[str, dict] = {}
    for r in results:
        out.setdefault(r.key, r.quality)
    return out


def end_to_end(setups: list[float], ok: list[OpResult]) -> dict:
    """Times are medians in reference seconds (``reference.py``)."""
    quality = quality_by_key(ok)
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.ref_s for r in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        "final_cost": _mean(q["final_cost"] for q in quality.values()),
    }


def per_layer(traced: list[OpResult], untraced: list[OpResult]) -> dict:
    """Per traced command: mean seconds, calls and amounts of each span."""
    def mean_of(kind: str, name: str) -> float:
        return _mean(r.trace[kind].get(name, 0.0) for r in traced)

    def s(name: str) -> float:
        return mean_of("seconds", name)

    quality = quality_by_key(traced).values()
    run_s = _mean(r.run_s for r in traced)
    accepted = mean_of("amounts", "trajopt.lm")
    plan_s = s("deformable.plan")
    steps = mean_of("amounts", "deformable.plan")
    return {
        "sim.generate_s": s("sim.generate"),
        "sim.bundle_write_s": s("sim.bundle_write"),
        "fileio.ppm_write_s": s("fileio.ppm_write"),
        "fileio.hash_s": s("fileio.hash"),
        "fileio.hash_mb": mean_of("amounts", "fileio.hash"),
        "fileio.out_mb": _mean(r.out_mb for r in traced),
        "flow.render_s": s("flow.render"),
        "flow.calibrate_s": s("flow.calibrate"),
        "flow.distill_s": s("flow.distill"),
        "flow.score_s": s("flow.score"),
        "rigid.pose_fit_s": s("rigid.pose_fit"),
        "rigid.grasp_s": s("rigid.grasp"),
        "rigid.final_trans_err_mm": _mean(q.get("final_trans_err_mm", 0.0) for q in quality),
        "rigid.final_rot_err_deg": _mean(q.get("final_rot_err_deg", 0.0) for q in quality),
        "kinematics.ik_s": s("kinematics.ik"),
        "kinematics.fk_calls": mean_of("calls", "kinematics.fk"),
        "kinematics.sphere_fk_s": s("kinematics.sphere_fk"),
        "kinematics.sphere_fk_configs": mean_of("amounts", "kinematics.sphere_fk"),
        "trajopt.optimize_s": s("trajopt.optimize"),
        "trajopt.jacobian_s": s("trajopt.jacobian"),
        "trajopt.jacobian_evals": mean_of("calls", "trajopt.jacobian"),
        "trajopt.residual_s": s("trajopt.residual"),
        "trajopt.collision_s": s("trajopt.collision"),
        "trajopt.lm_self_s": s("trajopt.lm") - s("trajopt.residual") - s("trajopt.jacobian"),
        "trajopt.lm_accepted": accepted,
        "trajopt.lm_rejected": (mean_of("calls", "trajopt.residual")
                                - mean_of("calls", "trajopt.lm") - accepted),
        "deformable.mpc_s": s("deformable.mpc"),
        "deformable.plan_s": plan_s,
        "deformable.plan_calls": mean_of("calls", "deformable.plan"),
        "deformable.exec_step_s": s("deformable.exec_step"),
        "deformable.sample_steps": steps,
        "deformable.sample_steps_per_s": steps / plan_s if plan_s > 0.0 else 0.0,
        "deformable.track_rmse_mm": _mean(q.get("track_rmse_mm", 0.0) for q in quality),
        "cli.self_s": run_s - _mean(r.trace["wrapped_s"] for r in traced),
        "trace.run_s": run_s,
        "trace.overhead_s": run_s - _mean(r.run_s for r in untraced),
    }


def measure(workload, runner: Runner, seconds: int, trace: bool) -> dict:
    setups: list[tuple[float, float]] = []
    if not trace:
        runner.setup_s()   # warm-up: bytecode and page cache, which users do not pay per run
        setups = [runner.setup_s() for _ in range(SETUP_REPEATS)]
    results: list[OpResult] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in workload.round():
            results.append(runner.op(workload, op))
            if trace:
                results.append(runner.op(workload, op, trace=True))
        now = time.perf_counter()
        # Stop before a round that would, at this round's pace, end past the time.
        if now - start + (now - round_start) > seconds:
            break

    for r in results:
        for fail in r.fails:
            print(f"perfbench: {workload.name} {r.key}{' traced' if r.traced else ''}: {fail}",
                  file=sys.stderr)
    ok = [r for r in results if not r.fails]
    untraced = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    if not untraced or (trace and not traced):
        raise BenchError("no command passed its checks; nothing to measure")
    if trace:
        missing = sorted({m for r in traced for m in r.trace["missing"]})
        if missing:
            print(f"perfbench: not traced, absent from nvflow: {', '.join(missing)}",
                  file=sys.stderr)
        values, units = per_layer(traced, untraced), PER_LAYER
    else:
        values, units = end_to_end([ref for _, ref in setups], untraced), END_TO_END
        print("samples setup_s wall/reference "
              + json.dumps([[round(x, 4) for x in pair] for pair in setups]))
        print(f"wall medians: setup_s {statistics.median(w for w, _ in setups):.4f} s, "
              f"run_s {statistics.median(r.run_s for r in untraced):.4f} s")
    print("samples run_s wall/reference "
          + json.dumps([[r.key, round(r.run_s, 4), round(r.ref_s, 4)] for r in untraced]))
    print("reference kernel s " + json.dumps([round(x, 4) for x in runner.kernel_s]))
    return {
        # A failed exit is a failed operation; a passing exit with a failed check
        # is a failed operation and a wrong output.
        "correct": not any(r.exited and r.fails for r in results),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def smoke(src: Path, work: Path) -> int:
    """Every workload once at reduced size, and one traced command each."""
    failed = 0
    for cls in WORKLOADS.values():
        workload = cls(src, work, seed=0, smoke=True)
        runner = Runner(src, work)
        ops = workload.round()
        results = [runner.op(workload, op) for op in ops]
        results.append(runner.op(workload, ops[0], trace=True))
        for r in results:
            state = "ok" if not r.fails else "FAILED " + "; ".join(r.fails)
            print(f"smoke {workload.name} {r.key}{' traced' if r.traced else ''}: "
                  f"{r.run_s:.3f} s, {state}")
            failed += bool(r.fails)
    print(f"smoke: {failed} failed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nvflow" / "cli.py").is_file():
        print(f"perfbench: no nvflow sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (args.smoke or args.self_test) and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = HERE / ".out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.self_test:
            import selftest
            return selftest.run(src, work, Runner, ROOT, END_TO_END, PER_LAYER)
        if args.smoke:
            return smoke(src, work)
        print("machine " + json.dumps(machine()))
        workload = WORKLOADS[args.workload](src, work, args.seed)
        result = measure(workload, Runner(src, work), args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
