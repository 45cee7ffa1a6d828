"""Timing-and-counting wrappers installed from outside nvflow.

Each wrapped function is replaced at the name its caller looks it up by, for
example ``nvflow.cli.render_flow_image`` rather than
``nvflow.flow.render_flow_image``, because ``from x import f`` binds a
caller's own name.  The package itself is not edited.  A wrapper adds its
call's wall time to a span, counts the call, and may add an amount (bytes
hashed, configurations evaluated).  Calls that no other wrapped call encloses
are "top level"; the union of their intervals is the time spent inside
wrapped calls, and the rest of the command's wall time is the CLI's own.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict


def _size_mb(args, kwargs, result) -> float:
    return os.path.getsize(args[0]) / 2**20


def _configs(args, kwargs, result) -> float:
    return float(len(args[1]))


def _sample_steps(args, kwargs, result) -> float:
    """Control steps one CEM plan simulates: (population * iterations + 1) * steps."""
    config = next(a for a in (*args, *kwargs.values()) if hasattr(a, "population"))
    return float(len(result) * (config.population * config.iterations + 1))


class Tracer:
    """Spans keyed by name: seconds, calls and amounts, plus top-level intervals."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, float] = defaultdict(float)
        self.top: list[tuple[float, float]] = []
        self.missing: list[str] = []
        self._depth = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, amount=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(self._depth, "value", 0)
            self._depth.value = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth.value = depth
                with self._lock:
                    self.seconds[name] += end - start
                    self.calls[name] += 1
                    if depth == 0:
                        self.top.append((start, end))
            if amount is not None:
                with self._lock:
                    self.amounts[name] += amount(args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner: str, attr: str, name: str, amount=None, inner=None) -> None:
        """Replace ``owner.attr``; ``owner`` is a module path, or ``module:Class``.

        ``inner``, when given, adapts the original before the span wraps it.
        """
        module, _, cls = owner.partition(":")
        try:
            target = importlib.import_module(module)
        except ModuleNotFoundError:
            target = None
        if cls and target is not None:
            target = getattr(target, cls, None)
        fn = getattr(target, attr, None) if target is not None else None
        if fn is None:
            self.missing.append(f"{owner}.{attr}")
            return
        setattr(target, attr, self.wrap(name, inner(fn) if inner else fn, amount))

    def _traced_lm(self, lm):
        """LM with its residual and Jacobian callables wrapped as spans of their own."""
        def traced(residual_fn, x0, jacobian=None, *args, **kwargs):
            residual_fn = self.wrap("trajopt.residual", residual_fn)
            if jacobian is not None:
                jacobian = self.wrap("trajopt.jacobian", jacobian)
            result = lm(residual_fn, x0, jacobian, *args, **kwargs)
            with self._lock:
                self.amounts["trajopt.lm"] += result.iterations
            return result
        return traced

    def install(self) -> None:
        self.patch("nvflow.sim", "generate_scene", "sim.generate")
        self.patch("nvflow.sim:SceneBundle", "write", "sim.bundle_write")
        self.patch("nvflow.cli", "write_ppm", "fileio.ppm_write")
        self.patch("nvflow.cli", "sha256_file", "fileio.hash", _size_mb)
        self.patch("nvflow.sim", "sha256_file", "fileio.hash", _size_mb)
        self.patch("nvflow.cli", "calibrate_depth", "flow.calibrate")
        self.patch("nvflow.cli", "distill_flow", "flow.distill")
        self.patch("nvflow.cli", "score_flow", "flow.score")
        self.patch("nvflow.cli", "render_flow_image", "flow.render")
        self.patch("nvflow.cli", "flow_to_pose_trajectory", "rigid.pose_fit")
        self.patch("nvflow.cli", "propose_grasp", "rigid.grasp")
        self.patch("nvflow.cli", "solve_ik", "kinematics.ik")
        self.patch("nvflow.cli", "forward_kinematics", "kinematics.fk")
        self.patch("nvflow.kinematics", "forward_kinematics", "kinematics.fk")
        self.patch("nvflow.trajopt", "sphere_centers_batch", "kinematics.sphere_fk", _configs)
        self.patch("nvflow.cli", "optimize_trajectory", "trajopt.optimize")
        self.patch("nvflow.trajopt", "penalty_collision", "trajopt.collision")
        self.patch("nvflow.cli", "mpc_rollout", "deformable.mpc")
        self.patch("nvflow.deformable", "plan_actions", "deformable.plan", _sample_steps)
        self.patch("nvflow.deformable", "mass_spring_step", "deformable.exec_step")
        self.patch("nvflow.trajopt", "levenberg_marquardt", "trajopt.lm",
                   inner=self._traced_lm)

    def report(self, start: float, end: float) -> dict:
        """Totals for one command run between ``start`` and ``end``."""
        wrapped = 0.0
        reach = start
        for lo, hi in sorted(self.top):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                wrapped += hi - lo
                reach = hi
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "amounts": dict(self.amounts), "wrapped_s": wrapped,
                "missing": self.missing}
