"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over seconds to minutes while nothing on the benchmark's
side changes (a pure-CPU loop alone shows it).  So the benchmark runs this
kernel in its own process, while no child runs, before and after every timed
step, and reports the step in reference seconds:

    reference seconds = wall seconds * NOMINAL_S / (mean of the two kernel passes around it)

that is, the time the step would take on a machine where the kernel takes
``NOMINAL_S``, about its time on the 2-CPU machine the benchmark was tuned
on.  The kernel uses no nvflow code, so a change to nvflow moves the wall
seconds only.  Its work stays in the core's caches (elementwise passes over
a 320 KB array, dense 200 x 200 solves on one BLAS thread, pinned by the
caller, about half the time each), so it tracks the speed of the core the
benchmark is given and not the host's memory traffic: a kernel that streamed
a few megabytes slowed more than nvflow commands did while another process
streamed memory, and dividing by it widened the spread between runs.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.13

_RNG = np.random.default_rng(20251009)
_MATRIX = _RNG.standard_normal((200, 200))
_SPD = _MATRIX @ _MATRIX.T + 200.0 * np.eye(200)
_VECTOR = np.linspace(0.0, 1.0, 40_000)


def kernel_s() -> float:
    """Wall seconds of one pass of the fixed kernel."""
    start = time.perf_counter()
    values = _VECTOR
    for _ in range(560):
        values = np.sqrt(values * values + 1.0) - 0.5
    rhs = values[:200]
    for _ in range(120):
        rhs = np.linalg.solve(_SPD, _MATRIX @ rhs)
    elapsed = time.perf_counter() - start
    if not np.all(np.isfinite(rhs)):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


def to_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall seconds of a step between two kernel passes, in reference seconds."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
