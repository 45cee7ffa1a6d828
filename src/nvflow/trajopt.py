"""Joint-trajectory optimization as damped nonlinear least squares.

The objective is a stack of residual blocks whose squared sum is

    C = C_smooth + C_rest + C_limits + C_velocity + C_collision

with per-block weights applied once, inside the residuals.  Start and end
configurations are hard constraints handled by variable elimination: only the
interior configurations are decision variables, so the endpoints come back
bit-identical.  Collision terms hinge on the swept signed distance between
robot collision spheres and analytic obstacles, sampled along each segment;
the sweep runs forward kinematics once per distinct configuration, the
frames and then the inner samples of the segments an exact motion bound
cannot clear of the hinge boundary, so every frame's link frames are kept.

Every residual row touches at most two consecutive interior frames: smooth,
velocity and collision rows touch frames t and t+1, rest and limit rows
frame t alone.  The Jacobian is therefore kept as per-row frame blocks
(``FrameJacobian``) and never as an m x n matrix, and J^T J is exactly
block-tridiagonal with dof x dof blocks.  The smooth, rest, limit and
velocity rows each touch one joint; ``_joint_terms`` defines them, their
order and their derivatives once, for the residual, the Jacobian and the
term costs alike.  Their J^T J and J^T r terms are per-(frame, joint) sums
on the blocks' diagonals; only the collision rows, which touch several
joints, are kept as coefficient vectors.  The Jacobian reads the
residual's own evaluation at its point, those terms and the sweep, and
so runs no forward kinematics.  Levenberg-Marquardt forms the
blocks of those with stacked products over all frames at once and solves
each damped step by block cyclic reduction, block Cholesky in odd-even
order, in about log2 of the horizon levels of stacked work.  The solver
stays generic: a plain (m, n) Jacobian, as the tests' curve fits use, is
the one-block case of the same normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .fileio import read_named
from .geometry import (ROTATION_TOL, SE3Pose, _doc_fields, _doc_list, _float, _floats,
                       _frozen, _int)
from .kinematics import (JointTrajectory, RobotModel, load_robot, point_jacobian,
                         robot_from_doc, sphere_centers_batch, sphere_radii, world_axes)

__all__ = [
    "LMResult",
    "FrameJacobian",
    "NonFiniteResidualError",
    "levenberg_marquardt",
    "SphereObstacle",
    "BoxObstacle",
    "HalfspaceObstacle",
    "Obstacle",
    "obstacles_from_doc",
    "penalty_collision",
    "init_trajectory",
    "TrajOptWeights",
    "TrajOptProblem",
    "TrajOptResult",
    "optimize_trajectory",
    "problem_from_doc",
    "result_to_doc",
]


# -- Levenberg-Marquardt -------------------------------------------------------

class NonFiniteResidualError(RuntimeError):
    """A residual or Jacobian evaluation produced NaN/inf; ``x`` is the last
    valid iterate."""

    def __init__(self, x: np.ndarray, what: str = "residual"):
        super().__init__(f"non-finite {what} during iteration")
        self.x = np.array(x)


# The damping lambda starts at _LAMBDA0.  A rejected step multiplies it by
# _LAMBDA_UP, which must exceed 1, or a problem where no step descends never
# leaves the damping loop; past _LAMBDA_MAX no further step is tried.  An
# accepted step multiplies it by _LAMBDA_DOWN: a tenfold decrease keeps
# near-linear problems at about three steps.
_LAMBDA0 = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.1
_LAMBDA_MAX = 1e12
_GRAD_TOL = 1e-8       # on the infinity norm of J^T r
_STEP_TOL = 1e-10      # on the euclidean norm of an accepted step


@dataclass(frozen=True, eq=False)
class LMResult:
    x: np.ndarray
    residual: np.ndarray       # the residuals at x
    cost: float                # their sum of squares
    iterations: int            # accepted steps
    converged: bool
    cost_history: tuple[float, ...]  # cost after each accepted step, incl. start


@dataclass(frozen=True, eq=False)
class FrameJacobian:
    """A Jacobian whose every row touches one frame of variables and the next.

    The variables are ``n_frames`` frames of ``cur.shape[1]`` values each,
    laid out frame-major.  The rows come in two kinds, in residual order the
    per-joint rows first, then the block rows:

    - per-joint row i touches only variable ``joint[i]`` of frame
      ``joint_frame[i]``, with coefficient ``joint_cur[i]``, and the same
      variable of the next frame, with ``joint_nxt[i]``;
    - block row i has coefficients ``cur[i]`` on frame ``frame[i]`` and
      ``nxt[i]`` on frame ``frame[i] + 1``.

    A row on the last frame has zero next-frame coefficients.  J^T J of such
    a matrix is block-tridiagonal, and the per-joint rows add to the
    diagonals of its blocks only.
    """

    frame: np.ndarray   # (m,) int
    cur: np.ndarray     # (m, b)
    nxt: np.ndarray     # (m, b)
    n_frames: int
    joint_frame: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    joint: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    joint_cur: np.ndarray = field(default_factory=lambda: np.zeros(0))
    joint_nxt: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def one_block(cls, jac: np.ndarray) -> "FrameJacobian":
        """A plain (m, n) Jacobian as one frame of n variables."""
        jac = np.asarray(jac, dtype=float)
        return cls(np.zeros(jac.shape[0], dtype=int), jac, np.zeros_like(jac), 1)


def _normal_equations(jac: FrameJacobian, r: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of J^T J and J^T r for F frames of b variables.

    Returns the diagonal blocks (F, b, b), the blocks (k, k+1) (F-1, b, b)
    and the gradient J^T r as (F, b).  The block rows, sorted by frame, are
    scattered into zero-padded (F, R, b) stacks of ``cur`` and ``nxt``
    coefficients, R the largest block-row count of any frame, so every
    product is one stacked matmul; padding rows add exact zeros.  The
    per-joint rows add their terms to the blocks' diagonals as sums per
    (frame, joint).
    """
    n_frames, b = jac.n_frames, jac.cur.shape[1]
    r_joint, r = r[:jac.joint.size], r[jac.joint.size:]
    order = np.argsort(jac.frame, kind="stable")
    frame = jac.frame[order]
    counts = np.bincount(frame, minlength=n_frames)
    slot = np.arange(frame.size) - (np.cumsum(counts) - counts)[frame]
    cur = np.zeros((n_frames, counts.max(initial=0), b))
    nxt = np.zeros_like(cur)
    res = np.zeros(cur.shape[:2] + (1,))
    cur[frame, slot] = jac.cur[order]
    nxt[frame, slot] = jac.nxt[order]
    res[frame, slot, 0] = r[order]
    at = jac.joint_frame * b + jac.joint      # the row's variable on its first frame

    def per_joint(weights: np.ndarray, shift: int = 0) -> np.ndarray:
        """(F, b) sums of ``weights`` over the per-joint rows, by the variable
        ``shift`` frames after each row's first."""
        sums = np.bincount(at + shift * b, weights, minlength=(n_frames + 1) * b)
        return sums[:n_frames * b].reshape(n_frames, b)

    # Each per-joint sum goes in ahead of the block rows' product, and the
    # terms of a frame's own rows ahead of those of the rows on the frame
    # before: the order of one stack of all rows, per-joint rows first,
    # which keeps the sums at or next to that stack's last bits.
    idx = np.arange(b)
    c, d = jac.joint_cur, jac.joint_nxt
    cur_t, nxt_t = _transpose(cur), _transpose(nxt[:-1])
    diag = cur_t @ cur
    diag[:, idx, idx] = per_joint(c * c) + diag[:, idx, idx]
    from_prev = nxt_t @ nxt[:-1]
    from_prev[:, idx, idx] = per_joint(d * d, 1)[1:] + from_prev[:, idx, idx]
    diag[1:] += from_prev
    upper = cur_t[:-1] @ nxt[:-1]
    upper[:, idx, idx] = per_joint(c * d)[:-1] + upper[:, idx, idx]
    grad = per_joint(c * r_joint) + (cur_t @ res)[..., 0]
    grad[1:] += per_joint(d * r_joint, 1)[1:] + (nxt_t @ res[:-1])[..., 0]
    return diag, upper, grad


def _transpose(blocks: np.ndarray) -> np.ndarray:
    """Every matrix of an (n, p, q) stack transposed, as a view."""
    return blocks.transpose(0, 2, 1)


def _solve_block_tridiagonal(diag: np.ndarray, upper: np.ndarray,
                             rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD block-tridiagonal system A x = rhs by block cyclic reduction.

    ``diag`` (F, b, b) holds the diagonal blocks, ``upper`` (F-1, b, b) the
    blocks A[k, k+1], ``rhs`` is (F, b).  Cyclic reduction is block
    Cholesky in odd-even order.  The odd frames couple only to even ones,
    so all of them are factored by one stacked Cholesky and eliminated at
    once; the Schur complement on the ceil(F/2) even frames is again
    block-tridiagonal and is solved the same way, and back-substitution
    gives the odd frames.  That is about log2(F) levels of stacked work;
    one frame is the dense base case.

    Raises:
        numpy.linalg.LinAlgError: A Cholesky factorization meets a pivot that
            is not positive.  A NaN pivot raises nothing and the solution
            comes back non-finite, so the caller checks A for NaN.
    """
    return _cyclic_reduction(diag, upper, rhs[..., None])[..., 0]


def _cyclic_reduction(diag: np.ndarray, upper: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """``_solve_block_tridiagonal`` with the right-hand side as (F, b, 1)."""
    if diag.shape[0] == 1:
        inv = np.linalg.inv(np.linalg.cholesky(diag))
        return _transpose(inv) @ (inv @ rhs)
    n_odd = diag.shape[0] // 2
    n_right = upper.shape[0] - n_odd     # odd frames with an even frame after them
    # Odd frame k, A[k, k] = L L^T, couples to frame k-1 through
    # A[k, k-1] = upper[k-1]^T and to frame k+1 through upper[k].
    inv = np.linalg.inv(np.linalg.cholesky(diag[1::2]))    # L^-1
    left = inv @ _transpose(upper[0::2])
    right = inv[:n_right] @ upper[1::2]
    y = inv @ rhs[1::2]
    left_t, right_t = _transpose(left), _transpose(right)
    even_diag = diag[0::2].copy()        # their Schur complement
    even_diag[:n_odd] -= left_t @ left
    even_diag[1:] -= right_t @ right
    even_rhs = rhs[0::2].copy()
    even_rhs[:n_odd] -= left_t @ y
    even_rhs[1:] -= right_t @ y[:n_right]
    x_even = _cyclic_reduction(even_diag, -left_t[:n_right] @ right, even_rhs)
    z = y - left @ x_even[:n_odd]
    z[:n_right] -= right @ x_even[1:]
    x = np.empty_like(rhs)
    x[0::2] = x_even
    x[1::2] = _transpose(inv) @ z
    return x


def _damped_step(diag: np.ndarray, upper: np.ndarray, grad: np.ndarray,
                 lam: float) -> np.ndarray:
    """The flat step d of (J^T J + lam diag(J^T J)) d = -J^T r, from the blocks."""
    idx = np.arange(diag.shape[1])
    damped = diag.copy()
    damped[:, idx, idx] += lam * np.maximum(diag[:, idx, idx], 1e-12)
    return -_solve_block_tridiagonal(damped, upper, grad).ravel()


def levenberg_marquardt(residual_fn: Callable[[np.ndarray], np.ndarray],
                        x0: np.ndarray,
                        jacobian: Callable[[np.ndarray], np.ndarray | FrameJacobian],
                        max_iters: int = 100) -> LMResult:
    """Minimize ||residual_fn(x)||^2 with diagonal-scaled damping.

    Each candidate step solves (J^T J + lambda diag(J^T J)) d = -J^T r and is
    accepted only if the cost decreases, so the final cost never exceeds the
    initial one.  ``jacobian`` may return a ``FrameJacobian``, whose rows
    each touch two consecutive frames of variables; J^T J is then
    block-tridiagonal and is formed by stacked products over all frames,
    and by per-(frame, joint) sums for its per-joint rows, and factored by
    block cyclic reduction, in about log2 of the number of frames levels of
    stacked work.  A plain (m, n) array is the one-block case of the same
    normal equations and solver.  A damped system that is not numerically
    positive definite counts as a rejected step and raises lambda.  At most
    ``max_iters`` Jacobians are evaluated.  Convergence is declared when the
    gradient infinity norm falls below ``_GRAD_TOL`` or an accepted step is
    shorter than ``_STEP_TOL``.

    Raises:
        NonFiniteResidualError: a residual evaluation returned NaN/inf, or a
            Jacobian made J^T J or J^T r non-finite; the error carries the
            last valid iterate.
    """
    x = np.array(x0, dtype=float).ravel()
    r = np.asarray(residual_fn(x), dtype=float)
    if not np.isfinite(r).all():
        raise NonFiniteResidualError(x)
    cost = float(r @ r)
    history = [cost]
    lam = _LAMBDA0
    accepted_steps = 0
    converged = False

    for _ in range(max_iters):
        jac = jacobian(x)
        if not isinstance(jac, FrameJacobian):
            jac = FrameJacobian.one_block(jac)
        diag, upper, grad = _normal_equations(jac, r)
        if not (np.isfinite(diag).all() and np.isfinite(grad).all()):
            raise NonFiniteResidualError(x, "Jacobian")
        if np.abs(grad).max(initial=0.0) < _GRAD_TOL:
            converged = True
            break

        accepted = False
        step_norm = 0.0
        while lam <= _LAMBDA_MAX:
            try:
                step = _damped_step(diag, upper, grad, lam)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            x_new = x + step
            r_new = np.asarray(residual_fn(x_new), dtype=float)
            if not np.isfinite(r_new).all():
                raise NonFiniteResidualError(x)
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                step_norm = float(np.linalg.norm(step))
                x, r, cost = x_new, r_new, cost_new
                history.append(cost)
                accepted_steps += 1
                lam = max(lam * _LAMBDA_DOWN, 1e-12)
                accepted = True
                break
            lam *= _LAMBDA_UP
        if not accepted:
            break  # no descent direction at any damping: stalled
        if step_norm < _STEP_TOL:
            converged = True
            break

    return LMResult(x=x, residual=r, cost=cost, iterations=accepted_steps,
                    converged=converged, cost_history=tuple(history))


# -- obstacles -----------------------------------------------------------------

def _vec(v) -> np.ndarray:
    out = np.array(v, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("obstacle vectors must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SphereObstacle:
    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _vec(self.center))
        if not (np.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("obstacle radius must be positive and finite")

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance from (..., 3) points to the surface; negative inside."""
        return np.linalg.norm(points - self.center, axis=-1) - self.radius

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Unit gradient (..., 3) of ``distance``; +z at the center itself."""
        offset = points - self.center
        norm = np.linalg.norm(offset, axis=-1, keepdims=True)
        return np.where(norm > 0.0, offset / np.where(norm > 0.0, norm, 1.0),
                        np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True, eq=False)
class BoxObstacle:
    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", _vec(self.center))
        object.__setattr__(self, "half_extents", _vec(self.half_extents))
        try:   # the orthonormality and determinant test of a pose
            rot = SE3Pose(self.rotation, np.zeros(3)).rotation
        except ValueError as exc:
            raise ValueError(f"box rotation: {exc}") from None
        object.__setattr__(self, "rotation", rot)
        if (self.half_extents <= 0.0).any():
            raise ValueError("box half extents must be positive")

    def distance(self, points: np.ndarray) -> np.ndarray:
        local = (points - self.center) @ self.rotation  # R^T (p - c), batched
        q = np.abs(local) - self.half_extents
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Unit gradient (..., 3) of ``distance``.

        Outside, the direction from the nearest box point; inside or on the
        surface, the outward normal of the nearest face, the lowest axis on
        a tie, pointing to the + side where the point sits on the mid-plane.
        """
        local = (points - self.center) @ self.rotation
        q = np.abs(local) - self.half_extents
        side = np.where(local < 0.0, -1.0, 1.0)
        excess = np.maximum(q, 0.0)
        norm = np.linalg.norm(excess, axis=-1, keepdims=True)
        face = np.arange(3) == q.argmax(axis=-1)[..., None]
        grad = np.where(norm > 0.0, excess / np.where(norm > 0.0, norm, 1.0), face)
        return (side * grad) @ self.rotation.T


@dataclass(frozen=True, eq=False)
class HalfspaceObstacle:
    """Occupies the side opposite ``normal``; free space lies along +normal."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", _vec(self.point))
        n = _vec(self.normal)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ValueError("halfspace normal must be non-zero")
        n = n / norm
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)

    def distance(self, points: np.ndarray) -> np.ndarray:
        return (points - self.point) @ self.normal

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """Unit gradient (..., 3) of ``distance``: the normal everywhere."""
        return np.broadcast_to(self.normal, np.shape(points)).copy()


Obstacle = Union[SphereObstacle, BoxObstacle, HalfspaceObstacle]


_OBSTACLE_FIELDS = {
    "sphere": (SphereObstacle, {"center": _floats, "radius": _float}),
    "box": (BoxObstacle, {"center": _floats, "half_extents": _floats,
                          "rotation": lambda rotation: _floats(rotation).reshape(3, 3)}),
    "halfspace": (HalfspaceObstacle, {"point": _floats, "normal": _floats}),
}


def obstacles_from_doc(docs: list[dict]) -> tuple[Obstacle, ...]:
    """Obstacles from a JSON array of objects, each with its ``type``."""
    out: list[Obstacle] = []
    for index, doc in enumerate(_doc_list(docs)):
        if not isinstance(doc, dict):
            raise TypeError(f"obstacle {index}: expected a JSON object, "
                            f"got {type(doc).__name__}")
        kind = doc.get("type")
        if not isinstance(kind, str) or kind not in _OBSTACLE_FIELDS:
            raise ValueError(f"unknown obstacle type {kind!r}")
        build, casts = _OBSTACLE_FIELDS[kind]
        out.append(build(**_doc_fields(doc, casts, extra=("type",))))
    return tuple(out)


# -- residual blocks -----------------------------------------------------------

def _joint_terms(problem: TrajOptProblem, q_rest: np.ndarray,
                 full: np.ndarray) -> tuple[tuple, ...]:
    """The per-joint residual terms of the trajectory ``full`` (T, dof), in
    residual order.

    Each term is (name, rows, cur, nxt).  Row (t, j) of ``rows`` depends on
    joint j alone, on frame t and, in a segment term, on frame t+1; ``cur``
    and ``nxt`` are its derivatives in that joint on frame t and on frame
    t+1, a scalar where every row has the same.  The terms are, with the
    weights w of ``problem``:

    - smooth, sqrt(w_smooth) (q_{t+1} - q_t), (T-1, dof);
    - rest, sqrt(w_rest) (q_t - q_rest), (T, dof);
    - limits, the upper-bound hinges sqrt(w_limits) max(0, q_t - q_max),
      (T, dof), then limits again, the lower-bound hinges
      sqrt(w_limits) max(0, q_min - q_t), (T, dof);
    - velocity, sqrt(w_limits) max(0, |q_{t+1} - q_t| - v_max dt), (T-1, dof).

    The collision rows follow these in the residual.  A hinge's derivative
    is 0 where it is off, its kink included; terms of one name make one term
    cost.
    """
    model, w = problem.model, problem.weights
    root_s, root_r, root_l = np.sqrt(w.smooth), np.sqrt(w.rest), np.sqrt(w.limits)
    delta = np.diff(full, axis=0)
    caps = model.velocity_limits * problem.dt
    d_vel = root_l * np.sign(delta) * (np.abs(delta) > caps)
    return (("smooth", root_s * delta, -root_s, root_s),
            ("rest", root_r * (full - q_rest), root_r, 0.0),
            ("limits", root_l * np.maximum(full - model.q_max, 0.0),
             root_l * (full > model.q_max), 0.0),
            ("limits", root_l * np.maximum(model.q_min - full, 0.0),
             -root_l * (full < model.q_min), 0.0),
            ("velocity", root_l * np.maximum(np.abs(delta) - caps, 0.0), -d_vel, d_vel))


@dataclass(frozen=True, eq=False)
class _Sweep:
    """The collision spheres swept along every segment of a trajectory.

    Each segment q_a -> q_b is sampled at S evenly spaced points
    q_a + s (q_b - q_a), s in [0, 1], both endpoints included.  The end
    samples are the frames themselves, so forward kinematics runs once per
    distinct configuration: the T frames, then the S - 2 inner samples of
    the segments ``_sweep`` could not skip, in segment order.  ``samples``
    maps each (segment, sample) to its configuration; frame t is
    configuration t, and the inner samples of a skipped segment are its
    first frame's.  Besides the per-segment clearance, the sweep keeps what
    the collision Jacobian reuses: the configurations' link frames and
    every sphere's distance.  Without obstacles, spheres or segments only
    ``seg_min`` is set.
    """

    seg_min: np.ndarray                    # (T-1, n_obs) min over samples and spheres
    samples: np.ndarray | None = None      # (T-1, S) configuration of each sample
    rotations: np.ndarray | None = None    # (C, dof, 3, 3) link frames
    origins: np.ndarray | None = None      # (C, dof, 3)
    distances: np.ndarray | None = None    # (n_obs, C, n_spheres) signed


# Meters taken off the motion bound for the rounding of forward kinematics,
# of the distances and of the bound itself.
_BOUND_ROUNDING = 1e-9


def _sweep(model: RobotModel, configs: np.ndarray, obstacles: Sequence[Obstacle],
           swept_samples: int, floor: float = np.inf) -> _Sweep:
    """Sweep the collision spheres along each segment of ``configs`` (T, dof).

    Negative distances mean penetration; a robot without collision spheres
    is infinitely far from everything.

    Forward kinematics runs on the frames first.  A segment's inner samples
    then run it only if a motion bound says they could matter.  Along a
    segment, sphere k's center moves at most L = sum_j |dq_j| reach[k, j]
    (``RobotModel.sphere_reach``), and every obstacle distance is
    1-Lipschitz in the center, so at sample s the sphere's distance is at
    least max(d_a - L s, d_b - L (1 - s)) from its distances d_a, d_b at
    the segment's frames.  A segment is skipped when that bound, less a
    rounding slack, is at least max(``floor``, the smallest distance at any
    frame) for every inner sample, sphere and obstacle; a NaN anywhere
    skips nothing.  Callers pass the hinge boundary as ``floor``, which
    makes the skip exact for them: a clearance below ``floor`` is attained
    at a frame of a skipped segment, strictly below its inner samples, so
    ``seg_min`` below ``floor``, the (sample, sphere) attaining it and the
    smallest clearance overall are the ones the full sweep gives.  At or
    above ``floor``, a skipped segment's ``seg_min`` is its frames' and may
    exceed the full sweep's.  The default ``floor`` skips nothing.
    """
    if swept_samples < 2:
        raise ValueError("swept_samples must be at least 2 to cover both endpoints")
    q = np.asarray(configs, dtype=float)
    segments, dof = q.shape[0] - 1, q.shape[1]
    if not obstacles or not model.collision_spheres or segments == 0:
        return _Sweep(np.full((segments, len(obstacles)), np.inf))
    radii = sphere_radii(model)

    def swept(configs: np.ndarray):
        """Distances (n_obs, B, n_spheres) and link frames of (B, dof) configurations."""
        centers, rotations, origins = sphere_centers_batch(model, configs)
        return (np.stack([obs.distance(centers) - radii for obs in obstacles]),
                rotations, origins)

    distances, rotations, origins = swept(q)
    s = np.linspace(0.0, 1.0, swept_samples)[1:-1]
    delta = np.diff(q, axis=0)
    # The base and origin rotations that move a center, and a box's rotation,
    # pass SE3Pose's orthonormality test, so each of these dof + 2 stretches
    # lengths by at most sqrt(1 + ROTATION_TOL).
    rate = (np.abs(delta) @ model.sphere_reach.T) * (1.0 + ROTATION_TOL) ** (dof + 2)
    rate = rate[:, :, None]
    bound = np.maximum(distances[:, :-1, :, None] - rate * s,
                       distances[:, 1:, :, None] - rate * (1.0 - s))
    level = np.maximum(floor, distances.min())      # NaN if any distance is
    seg = np.flatnonzero(~(bound - _BOUND_ROUNDING >= level).all(axis=(0, 2, 3)))
    samples = np.empty((segments, swept_samples), dtype=int)
    samples[:, 0] = np.arange(segments)
    samples[:, -1] = np.arange(1, segments + 1)
    samples[:, 1:-1] = samples[:, :1]
    samples[seg, 1:-1] = segments + 1 + np.arange(seg.size * s.size).reshape(seg.size,
                                                                             s.size)
    if seg.size:
        inner = q[seg, None, :] + s[None, :, None] * delta[seg, None, :]
        more = swept(inner.reshape(-1, dof))
        distances = np.concatenate([distances, more[0]], axis=1)
        rotations = np.concatenate([rotations, more[1]])
        origins = np.concatenate([origins, more[2]])
    seg_min = distances.min(axis=2)[:, samples].min(axis=2).T.copy()
    return _Sweep(seg_min, samples, rotations, origins, distances)


def penalty_collision(configs: np.ndarray, model: RobotModel,
                      obstacles: Sequence[Obstacle], w_collision: float,
                      eps_safe: float, swept_samples: int = 5,
                      pad: float = 0.0) -> tuple[np.ndarray, _Sweep]:
    """Hinge residuals sqrt(w) max(0, eps_safe + pad - d) per (segment, obstacle),
    and the ``_Sweep`` they came from.

    A quadratic hinge balances against the other cost terms slightly inside
    its boundary, so ``pad`` moves the penalized boundary outward; the
    settled trajectory then clears ``eps_safe`` itself.  The sweep skips the
    inner samples that cannot come below the hinge boundary.
    """
    sweep = _sweep(model, configs, obstacles, swept_samples, floor=eps_safe + pad)
    hinge = np.maximum(eps_safe + pad - sweep.seg_min, 0.0)
    hinge[~np.isfinite(sweep.seg_min)] = 0.0
    return np.sqrt(w_collision) * hinge.ravel(), sweep


def init_trajectory(q_start: np.ndarray, q_end: np.ndarray, steps: int) -> np.ndarray:
    """Straight-line joint-space initialization with exact endpoints."""
    if steps < 2:
        raise ValueError("a trajectory needs at least 2 steps")
    a = np.asarray(q_start, dtype=float)
    b = np.asarray(q_end, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"endpoint shapes differ: {a.shape} vs {b.shape}")
    tau = np.linspace(0.0, 1.0, steps)[:, None]
    out = a + tau * (b - a)
    out[0] = a
    out[-1] = b
    return out


# -- the trajectory problem ----------------------------------------------------

@dataclass(frozen=True)
class TrajOptWeights:
    smooth: float = 10.0
    rest: float = 0.1
    limits: float = 100.0
    collision: float = 15.0

    def __post_init__(self) -> None:
        for name in ("smooth", "rest", "limits", "collision"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"weight {name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, eq=False)
class TrajOptProblem:
    model: RobotModel
    q_start: np.ndarray
    q_end: np.ndarray
    steps: int
    q_rest: np.ndarray | None = None    # defaults to the mid-range configuration
    weights: TrajOptWeights = TrajOptWeights()
    eps_safe: float = 0.02              # meters of required clearance
    collision_pad: float = 0.005        # extra penalized margin beyond eps_safe
    swept_samples: int = 5
    dt: float = 0.1                     # seconds per step, for velocity hinges
    obstacles: tuple[Obstacle, ...] = ()
    max_iters: int = 100                # Jacobian evaluations LM may make

    def __post_init__(self) -> None:
        for name in ("steps", "max_iters", "swept_samples"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.swept_samples < 2:
            raise ValueError("swept_samples must be at least 2 to cover both "
                             f"endpoints, got {self.swept_samples}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not np.isfinite(self.eps_safe):
            raise ValueError(f"eps_safe must be finite, got {self.eps_safe}")
        if not (np.isfinite(self.collision_pad) and self.collision_pad >= 0.0):
            raise ValueError(f"collision_pad must be finite and >= 0, got {self.collision_pad}")
        dof = self.model.dof
        for name in ("q_start", "q_end", "q_rest"):
            if name == "q_rest" and self.q_rest is None:
                continue        # optimize_trajectory uses the mid-range configuration
            q = _frozen(getattr(self, name))
            if q.shape != (dof,) or not np.isfinite(q).all():
                raise ValueError(f"{name} must be a finite ({dof},) vector, "
                                 f"got shape {q.shape}")
            object.__setattr__(self, name, q)
        q_min, q_max = self.model.q_min, self.model.q_max
        if ((self.q_start < q_min) | (self.q_start > q_max)
                | (self.q_end < q_min) | (self.q_end > q_max)).any():
            raise ValueError("start or end configuration violates joint limits")


@dataclass(frozen=True, eq=False)
class TrajOptResult:
    trajectory: JointTrajectory
    final_cost: float
    term_costs: dict
    iterations: int
    converged: bool
    min_clearance: float     # from a dense sweep at 2x swept_samples


def optimize_trajectory(problem: TrajOptProblem) -> TrajOptResult:
    """Optimize interior configurations between hard start/end constraints.

    The stacked residual is the per-joint terms of ``_joint_terms`` followed
    by the collision hinges; each term cost is the squared sum of its rows
    at the solution.  Endpoints are eliminated from the decision vector and
    returned bit-identical to the inputs.  Collision hinges penalize
    distances below ``eps_safe + collision_pad`` so the settled trajectory
    clears ``eps_safe`` itself.  The reported ``min_clearance`` comes from a
    final sweep at twice the optimization sampling; ``converged`` is false
    when the solver stalled or the clearance still violates ``eps_safe``
    (beyond a 1e-4 slack).
    """
    model = problem.model
    dof = model.dof
    steps = problem.steps
    q_rest = problem.q_rest if problem.q_rest is not None \
        else 0.5 * (model.q_min + model.q_max)
    init = init_trajectory(problem.q_start, problem.q_end, steps)
    # the per-joint terms' names and sizes, the same at every point
    names, sizes = zip(*((name, rows.size) for name, rows, _, _ in
                         _joint_terms(problem, q_rest, init)))
    last: dict = {}     # the trajectory whose residual was evaluated last

    def assemble(x: np.ndarray) -> np.ndarray:
        full = np.empty((steps, dof))
        full[0] = problem.q_start
        full[-1] = problem.q_end
        if steps > 2:
            full[1:-1] = x.reshape(steps - 2, dof)
        return full

    def residuals_of(full: np.ndarray) -> np.ndarray:
        collision, sweep = penalty_collision(
            full, model, problem.obstacles, problem.weights.collision, problem.eps_safe,
            problem.swept_samples, pad=problem.collision_pad)
        terms = _joint_terms(problem, q_rest, full)
        last.update(full=full, terms=terms, sweep=sweep)
        return np.concatenate([rows.ravel() for _, rows, _, _ in terms] + [collision])

    if steps == 2:
        full = assemble(np.zeros(0))
        residual = residuals_of(full)
        cost, iterations, converged = float(np.sum(residual ** 2)), 0, True
    else:
        lm = levenberg_marquardt(lambda x: residuals_of(assemble(x)), init[1:-1].ravel(),
                                 _make_jacobian(problem, sizes, last),
                                 max_iters=problem.max_iters)
        full, residual = assemble(lm.x), lm.residual
        cost, iterations, converged = lm.cost, lm.iterations, lm.converged

    term_costs: dict[str, float] = {}
    for name, block in zip(names + ("collision",), np.split(residual, np.cumsum(sizes))):
        term_costs[name] = term_costs.get(name, 0.0) + float(np.sum(block ** 2))
    dense = _sweep(model, full, problem.obstacles, 2 * problem.swept_samples,
                   problem.eps_safe + problem.collision_pad).seg_min
    clearance = float(dense.min()) if dense.size else np.inf
    return TrajOptResult(
        trajectory=JointTrajectory(full, problem.dt),
        final_cost=cost,
        term_costs=term_costs,
        iterations=iterations,
        converged=converged and clearance >= problem.eps_safe - 1e-4,
        min_clearance=clearance,
    )


def _make_jacobian(problem: TrajOptProblem, sizes: Sequence[int], last: dict
                   ) -> Callable[[np.ndarray], FrameJacobian]:
    """Jacobian of the stacked residual w.r.t. interior configurations.

    LM asks for the Jacobian only at the point whose residual it evaluated
    last, so it is built from that evaluation, which ``last`` holds: the
    trajectory ``full``, its ``_joint_terms`` and its ``_Sweep``.  A point
    whose bytes differ from that trajectory's interior raises RuntimeError.

    Rows are first written against full frames: each touches frames t and
    t+1 (smooth, velocity, collision) or frame t alone (rest, limits).
    ``_interior_rows`` then drops the coefficients on the pinned endpoints
    and renumbers the frames.  The per-joint rows take their one scalar
    coefficient per frame from the terms, which have ``sizes`` rows; the
    rows' frames and joints do not depend on the point and are laid out
    once.  ``_collision_rows`` gives the collision rows, the block rows, in
    closed form from the sweep.
    """
    dof = problem.model.dof
    steps = problem.steps
    # each per-joint row's first full frame, in residual order
    joint_lo = np.concatenate([np.repeat(np.arange(size // dof), dof) for size in sizes])
    joint = np.tile(np.arange(dof), joint_lo.size // dof)
    parts = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
    coll_lo = np.repeat(np.arange(steps - 1), len(problem.obstacles))

    def flat(coefficients) -> np.ndarray:
        """Per-term coefficients, scalars included, as one array in row order."""
        out = np.empty(joint_lo.size)
        for c, part in zip(coefficients, parts):
            out[part] = np.ravel(c)
        return out

    def jac(x: np.ndarray) -> FrameJacobian:
        full = last.get("full")
        if full is None or full[1:-1].tobytes() != np.asarray(x, dtype=float).tobytes():
            raise RuntimeError("the trajectory Jacobian is asked at a point whose "
                               "residual was not the last evaluated")
        terms = last["terms"]
        joint_frame, joint_cur, joint_nxt = _interior_rows(
            joint_lo, flat([cur for _, _, cur, _ in terms]),
            flat([nxt for _, _, _, nxt in terms]), steps)
        frame, cur, nxt = _interior_rows(
            coll_lo, *_collision_rows(problem, full, last["sweep"]), steps)
        return FrameJacobian(frame, cur, nxt, steps - 2,
                             joint_frame, joint, joint_cur, joint_nxt)

    return jac


def _collision_rows(problem: TrajOptProblem, full: np.ndarray,
                    sweep: _Sweep) -> tuple[np.ndarray, np.ndarray]:
    """Collision-row coefficients on each segment's first and second frame.

    Rows are ordered (segment, obstacle), coefficients over joints;
    ``sweep`` is the swept pass of ``full`` and supplies every input, so no
    forward kinematics runs.  A row's hinge sqrt(w) max(b - d, 0), with
    b = eps_safe + collision_pad, is on where the clearance d is below b
    (or NaN) and its coefficients are 0 elsewhere.  Where it is on, d is
    the distance of the sample s and sphere k that attain the minimum, the
    lowest index on a tie, and its derivative in joint j is
    n . (axis_j x (c - o_j)) for the obstacle's unit gradient n at the
    sphere center c and joints j up to sphere k's link, 0 past it.  The
    sample q_a + s (q_b - q_a) weighs that by 1 - s on the segment's first
    frame and by s on its second.
    """
    model = problem.model
    steps, dof = full.shape
    n_obs = len(problem.obstacles)
    coef = np.zeros((steps - 1, n_obs, 2, dof))
    if n_obs and model.collision_spheres:
        boundary = problem.eps_safe + problem.collision_pad
        seg, obs = np.nonzero(~(sweep.seg_min >= boundary))
        n_spheres = len(model.collision_spheres)
        nearest = sweep.distances[obs[:, None], sweep.samples[seg]].reshape(
            seg.size, problem.swept_samples * n_spheres).argmin(axis=1)
        sample, sphere = np.divmod(nearest, n_spheres)
        config = sweep.samples[seg, sample]
        rotations = sweep.rotations[config]                        # (P, dof, 3, 3)
        origins = sweep.origins[config]                            # (P, dof, 3)
        links = np.array([s.link for s in model.collision_spheres])[sphere]
        local = np.array([s.center for s in model.collision_spheres])[sphere]
        row = np.arange(seg.size)
        centers = origins[row, links] + (rotations[row, links] @ local[:, :, None])[..., 0]
        normals = np.empty_like(centers)
        for i, obstacle in enumerate(problem.obstacles):
            normals[obs == i] = obstacle.gradient(centers[obs == i])
        velocity = point_jacobian(world_axes(model, rotations), origins, centers)
        moves = np.arange(dof) <= links[:, None]
        rate = -np.sqrt(problem.weights.collision) * np.where(
            moves, (velocity @ normals[:, :, None])[..., 0], 0.0)  # (P, dof)
        s = np.linspace(0.0, 1.0, problem.swept_samples)[sample, None]
        coef[seg, obs, 0] = (1.0 - s) * rate
        coef[seg, obs, 1] = s * rate
    return coef[:, :, 0].reshape(-1, dof), coef[:, :, 1].reshape(-1, dof)


def _interior_rows(lo: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray, steps: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows with coefficients on full frames lo and lo+1 -> interior frame rows.

    Returns (frame, cur, nxt) on interior frames; the coefficients are
    per-joint scalars (n,) or block rows (n, dof).  Full frame t is interior
    frame t-1; coefficients on frames 0 and steps-1 (the eliminated
    endpoints) are dropped.  A row whose first frame is the start frame
    becomes a one-frame row on interior frame 0.
    """
    rows = (-1,) + (1,) * (c_lo.ndim - 1)
    c_lo = c_lo * ((lo >= 1) & (lo <= steps - 2)).reshape(rows)
    c_hi = c_hi * (lo + 1 <= steps - 2).reshape(rows)
    at_start = (lo == 0).reshape(rows)
    return (np.clip(lo - 1, 0, steps - 3), np.where(at_start, c_hi, c_lo),
            np.where(at_start, 0.0, c_hi))


# -- problem/result documents ---------------------------------------------------

def problem_from_doc(doc: dict, base_dir=None) -> TrajOptProblem:
    """Build a problem from its JSON document.

    ``robot`` may be an inline robot document or a path (resolved against
    ``base_dir`` when relative).  Required keys: robot, q_start, q_end,
    steps.  Optional keys, which default as ``TrajOptProblem`` and
    ``TrajOptWeights`` declare: q_rest, weights, eps_safe, collision_pad,
    swept_samples, dt, obstacles, max_iters.
    """
    def robot(value) -> RobotModel:
        if not isinstance(value, str):
            return robot_from_doc(value)
        # an absolute path replaces base_dir when joined to it
        return read_named(base_dir or "", value, load_robot)

    kwargs = _doc_fields(doc, {
        "robot": robot, "q_start": _floats, "q_end": _floats, "steps": _int,
        "q_rest": _floats,
        "weights": lambda weights: TrajOptWeights(**_doc_fields(weights, dict.fromkeys(
            ("smooth", "rest", "limits", "collision"), _float))),
        "eps_safe": _float, "collision_pad": _float, "swept_samples": _int, "dt": _float,
        "obstacles": obstacles_from_doc, "max_iters": _int,
    }, extra=("description",))
    kwargs["model"] = kwargs.pop("robot")
    return TrajOptProblem(**kwargs)


def result_to_doc(result: TrajOptResult) -> dict:
    return {
        "trajectory": result.trajectory.configs.tolist(),
        "dt": result.trajectory.dt,
        "final_cost": result.final_cost,
        "term_costs": {k: float(v) for k, v in result.term_costs.items()},
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "min_clearance": None if not np.isfinite(result.min_clearance)
        else float(result.min_clearance),
    }
