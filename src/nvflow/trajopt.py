"""Joint-trajectory optimization as damped nonlinear least squares.

The objective is a stack of residual blocks whose squared sum is

    C = C_smooth + C_rest + C_limits + C_collision

with per-block weights applied once, inside the residuals.  Start and end
configurations are hard constraints handled by variable elimination: only the
interior configurations are decision variables, so the endpoints come back
bit-identical.  Collision terms hinge on the swept signed distance between
robot collision spheres and analytic obstacles, sampled along each segment.

Every residual row touches at most two consecutive interior frames: smooth,
velocity and collision rows touch frames t and t+1, rest and limit rows
frame t alone.  The Jacobian is therefore kept as per-row frame blocks
(``FrameJacobian``) and never as an m x n matrix, and J^T J is exactly
block-tridiagonal with dof x dof blocks.  Levenberg-Marquardt forms those
blocks with stacked products over all frames at once and solves each damped
step by block cyclic reduction, block Cholesky in odd-even order, in about
log2 of the horizon levels of stacked work.  The solver stays generic: a
plain (m, n) Jacobian, as the tests' curve fits use, is the one-block case
of the same normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .geometry import SE3Pose, _doc_fields, _doc_list, _float, _floats, _frozen, _int
from .kinematics import (JointTrajectory, RobotModel, load_robot, point_jacobian,
                         robot_from_doc, sphere_centers_batch, sphere_radii, world_axes)

__all__ = [
    "LMOptions",
    "LMResult",
    "FrameJacobian",
    "NonFiniteResidualError",
    "levenberg_marquardt",
    "SphereObstacle",
    "BoxObstacle",
    "HalfspaceObstacle",
    "Obstacle",
    "obstacles_from_doc",
    "cost_smooth",
    "cost_rest",
    "penalty_limits",
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


@dataclass(frozen=True)
class LMOptions:
    max_iters: int = 100
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1   # tenfold decrease keeps near-linear problems at ~3 steps
    grad_tol: float = 1e-8     # infinity norm of J^T r
    step_tol: float = 1e-10    # euclidean norm of the accepted step
    fd_step: float = 1e-6      # forward-difference step, used only without a jacobian
    lambda_max: float = 1e12

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True)
class LMResult:
    x: np.ndarray
    residual: np.ndarray       # the residuals at x
    cost: float                # their sum of squares
    iterations: int            # accepted steps
    converged: bool
    cost_history: tuple[float, ...]  # cost after each accepted step, incl. start


@dataclass(frozen=True)
class FrameJacobian:
    """A Jacobian whose every row touches one frame of variables and the next.

    The variables are ``n_frames`` frames of ``cur.shape[1]`` values each,
    laid out frame-major.  Row i has coefficients ``cur[i]`` on frame
    ``frame[i]`` and ``nxt[i]`` on frame ``frame[i] + 1``; a row on the last
    frame has a zero ``nxt``.  J^T J of such a matrix is block-tridiagonal.
    """

    frame: np.ndarray   # (m,) int
    cur: np.ndarray     # (m, b)
    nxt: np.ndarray     # (m, b)
    n_frames: int

    @classmethod
    def one_block(cls, jac: np.ndarray) -> "FrameJacobian":
        """A plain (m, n) Jacobian as one frame of n variables."""
        jac = np.asarray(jac, dtype=float)
        return cls(np.zeros(jac.shape[0], dtype=int), jac, np.zeros_like(jac), 1)


def _normal_equations(jac: FrameJacobian, r: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of J^T J and J^T r for F frames of b variables.

    Returns the diagonal blocks (F, b, b), the blocks (k, k+1) (F-1, b, b)
    and the gradient J^T r as (F, b).  The rows, sorted by frame, are
    scattered into zero-padded (F, R, b) stacks of ``cur`` and ``nxt``
    coefficients, R the largest row count of any frame, so every product
    is one stacked matmul; padding rows add exact zeros.
    """
    n_frames, b = jac.n_frames, jac.cur.shape[1]
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
    cur_t, nxt_t = _transpose(cur), _transpose(nxt[:-1])
    diag = cur_t @ cur
    diag[1:] += nxt_t @ nxt[:-1]
    grad = (cur_t @ res)[..., 0]
    grad[1:] += (nxt_t @ res[:-1])[..., 0]
    return diag, cur_t[:-1] @ nxt[:-1], grad


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


def _fd_jacobian(residual_fn, x: np.ndarray, r0: np.ndarray, h: float) -> np.ndarray:
    jac = np.empty((r0.size, x.size))
    for k in range(x.size):
        xk = x.copy()
        xk[k] += h
        jac[:, k] = (residual_fn(xk) - r0) / h
    return jac


def levenberg_marquardt(residual_fn: Callable[[np.ndarray], np.ndarray],
                        x0: np.ndarray,
                        jacobian: Callable[[np.ndarray], np.ndarray | FrameJacobian]
                        | None = None,
                        options: LMOptions = LMOptions()) -> LMResult:
    """Minimize ||residual_fn(x)||^2 with diagonal-scaled damping.

    Each candidate step solves (J^T J + lambda diag(J^T J)) d = -J^T r and is
    accepted only if the cost decreases, so the final cost never exceeds the
    initial one.  ``jacobian`` may return a ``FrameJacobian``, whose rows
    each touch two consecutive frames of variables; J^T J is then
    block-tridiagonal and is formed by stacked products over all frames and
    factored by block cyclic reduction, in about log2 of the number of
    frames levels of stacked work.  A plain (m, n) array
    is the one-block case of the same normal equations and solver.  A damped
    system that is not numerically positive definite counts as a rejected
    step and raises lambda.  Convergence is declared when the gradient
    infinity norm falls below ``grad_tol`` or an accepted step is shorter
    than ``step_tol``.  Without an analytic ``jacobian``, forward differences
    with step ``fd_step`` are used.

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
    lam = options.lambda0
    accepted_steps = 0
    converged = False

    for _ in range(options.max_iters):
        jac = jacobian(x) if jacobian is not None else _fd_jacobian(
            residual_fn, x, r, options.fd_step)
        if not isinstance(jac, FrameJacobian):
            jac = FrameJacobian.one_block(jac)
        diag, upper, grad = _normal_equations(jac, r)
        if not (np.isfinite(diag).all() and np.isfinite(grad).all()):
            raise NonFiniteResidualError(x, "Jacobian")
        if np.abs(grad).max(initial=0.0) < options.grad_tol:
            converged = True
            break

        accepted = False
        step_norm = 0.0
        while lam <= options.lambda_max:
            try:
                step = _damped_step(diag, upper, grad, lam)
            except np.linalg.LinAlgError:
                lam *= options.lambda_up
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
                lam = max(lam * options.lambda_down, 1e-12)
                accepted = True
                break
            lam *= options.lambda_up
        if not accepted:
            break  # no descent direction at any damping: stalled
        if step_norm < options.step_tol:
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def obstacles_from_doc(docs: list[dict]) -> tuple[Obstacle, ...]:
    out: list[Obstacle] = []
    for doc in _doc_list(docs):
        kind = doc.get("type")
        if kind == "sphere":
            out.append(SphereObstacle(center=_floats(doc["center"]),
                                      radius=_float(doc["radius"])))
        elif kind == "box":
            rotation = _floats(doc["rotation"]).reshape(3, 3) if "rotation" in doc \
                else np.eye(3)
            out.append(BoxObstacle(center=_floats(doc["center"]),
                                   half_extents=_floats(doc["half_extents"]),
                                   rotation=rotation))
        elif kind == "halfspace":
            out.append(HalfspaceObstacle(point=_floats(doc["point"]),
                                         normal=_floats(doc["normal"])))
        else:
            raise ValueError(f"unknown obstacle type {kind!r}")
    return tuple(out)


# -- residual blocks -----------------------------------------------------------

def cost_smooth(configs: np.ndarray, w_smooth: float) -> np.ndarray:
    """Residuals sqrt(w) (q_t - q_{t-1}) as a (T-1, dof) block."""
    q = np.asarray(configs, dtype=float)
    return np.sqrt(w_smooth) * np.diff(q, axis=0)


def cost_rest(configs: np.ndarray, q_rest: np.ndarray, w_rest: float) -> np.ndarray:
    """Residuals sqrt(w) (q_t - q_rest) as a (T, dof) block."""
    q = np.asarray(configs, dtype=float)
    return np.sqrt(w_rest) * (q - np.asarray(q_rest, dtype=float))


def penalty_limits(configs: np.ndarray, model: RobotModel, w_limits: float,
                   dt: float) -> np.ndarray:
    """Hinge residuals for position and velocity limits, flattened.

    Layout: upper-bound hinges (T, dof), lower-bound hinges (T, dof), then
    velocity hinges sqrt(w) max(0, |q_{t+1} - q_t| - v_max dt) of shape
    (T-1, dof).
    """
    q = np.asarray(configs, dtype=float)
    root = np.sqrt(w_limits)
    upper = root * np.maximum(q - model.q_max, 0.0)
    lower = root * np.maximum(model.q_min - q, 0.0)
    vel = root * np.maximum(np.abs(np.diff(q, axis=0)) - model.velocity_limits * dt, 0.0)
    return np.concatenate([upper.ravel(), lower.ravel(), vel.ravel()])


@dataclass(frozen=True)
class _Sweep:
    """The collision spheres swept along every segment of a trajectory.

    Each segment q_a -> q_b is sampled at S evenly spaced points
    q_a + s (q_b - q_a), s in [0, 1], both endpoints included.  Besides the
    per-segment clearance, the sweep keeps what the collision Jacobian
    reuses: the samples' link frames and every sphere's distance.  Without
    obstacles, spheres or segments only ``seg_min`` is set.
    """

    seg_min: np.ndarray                    # (T-1, n_obs) min over samples and spheres
    rotations: np.ndarray | None = None    # (T-1, S, dof, 3, 3) link frames
    origins: np.ndarray | None = None      # (T-1, S, dof, 3)
    distances: np.ndarray | None = None    # (n_obs, T-1, S, n_spheres) signed


def _sweep(model: RobotModel, configs: np.ndarray, obstacles: Sequence[Obstacle],
           swept_samples: int) -> _Sweep:
    """Sweep the collision spheres along each segment of ``configs`` (T, dof).

    Negative distances mean penetration; a robot without collision spheres
    is infinitely far from everything.
    """
    if swept_samples < 2:
        raise ValueError("swept_samples must be at least 2 to cover both endpoints")
    q = np.asarray(configs, dtype=float)
    segments, dof = q.shape[0] - 1, q.shape[1]
    if not obstacles or not model.collision_spheres or segments == 0:
        return _Sweep(np.full((segments, len(obstacles)), np.inf))
    s = np.linspace(0.0, 1.0, swept_samples)
    swept = q[:-1, None, :] + s[None, :, None] * np.diff(q, axis=0)[:, None, :]
    centers, rotations, origins = sphere_centers_batch(
        model, swept.reshape(-1, dof), return_frames=True)
    radii = sphere_radii(model)
    distances = np.stack([obs.distance(centers) - radii for obs in obstacles])
    seg_min = distances.reshape(len(obstacles), segments, -1).min(axis=2).T.copy()
    return _Sweep(seg_min, rotations.reshape(segments, swept_samples, dof, 3, 3),
                  origins.reshape(segments, swept_samples, dof, 3),
                  distances.reshape(len(obstacles), segments, swept_samples, -1))


def penalty_collision(configs: np.ndarray, model: RobotModel,
                      obstacles: Sequence[Obstacle], w_collision: float,
                      eps_safe: float, swept_samples: int = 5,
                      pad: float = 0.0, return_sweep: bool = False):
    """Hinge residuals sqrt(w) max(0, eps_safe + pad - d) per (segment, obstacle).

    A quadratic hinge balances against the other cost terms slightly inside
    its boundary, so ``pad`` moves the penalized boundary outward; the
    settled trajectory then clears ``eps_safe`` itself.  With
    ``return_sweep``, returns (residuals, the ``_Sweep`` they came from).
    """
    sweep = _sweep(model, configs, obstacles, swept_samples)
    hinge = np.maximum(eps_safe + pad - sweep.seg_min, 0.0)
    hinge[~np.isfinite(sweep.seg_min)] = 0.0
    residuals = np.sqrt(w_collision) * hinge.ravel()
    return (residuals, sweep) if return_sweep else residuals


class _LastSweep:
    """The sweep of the configurations whose residual was evaluated last.

    LM asks for the Jacobian at the iterate whose residual it has just
    evaluated, so the Jacobian finds that iterate's sweep here.  The match
    is on the configurations' bytes; at any other point the Jacobian sweeps
    again.
    """

    def __init__(self) -> None:
        self._key: bytes | None = None
        self._sweep: _Sweep | None = None

    def put(self, full: np.ndarray, sweep: _Sweep) -> None:
        self._key, self._sweep = full.tobytes(), sweep

    def get(self, full: np.ndarray) -> _Sweep | None:
        return self._sweep if full.tobytes() == self._key else None


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


@dataclass(frozen=True)
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
    lm: LMOptions = LMOptions()

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
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


@dataclass(frozen=True)
class TrajOptResult:
    trajectory: JointTrajectory
    final_cost: float
    term_costs: dict
    iterations: int
    converged: bool
    min_clearance: float     # from a dense sweep at 2x swept_samples


def optimize_trajectory(problem: TrajOptProblem) -> TrajOptResult:
    """Optimize interior configurations between hard start/end constraints.

    The stacked residual is [smooth, rest, limit hinges (upper, lower,
    velocity), collision hinges]; each term cost is the squared sum of its
    blocks at the solution.  Endpoints are eliminated from the decision
    vector and returned bit-identical to the inputs.  Collision hinges
    penalize distances below ``eps_safe + collision_pad`` so the settled
    trajectory clears ``eps_safe`` itself.  The reported ``min_clearance``
    comes from a final sweep at twice the optimization sampling;
    ``converged`` is false when the solver stalled or the clearance still
    violates ``eps_safe`` (beyond a 1e-4 slack).
    """
    model = problem.model
    dof = model.dof
    steps = problem.steps
    q_rest = problem.q_rest if problem.q_rest is not None \
        else 0.5 * (model.q_min + model.q_max)
    w = problem.weights
    last_sweep = _LastSweep()

    def assemble(x: np.ndarray) -> np.ndarray:
        full = np.empty((steps, dof))
        full[0] = problem.q_start
        full[-1] = problem.q_end
        if steps > 2:
            full[1:-1] = x.reshape(steps - 2, dof)
        return full

    def residuals_of(full: np.ndarray) -> np.ndarray:
        collision, sweep = penalty_collision(
            full, model, problem.obstacles, w.collision, problem.eps_safe,
            problem.swept_samples, pad=problem.collision_pad, return_sweep=True)
        last_sweep.put(full, sweep)
        return np.concatenate([
            cost_smooth(full, w.smooth).ravel(),
            cost_rest(full, q_rest, w.rest).ravel(),
            penalty_limits(full, model, w.limits, problem.dt),
            collision,
        ])

    if steps == 2:
        full = assemble(np.zeros(0))
        residual = residuals_of(full)
        cost, iterations, converged = float(np.sum(residual ** 2)), 0, True
    else:
        x0 = init_trajectory(problem.q_start, problem.q_end, steps)[1:-1].ravel()
        lm = levenberg_marquardt(lambda x: residuals_of(assemble(x)), x0,
                                 jacobian=_make_jacobian(problem, assemble, last_sweep),
                                 options=problem.lm)
        full, residual = assemble(lm.x), lm.residual
        cost, iterations, converged = lm.cost, lm.iterations, lm.converged

    # Block ends in the stacked residual: smooth, rest, upper, lower, velocity.
    segment_rows, frame_rows = (steps - 1) * dof, steps * dof
    ends = np.cumsum([segment_rows, frame_rows, frame_rows, frame_rows, segment_rows])
    smooth, rest, upper, lower, velocity, collision = (
        float(np.sum(block ** 2)) for block in np.split(residual, ends))
    dense = _sweep(model, full, problem.obstacles, 2 * problem.swept_samples).seg_min
    clearance = float(dense.min()) if dense.size else np.inf
    return TrajOptResult(
        trajectory=JointTrajectory(full, problem.dt),
        final_cost=cost,
        term_costs={"smooth": smooth, "rest": rest, "limits": upper + lower,
                    "velocity": velocity, "collision": collision},
        iterations=iterations,
        converged=converged and clearance >= problem.eps_safe - 1e-4,
        min_clearance=clearance,
    )


def _make_jacobian(problem: TrajOptProblem, assemble,
                   last_sweep: _LastSweep) -> Callable[[np.ndarray], FrameJacobian]:
    """Jacobian of the stacked residual w.r.t. interior configurations.

    Rows are first written against full frames: each touches frames t and
    t+1 (smooth, velocity, collision) or frame t alone (rest, limits).
    ``_interior_rows`` then drops the coefficients on the pinned endpoints
    and renumbers the frames.  The smooth/rest/limit blocks are linear or
    hinge-linear and filled analytically, and ``_collision_rows`` gives the
    collision rows in closed form from the sweep of the point, which is the
    residual's own when ``last_sweep`` holds it.
    """
    model = problem.model
    dof = model.dof
    steps = problem.steps
    w = problem.weights
    n_obs = len(problem.obstacles)
    root_s, root_l = np.sqrt(w.smooth), np.sqrt(w.limits)
    root_r = np.sqrt(w.rest)
    caps = model.velocity_limits * problem.dt
    eye = np.eye(dof)
    seg_lo = np.repeat(np.arange(steps - 1), dof)
    frame_lo = np.repeat(np.arange(steps), dof)
    # first full frame of each row, in residual order: smooth, rest, upper,
    # lower, velocity, collision
    lo = np.concatenate([seg_lo, frame_lo, frame_lo, frame_lo, seg_lo,
                         np.repeat(np.arange(steps - 1), n_obs)])

    def one_hot(values: np.ndarray) -> np.ndarray:
        """(F, dof) per-joint coefficients as (F * dof, dof) rows, one joint each."""
        return (values[:, :, None] * eye).reshape(-1, dof)

    smooth = one_hot(np.full((steps - 1, dof), -root_s))
    rest = one_hot(np.full((steps, dof), root_r))
    zero = np.zeros((steps * dof, dof))

    def jac(x: np.ndarray) -> FrameJacobian:
        full = assemble(x)
        delta = np.diff(full, axis=0)
        upper = one_hot(root_l * (full > model.q_max))
        lower = one_hot(-root_l * (full < model.q_min))
        vel = one_hot(root_l * np.sign(delta) * (np.abs(delta) > caps))
        sweep = last_sweep.get(full) or _sweep(model, full, problem.obstacles,
                                               problem.swept_samples)
        coll_a, coll_b = _collision_rows(problem, full, sweep)
        c_lo = np.concatenate([smooth, rest, upper, lower, -vel, coll_a])
        c_hi = np.concatenate([-smooth, zero, zero, zero, vel, coll_b])
        return _interior_rows(lo, c_lo, c_hi, steps)

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
        nearest = sweep.distances[obs, seg].reshape(
            seg.size, problem.swept_samples * n_spheres).argmin(axis=1)
        sample, sphere = np.divmod(nearest, n_spheres)
        rotations = sweep.rotations[seg, sample]                   # (P, dof, 3, 3)
        origins = sweep.origins[seg, sample]                       # (P, dof, 3)
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


def _interior_rows(lo: np.ndarray, c_lo: np.ndarray, c_hi: np.ndarray,
                   steps: int) -> FrameJacobian:
    """Rows with coefficients on full frames lo and lo+1 -> interior frame blocks.

    Full frame t is interior frame t-1; coefficients on frames 0 and
    steps-1 (the eliminated endpoints) are dropped.  A row whose first frame
    is the start frame becomes a one-frame row on interior frame 0.
    """
    c_lo = c_lo * ((lo >= 1) & (lo <= steps - 2))[:, None]
    c_hi = c_hi * (lo + 1 <= steps - 2)[:, None]
    at_start = (lo == 0)[:, None]
    frame = np.clip(lo - 1, 0, steps - 3)
    return FrameJacobian(frame=frame, cur=np.where(at_start, c_hi, c_lo),
                         nxt=np.where(at_start, 0.0, c_hi), n_frames=steps - 2)


# -- problem/result documents ---------------------------------------------------

def problem_from_doc(doc: dict, base_dir=None) -> TrajOptProblem:
    """Build a problem from its JSON document.

    ``robot`` may be an inline robot document or a path (resolved against
    ``base_dir`` when relative).  Required keys: robot, q_start, q_end,
    steps.  Optional keys, which default as ``TrajOptProblem``,
    ``TrajOptWeights`` and ``LMOptions`` declare: q_rest, weights, eps_safe,
    collision_pad, swept_samples, dt, obstacles, max_iters.
    """
    def robot(value) -> RobotModel:
        if not isinstance(value, str):
            return robot_from_doc(value)
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        return load_robot(path)

    kwargs = _doc_fields(doc, {
        "robot": robot, "q_start": _floats, "q_end": _floats, "steps": _int,
        "q_rest": _floats,
        "weights": lambda weights: TrajOptWeights(**_doc_fields(weights, dict.fromkeys(
            ("smooth", "rest", "limits", "collision"), _float))),
        "eps_safe": _float, "collision_pad": _float, "swept_samples": _int, "dt": _float,
        "obstacles": obstacles_from_doc,
        "max_iters": lambda max_iters: LMOptions(max_iters=_int(max_iters)),
    })
    kwargs["model"] = kwargs.pop("robot")
    if "max_iters" in kwargs:
        kwargs["lm"] = kwargs.pop("max_iters")
    return TrajOptProblem(**kwargs)


def result_to_doc(result: TrajOptResult) -> dict:
    return {
        "trajectory": [[float(v) for v in row] for row in result.trajectory.configs],
        "dt": result.trajectory.dt,
        "final_cost": result.final_cost,
        "term_costs": {k: float(v) for k, v in result.term_costs.items()},
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "min_clearance": None if not np.isfinite(result.min_clearance)
        else float(result.min_clearance),
    }
