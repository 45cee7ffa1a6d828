"""Tests for the damped least-squares solver and trajectory optimization."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

import nvflow.trajopt as trajopt
from conftest import one_link_with_sphere, planar_two_link, spinner_with_tip_sphere
from nvflow.geometry import SE3Pose, rotation_from_axis_angle
from nvflow.kinematics import (
    CollisionSphere,
    Joint,
    RobotModel,
    robot_to_doc,
    sphere_radii,
)
from nvflow.trajopt import (
    BoxObstacle,
    FrameJacobian,
    HalfspaceObstacle,
    LMOptions,
    LMResult,
    NonFiniteResidualError,
    SphereObstacle,
    TrajOptProblem,
    TrajOptWeights,
    cost_rest,
    cost_smooth,
    init_trajectory,
    levenberg_marquardt,
    obstacles_from_doc,
    optimize_trajectory,
    penalty_collision,
    penalty_limits,
    problem_from_doc,
    result_to_doc,
)


def swept_clearance(model: RobotModel, q_a: np.ndarray, q_b: np.ndarray,
                    obstacle, swept_samples: int = 5) -> float:
    """Swept signed distance of the segment q_a -> q_b to one obstacle."""
    configs = np.stack([np.asarray(q_a, dtype=float), np.asarray(q_b, dtype=float)])
    return float(trajopt._sweep(model, configs, (obstacle,), swept_samples).seg_min[0, 0])


def yaw_pitch_pointer(radius: float = 0.05) -> RobotModel:
    """Two joints at a common origin (yaw about z, pitch about y) with a tip
    sphere at unit distance.  Pitching moves the tip transversally, so the
    planner can dodge obstacles out of the sweep plane."""
    return RobotModel(
        joints=(
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=-np.pi, q_max=np.pi, velocity_limit=10.0),
            Joint(axis=np.array([0.0, 1.0, 0.0]), origin=SE3Pose.identity(),
                  q_min=-np.pi, q_max=np.pi, velocity_limit=10.0),
        ),
        ee_offset=SE3Pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
        collision_spheres=(
            CollisionSphere(link=1, center=np.array([1.0, 0.0, 0.0]), radius=radius),
        ),
        name="pointer",
    )


class TestLevenbergMarquardt:
    def test_exact_linear_least_squares_in_three_iterations(self, rng):
        a = rng.standard_normal((10, 4))
        x_true = rng.standard_normal(4)
        b = a @ x_true
        result = levenberg_marquardt(lambda x: a @ x - b, np.zeros(4),
                                     jacobian=lambda x: a)
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(result.x - x_ref) <= 1e-8
        assert result.iterations <= 3
        assert result.converged

    def test_linear_least_squares_with_numeric_jacobian(self, rng):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        result = levenberg_marquardt(lambda x: a @ x - b, np.zeros(4))
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.linalg.norm(result.x - x_ref) <= 1e-6
        assert result.iterations <= 4

    def test_rosenbrock_valley(self):
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        def jac(x):
            return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

        result = levenberg_marquardt(residual, np.array([-1.2, 1.0]),
                                     jacobian=jac,
                                     options=LMOptions(max_iters=200))
        assert np.linalg.norm(result.x - np.array([1.0, 1.0])) <= 1e-6
        assert result.converged
        assert result.cost <= 1e-12

    def test_rosenbrock_without_analytic_jacobian(self):
        def residual(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        result = levenberg_marquardt(residual, np.array([-1.2, 1.0]),
                                     options=LMOptions(max_iters=200))
        assert np.linalg.norm(result.x - np.array([1.0, 1.0])) <= 1e-6

    def test_cost_history_is_monotone_on_seeded_problems(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            a = gen.standard_normal((8, 3))
            b_mat = gen.standard_normal((8, 3))
            target = gen.standard_normal(8)

            def residual(x, a=a, b_mat=b_mat, target=target):
                return a @ x + 0.5 * np.sin(b_mat @ x) - target

            result = levenberg_marquardt(residual, 0.5 * gen.standard_normal(3))
            history = np.asarray(result.cost_history)
            assert np.all(np.diff(history) < 0.0), f"seed {seed} not monotone"
            assert result.cost == history[-1]

    def test_stationary_start_returns_immediately(self, rng):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
        x_star = np.linalg.lstsq(a, b, rcond=None)[0]
        result = levenberg_marquardt(lambda x: a @ x - b, x_star,
                                     jacobian=lambda x: a)
        assert result.iterations == 0
        assert result.converged
        assert len(result.cost_history) == 1
        assert np.array_equal(result.x, x_star)

    def test_non_finite_residual_at_start(self):
        x0 = np.array([0.3, -0.7])
        with pytest.raises(NonFiniteResidualError) as excinfo:
            levenberg_marquardt(lambda x: np.array([np.nan, 1.0]), x0)
        assert np.array_equal(excinfo.value.x, x0)

    def test_non_finite_residual_mid_iteration_keeps_last_iterate(self):
        def residual(x):
            if x[0] > 1.5:
                return np.array([np.nan])
            return np.array([10.0 * (x[0] - 2.0)])

        x0 = np.array([0.0])
        with pytest.raises(NonFiniteResidualError) as excinfo:
            levenberg_marquardt(residual, x0, jacobian=lambda x: np.array([[10.0]]))
        assert np.array_equal(excinfo.value.x, x0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_jacobian_names_the_jacobian(self, bad):
        """The Cholesky factorization does not flag a NaN pivot, so a
        non-finite Jacobian is caught in J^T J before any step is solved."""
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        b = np.array([1.0, -1.0, 0.5])
        calls = []

        def jacobian(x):
            calls.append(x.copy())
            return a if len(calls) == 1 else np.where(a == 2.0, bad, a)

        x0 = np.array([3.0, -2.0])
        with pytest.raises(NonFiniteResidualError, match="non-finite Jacobian") as excinfo:
            levenberg_marquardt(lambda x: a @ x - b, x0, jacobian=jacobian,
                                options=LMOptions(lambda0=1e3))
        assert len(calls) == 2
        assert np.array_equal(excinfo.value.x, calls[1])
        assert not np.array_equal(calls[1], x0)      # one step was accepted


    def test_rank_deficient_linear_problem_reaches_lstsq_minimum(self, rng):
        a = rng.standard_normal((12, 4))
        a[:, 3] = a[:, 2]                       # duplicated column: J^T J is singular
        b = rng.standard_normal(12)
        result = levenberg_marquardt(lambda x: a @ x - b, np.zeros(4),
                                     jacobian=lambda x: a)
        x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
        assert result.cost == pytest.approx(float(np.sum((a @ x_ref - b) ** 2)),
                                            rel=1e-9)
        assert result.converged


def packaged_problem(steps: int) -> TrajOptProblem:
    """The packaged colliding 7-dof problem with its horizon set to ``steps``."""
    fixtures = resources.files("nvflow") / "fixtures"
    doc = json.loads((fixtures / "trajopt_fixture.json").read_text())
    doc["steps"] = steps
    return problem_from_doc(doc, base_dir=str(fixtures))


def planar_problem(steps: int = 12) -> TrajOptProblem:
    return TrajOptProblem(model=planar_two_link(), q_start=np.array([-0.5, 0.3]),
                          q_end=np.array([2.8, -0.4]), steps=steps)


def lm_inputs(problem: TrajOptProblem, monkeypatch):
    """The residual, Jacobian and start point that optimize_trajectory gives LM."""
    seen = {}

    def capture(residual_fn, x0, jacobian=None, options=None):
        seen.update(residual=residual_fn, jacobian=jacobian, x0=x0)
        return LMResult(x=x0, residual=residual_fn(x0), cost=0.0, iterations=0,
                        converged=False, cost_history=(0.0,))

    monkeypatch.setattr(trajopt, "levenberg_marquardt", capture)
    optimize_trajectory(problem)
    return seen["residual"], seen["jacobian"], seen["x0"]


def perturbed(x0: np.ndarray, seed: int = 3) -> np.ndarray:
    """A point off the straight line, so limit and velocity hinges engage."""
    return x0 + 0.3 * np.random.default_rng(seed).standard_normal(x0.size)


def dense(jac: FrameJacobian) -> np.ndarray:
    """The (m, n) matrix that frame blocks stand for."""
    b = jac.cur.shape[1]
    rows = np.arange(jac.frame.size)
    out = np.zeros((jac.frame.size, (jac.n_frames + 1) * b))
    for col in range(b):
        out[rows, jac.frame * b + col] += jac.cur[:, col]
        out[rows, (jac.frame + 1) * b + col] += jac.nxt[:, col]
    assert not out[:, jac.n_frames * b:].any(), "coefficients past the last frame"
    return out[:, :jac.n_frames * b]


def random_block_tridiagonal(rng, n_frames: int, b: int):
    """A dense SPD block-tridiagonal matrix B B^T + I/10 (B block lower-bidiagonal)
    with its diagonal blocks and its (k, k+1) blocks."""
    n = n_frames * b
    factor = np.zeros((n, n))
    for k in range(n_frames):
        factor[k * b:(k + 1) * b, k * b:(k + 1) * b] = rng.standard_normal((b, b))
        if k:
            factor[k * b:(k + 1) * b, (k - 1) * b:k * b] = rng.standard_normal((b, b))
    a = factor @ factor.T + 0.1 * np.eye(n)
    blocks = a.reshape(n_frames, b, n_frames, b).transpose(0, 2, 1, 3)
    k = np.arange(n_frames)
    return a, blocks[k, k], blocks[k[:-1], k[1:]]


def sequential_block_cholesky(diag, upper, rhs):
    """Block Cholesky frame by frame, in order: the oracle for the cyclic
    reduction of ``trajopt._solve_block_tridiagonal``.  L[k, k] is the
    Cholesky factor of the Schur complement D_k - L[k, k-1] L[k, k-1]^T and
    L[k+1, k] = (L[k, k]^-1 A[k, k+1])^T."""
    n_frames, b = rhs.shape
    eye = np.eye(b)
    inv_diag = np.empty_like(diag)     # L[k, k]^-1
    lower = np.empty_like(upper)       # L[k+1, k]
    y = np.empty_like(rhs)
    schur, rhs_k = diag[0], rhs[0]
    for k in range(n_frames):
        inv_diag[k] = np.linalg.solve(np.linalg.cholesky(schur), eye)
        y[k] = inv_diag[k] @ rhs_k
        if k + 1 < n_frames:
            lower[k] = (inv_diag[k] @ upper[k]).T
            schur = diag[k + 1] - lower[k] @ lower[k].T
            rhs_k = rhs[k + 1] - lower[k] @ y[k]
    x = np.empty_like(rhs)
    x[-1] = inv_diag[-1].T @ y[-1]
    for k in range(n_frames - 2, -1, -1):
        x[k] = inv_diag[k].T @ (y[k] - lower[k].T @ x[k + 1])
    return x


def dense_normal_equations(jac: FrameJacobian, r: np.ndarray):
    """Diagonal blocks, (k, k+1) blocks and J^T r cut from the dense J^T J."""
    a = dense(jac)
    b = jac.cur.shape[1]
    blocks = (a.T @ a).reshape(jac.n_frames, b, jac.n_frames, b).transpose(0, 2, 1, 3)
    k = np.arange(jac.n_frames)
    return blocks[k, k], blocks[k[:-1], k[1:]], (a.T @ r).reshape(jac.n_frames, b)


class TestStructuredSolve:
    @pytest.mark.parametrize("n_frames,b", [(1, 1), (1, 6), (2, 3), (3, 2), (5, 7),
                                            (8, 3), (9, 1), (12, 3), (40, 7), (241, 7)])
    def test_block_cholesky_matches_dense_solve(self, rng, n_frames, b):
        a, diag, upper = random_block_tridiagonal(rng, n_frames, b)
        rhs = rng.standard_normal((n_frames, b))
        x = trajopt._solve_block_tridiagonal(diag, upper, rhs)
        ref = np.linalg.solve(a, rhs.ravel())
        assert np.linalg.norm(x.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_frames", [8, 9])
    @pytest.mark.parametrize("where", ["first", "odd", "even interior", "last"])
    def test_block_cholesky_rejects_indefinite_system(self, rng, n_frames, where):
        # odd frames are factored at the first level of the reduction, even
        # ones at later levels; the last frame is odd for 8 frames, even for 9
        frame = {"first": 0, "odd": 3, "even interior": 4, "last": n_frames - 1}[where]
        _, diag, upper = random_block_tridiagonal(rng, n_frames, 2)
        diag[frame] -= 100.0 * np.eye(2)
        rhs = np.ones((n_frames, 2))
        with pytest.raises(np.linalg.LinAlgError):
            sequential_block_cholesky(diag, upper, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            trajopt._solve_block_tridiagonal(diag, upper, rhs)

    @pytest.mark.parametrize("frame", [0, 3, 4, 8])
    def test_nan_block_fails_as_the_sequential_solve_does(self, rng, frame):
        # the same Cholesky check sees the NaN: either both solves raise or
        # both return a non-finite solution
        _, diag, upper = random_block_tridiagonal(rng, 9, 2)
        diag[frame, 1, 1] = np.nan
        rhs = np.ones((9, 2))
        outcomes = []
        for solve in (sequential_block_cholesky, trajopt._solve_block_tridiagonal):
            try:
                outcomes.append(bool(np.isfinite(solve(diag, upper, rhs)).all()))
            except np.linalg.LinAlgError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1] and outcomes[0] is not True

    def test_long_horizon_solve_matches_sequential_cholesky(self, monkeypatch):
        fast = optimize_trajectory(packaged_problem(241))
        monkeypatch.setattr(trajopt, "_solve_block_tridiagonal", sequential_block_cholesky)
        ref = optimize_trajectory(packaged_problem(241))
        assert fast.iterations == ref.iterations
        assert fast.final_cost == pytest.approx(ref.final_cost, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(fast.trajectory.configs, ref.trajectory.configs,
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("case", ["unsorted", "empty frame", "no rows", "one block"])
    def test_normal_equations_match_dense(self, rng, case):
        b, n_frames, m = 3, 6, 40
        frame = rng.integers(0, n_frames, m)
        if case == "empty frame":
            frame[frame == 2] = 3
        if case == "no rows":
            frame = frame[:0]
        cur = rng.standard_normal((frame.size, b))
        nxt = rng.standard_normal((frame.size, b)) * (frame < n_frames - 1)[:, None]
        jac = FrameJacobian(frame, cur, nxt, n_frames)
        if case == "one block":
            jac = FrameJacobian.one_block(rng.standard_normal((m, 5)))
        r = rng.standard_normal(jac.frame.size)
        assert case != "unsorted" or (np.diff(jac.frame) < 0).any()
        got = trajopt._normal_equations(jac, r)
        for blocks, ref in zip(got, dense_normal_equations(jac, r)):
            assert blocks.shape == ref.shape
            np.testing.assert_allclose(blocks, ref, rtol=1e-12, atol=1e-12)
        if case == "empty frame":   # no row couples frame 2 to frame 3
            assert not got[1][2].any()

    def test_trajectory_jacobian_matches_forward_differences(self, monkeypatch):
        residual, jacobian, x0 = lm_inputs(packaged_problem(21), monkeypatch)
        x = perturbed(x0)
        jac = dense(jacobian(x))
        r0 = residual(x)
        h = 1e-6
        fd = np.empty_like(jac)
        for k in range(x.size):
            xk = x.copy()
            xk[k] += h
            fd[:, k] = (residual(xk) - r0) / h
        assert jac.shape == (r0.size, x.size)
        np.testing.assert_allclose(jac, fd, rtol=0.0, atol=1e-6 * np.abs(fd).max())
        # every kind of row is exercised: limits, velocity and collision hinges
        dof, steps = 7, 21
        n_limit = 2 * steps * dof
        off_limit = (2 * steps - 1) * dof
        off_vel = off_limit + n_limit
        off_coll = off_vel + (steps - 1) * dof
        assert jac[off_limit:off_vel].any()
        assert jac[off_vel:off_coll].any()
        assert jac[off_coll:].any()

    @pytest.mark.parametrize("make", [lambda: packaged_problem(21), planar_problem],
                             ids=["fixture", "planar_two_link"])
    def test_damped_step_matches_dense_normal_equations(self, monkeypatch, make):
        residual, jacobian, x0 = lm_inputs(make(), monkeypatch)
        x = perturbed(x0)
        blocks, r = jacobian(x), residual(x)
        jac = dense(blocks)
        jtj = jac.T @ jac
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
        for lam in (1e-6, 1e-3, 1.0):
            step = trajopt._damped_step(*trajopt._normal_equations(blocks, r), lam)
            ref = np.linalg.solve(jtj + lam * scale, -jac.T @ r)
            assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)

def full_collision_rows(problem: TrajOptProblem, full: np.ndarray, sweep=None):
    """Collision-row coefficients with every (segment, side, joint) pair
    forward-differenced with step ``lm.fd_step`` and full FK for every
    perturbation: the oracle for ``trajopt._collision_rows``.  It sweeps
    ``full`` itself and does not read ``sweep``."""
    model = problem.model
    steps, dof = full.shape
    n_obs = len(problem.obstacles)
    h = problem.lm.fd_step
    root_c = np.sqrt(problem.weights.collision)
    s_grid = np.linspace(0.0, 1.0, problem.swept_samples)
    radii = sphere_radii(model)
    eye = np.eye(dof)
    moved = np.arange(steps - 1)[:, None] + np.arange(2)
    perturbed = (moved >= 1) & (moved <= steps - 2)
    perturbed_seg = np.nonzero(perturbed)[0]
    coef = np.zeros((steps - 1, 2, dof, n_obs))
    if n_obs and model.collision_spheres:
        base = trajopt._sweep(model, full, problem.obstacles,
                              problem.swept_samples).seg_min
        boundary = problem.eps_safe + problem.collision_pad
        base_r = root_c * np.maximum(boundary - base, 0.0)
        ends = np.stack([full[:-1], full[1:]], axis=1)
        pert = np.broadcast_to(ends[:, None, None],
                               (steps - 1, 2, dof, 2, dof)).copy()
        pert[:, 0, :, 0, :] += h * eye
        pert[:, 1, :, 1, :] += h * eye
        pert = pert[perturbed]
        qa, qb = pert[..., 0, :], pert[..., 1, :]
        swept = qa[..., None, :] + s_grid[:, None] * (qb - qa)[..., None, :]
        centers = trajopt.sphere_centers_batch(model, swept.reshape(-1, dof))
        n_pert = pert.shape[0] * dof
        dmin = np.empty((n_pert, n_obs))
        for i, obs in enumerate(problem.obstacles):
            d = obs.distance(centers) - radii
            dmin[:, i] = d.reshape(n_pert, -1).min(axis=1)
        pert_r = root_c * np.maximum(boundary - dmin, 0.0)
        coef[perturbed] = (pert_r.reshape(-1, dof, n_obs)
                           - base_r[perturbed_seg, None, :]) / h
    return (coef[:, 0].transpose(0, 2, 1).reshape(-1, dof),
            coef[:, 1].transpose(0, 2, 1).reshape(-1, dof))


def collision_rows(problem: TrajOptProblem, full: np.ndarray):
    """``trajopt._collision_rows`` of ``full``, given its own sweep."""
    sweep = trajopt._sweep(problem.model, full, problem.obstacles, problem.swept_samples)
    return trajopt._collision_rows(problem, full, sweep)


@pytest.fixture
def fk_batches(monkeypatch):
    """Sizes of the batches trajopt passes to ``sphere_centers_batch``, in order."""
    sizes = []
    fk = trajopt.sphere_centers_batch

    def counting(model, configs, *args, **kwargs):
        sizes.append(configs.shape[0])
        return fk(model, configs, *args, **kwargs)

    monkeypatch.setattr(trajopt, "sphere_centers_batch", counting)
    return sizes


def with_obstacles(problem: TrajOptProblem, *obstacles) -> TrajOptProblem:
    return dataclasses.replace(problem, obstacles=tuple(obstacles))


def tilted_plane(height: float = 0.93) -> HalfspaceObstacle:
    """A plane above the packaged problem's arm, free space below it."""
    return HalfspaceObstacle(point=np.array([0.0, 0.0, height]),
                             normal=np.array([0.1, 0.0, -1.0]))


def rotated_box() -> BoxObstacle:
    return BoxObstacle(center=np.array([0.01, 0.0, 0.87]),
                       half_extents=np.array([0.03, 0.02, 0.04]),
                       rotation=rotation_from_axis_angle(
                           np.array([0.5, 0.5, 0.0]) / np.sqrt(2.0)))


def full_of(problem: TrajOptProblem, x: np.ndarray) -> np.ndarray:
    """The full (steps, dof) trajectory of interior configurations ``x``."""
    return np.concatenate([problem.q_start[None], x.reshape(-1, problem.model.dof),
                           problem.q_end[None]])


class TestAnalyticCollisionJacobian:
    """The collision rows come in closed form from the residual's sweep.

    LM evaluates the residual at a point before it asks for the Jacobian
    there, so these tests do too: the Jacobian then reuses the residual's
    sweep and runs no forward kinematics.  The oracle forward-differences
    every (segment, side, joint) with full FK; away from argmin ties and
    the hinge boundary it is the derivative up to its O(h) truncation.
    """

    @staticmethod
    def oracle(jacobian, x: np.ndarray) -> FrameJacobian:
        """``jacobian(x)`` with every segment forward-differenced."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trajopt, "_collision_rows", full_collision_rows)
            return jacobian(x)

    @staticmethod
    def rows_near_a_kink(problem: TrajOptProblem, x: np.ndarray):
        """Which collision rows at ``x`` are active, and which lie within
        ``gap`` of a kink of the hinge of a min: a clearance that close to
        the boundary, or a nearest (sample, sphere) that close to the next.
        A step h = 1e-6 rad moves no sphere by more than h R, R = 1.405 m
        for this arm (its joint offsets plus its farthest sphere center),
        so past 2 h R the oracle differences one smooth piece.  Both masks
        are flat in row order (segment, obstacle)."""
        gap = 3e-6
        sweep = trajopt._sweep(problem.model, full_of(problem, x), problem.obstacles,
                               problem.swept_samples)
        boundary = problem.eps_safe + problem.collision_pad
        n_obs, segments = sweep.distances.shape[:2]
        nearest = np.sort(sweep.distances.reshape(n_obs, segments, -1), axis=2)
        active = sweep.seg_min < boundary
        kink = (np.abs(sweep.seg_min - boundary) <= gap) \
            | (active & (nearest[..., 1] - nearest[..., 0] <= gap).T)
        return active.ravel(), kink.ravel()

    def check_against_oracle(self, problem: TrajOptProblem, x: np.ndarray,
                             monkeypatch, fk_batches):
        """The analytic Jacobian at ``x`` runs no FK and is the oracle's to
        1e-4 of the largest coefficient, except on rows next to a kink."""
        residual, jacobian, _ = lm_inputs(problem, monkeypatch)
        residual(x)
        fk_batches.clear()
        fast = jacobian(x)
        assert fk_batches == []             # no forward kinematics at all
        oracle = self.oracle(jacobian, x)
        assert fast.n_frames == oracle.n_frames
        assert np.array_equal(fast.frame, oracle.frame)
        active, kink = self.rows_near_a_kink(problem, x)
        assert (active & ~kink).sum() >= 10 and kink.sum() <= 2
        keep = np.concatenate([np.ones(fast.frame.size - kink.size, dtype=bool), ~kink])
        scale = max(np.abs(oracle.cur).max(), np.abs(oracle.nxt).max())
        for name in ("cur", "nxt"):
            np.testing.assert_allclose(getattr(fast, name)[keep], getattr(oracle, name)[keep],
                                       rtol=0.0, atol=1e-4 * scale, err_msg=name)

    @pytest.mark.parametrize("steps", [21, 81, 241])
    @pytest.mark.parametrize("at", ["initial", "perturbed"])
    def test_packaged_problem(self, monkeypatch, fk_batches, steps, at):
        problem = packaged_problem(steps)
        x = init_trajectory(problem.q_start, problem.q_end, steps)[1:-1].ravel()
        if at == "perturbed":
            x = perturbed(x)
        self.check_against_oracle(problem, x, monkeypatch, fk_batches)

    @pytest.mark.parametrize("obstacles", [
        (rotated_box(),), (tilted_plane(),), (rotated_box(), tilted_plane()),
    ], ids=["rotated-box", "halfspace", "box-and-halfspace"])
    @pytest.mark.parametrize("at", ["initial", "perturbed"])
    def test_box_and_halfspace(self, monkeypatch, fk_batches, obstacles, at):
        problem = with_obstacles(packaged_problem(41), *obstacles)
        x = init_trajectory(problem.q_start, problem.q_end, 41)[1:-1].ravel()
        if at == "perturbed":
            x = perturbed(x, seed=5)
        self.check_against_oracle(problem, x, monkeypatch, fk_batches)

    def test_hinge_switches_at_the_boundary_on_a_spinner(self):
        """A tip sphere at unit distance from its axis, nearest to a wall at
        interior frame 1 (q = -0.2) of segment 0: the coefficient is
        sqrt(w) cos(0.2) a hair inside the boundary, 0 a hair outside, and
        segment 1, nearest at its free end frame, puts nothing on frame 1."""
        model = spinner_with_tip_sphere(arm=1.0, radius=0.05)
        base = TrajOptProblem(model=model, q_start=np.array([-0.4]),
                              q_end=np.array([0.0]), steps=3)
        full_q = np.array([[-0.4], [-0.2], [0.0]])
        boundary = base.eps_safe + base.collision_pad
        root_c = np.sqrt(base.weights.collision)
        for gap, coefficient in ((-1e-9, root_c * np.cos(0.2)), (1e-9, 0.0)):
            # free space along -y, the tip at (cos q, sin q, 0) turns toward +y
            # and is nearest the wall at the segment end with the largest q
            wall_y = np.sin(-0.2) + 0.05 + boundary + gap
            wall = HalfspaceObstacle(point=np.array([0.0, wall_y, 0.0]),
                                     normal=np.array([0.0, -1.0, 0.0]))
            problem = with_obstacles(base, wall)
            first, second = collision_rows(problem, full_q)
            assert second[0, 0] == pytest.approx(coefficient, rel=1e-12, abs=0.0)
            assert first[1, 0] == 0.0

    def test_rows_are_zero_when_every_hinge_is_off(self, monkeypatch):
        far = SphereObstacle(center=np.array([5.0, 5.0, 5.0]), radius=0.03)
        problem = with_obstacles(packaged_problem(41), far)
        residual, jacobian, x0 = lm_inputs(problem, monkeypatch)
        residual(x0)
        fast = jacobian(x0)
        assert not fast.cur[-40:].any() and not fast.nxt[-40:].any()

    def test_nan_clearance_stays_active(self):
        problem = packaged_problem(21)
        full_q = trajopt.init_trajectory(problem.q_start, problem.q_end, 21)
        full_q[10, 3] = np.nan
        first, second = collision_rows(problem, full_q)
        nan_rows = np.isnan(first).any(axis=1) | np.isnan(second).any(axis=1)
        assert np.flatnonzero(nan_rows).tolist() == [9, 10]   # the segments of frame 10

    def test_long_horizon_solve_matches_the_oracle_solve(self, monkeypatch):
        problem = packaged_problem(241)
        fast = optimize_trajectory(problem)
        monkeypatch.setattr(trajopt, "_collision_rows", full_collision_rows)
        ref = optimize_trajectory(problem)
        assert fast.final_cost == pytest.approx(ref.final_cost, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(fast.trajectory.configs, ref.trajectory.configs,
                                   rtol=0.0, atol=1e-8)

    def test_lm_sweeps_each_iterate_once(self, monkeypatch):
        """Over a 241-step solve every sphere FK runs inside
        ``penalty_collision``, where a traced run times it, one sweep per
        residual, except the final dense sweep."""
        problem = packaged_problem(241)
        batches, inside = [], []
        fk, penalty = trajopt.sphere_centers_batch, trajopt.penalty_collision

        def counting_fk(model, configs, return_frames=False):
            batches.append((configs.shape[0], bool(inside)))
            return fk(model, configs, return_frames)

        def counting_penalty(*args, **kwargs):
            inside.append(True)
            try:
                return penalty(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(trajopt, "sphere_centers_batch", counting_fk)
        monkeypatch.setattr(trajopt, "penalty_collision", counting_penalty)
        optimize_trajectory(problem)
        sweep = 240 * problem.swept_samples
        assert len(batches) > 2
        assert batches[:-1] == [(sweep, True)] * (len(batches) - 1)
        assert batches[-1] == (2 * sweep, False)

    @pytest.mark.parametrize("obstacles", [(), (rotated_box(), tilted_plane())],
                             ids=["packaged", "box-and-halfspace"])
    def test_jacobian_away_from_the_last_residual(self, monkeypatch, fk_batches,
                                                  obstacles):
        """At a point whose residual was not the last evaluated, the Jacobian
        sweeps it again and gives the bytes it gives after that residual."""
        problem = packaged_problem(41)
        if obstacles:
            problem = with_obstacles(problem, *obstacles)
        residual, jacobian, x0 = lm_inputs(problem, monkeypatch)
        x = perturbed(x0, seed=7)
        residual(x)
        after_residual = jacobian(x)
        for elsewhere in (x0, -0.0 * x):
            residual(elsewhere)
            fk_batches.clear()
            missed = jacobian(x)
            assert fk_batches == [40 * problem.swept_samples]    # its own sweep
            for name in ("frame", "cur", "nxt"):
                assert np.array_equal(getattr(missed, name),
                                      getattr(after_residual, name)), name


class TestObstacles:
    def test_sphere_signed_distance(self):
        obs = SphereObstacle(center=np.array([1.0, 0.0, 0.0]), radius=0.5)
        assert obs.distance(np.array([3.0, 0.0, 0.0])) == pytest.approx(1.5)
        assert obs.distance(np.array([1.0, 0.0, 0.0])) == pytest.approx(-0.5)
        batch = obs.distance(np.array([[1.0, 0.5, 0.0], [1.0, 2.0, 0.0]]))
        np.testing.assert_allclose(batch, [0.0, 1.5], atol=1e-12)

    def test_box_signed_distance_axis_aligned(self):
        obs = BoxObstacle(center=np.zeros(3), half_extents=np.array([1.0, 2.0, 3.0]))
        assert obs.distance(np.array([3.0, 0.0, 0.0])) == pytest.approx(2.0)
        assert obs.distance(np.array([0.0, 0.0, 0.0])) == pytest.approx(-1.0)
        assert obs.distance(np.array([0.5, 0.0, 0.0])) == pytest.approx(-0.5)
        corner = obs.distance(np.array([2.0, 3.0, 4.0]))
        assert corner == pytest.approx(np.sqrt(3.0))

    def test_box_signed_distance_rotated(self):
        rot_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        obs = BoxObstacle(center=np.zeros(3),
                          half_extents=np.array([1.0, 2.0, 3.0]), rotation=rot_z)
        # The 2-unit half-extent now lies along world x.
        assert obs.distance(np.array([2.5, 0.0, 0.0])) == pytest.approx(0.5)
        assert obs.distance(np.array([0.0, 1.5, 0.0])) == pytest.approx(0.5)

    def test_halfspace_signed_distance(self):
        obs = HalfspaceObstacle(point=np.array([0.0, 0.0, 0.5]),
                                normal=np.array([0.0, 0.0, 2.0]))
        assert obs.distance(np.array([0.0, 0.0, 0.8])) == pytest.approx(0.3)
        assert obs.distance(np.array([0.0, 0.0, 0.2])) == pytest.approx(-0.3)

    @staticmethod
    def central_differences(obstacle, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
        return np.array([(obstacle.distance(point + h * e) - obstacle.distance(point - h * e))
                         / (2.0 * h) for e in np.eye(3)])

    @pytest.mark.parametrize("where,local", [
        ("face", [0.05, 0.006, -0.008]), ("edge", [0.05, -0.03, 0.012]),
        ("corner", [-0.04, 0.035, 0.07]), ("inside", [0.015, -0.004, 0.002]),
    ])
    def test_box_gradient_matches_central_differences(self, where, local):
        box = rotated_box()
        point = box.center + box.rotation @ np.array(local)
        assert (box.distance(point) < 0.0) == (where == "inside")
        grad = box.gradient(point[None])[0]
        np.testing.assert_allclose(grad, self.central_differences(box, point),
                                   rtol=0.0, atol=1e-8)
        assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-12)

    def test_sphere_and_halfspace_gradients_match_central_differences(self, rng):
        sphere = SphereObstacle(center=np.array([0.01, 0.0, 0.87]), radius=0.03)
        for obstacle in (sphere, tilted_plane()):
            points = np.array([0.0, 0.0, 0.9]) + 0.1 * rng.standard_normal((8, 3))
            grads = obstacle.gradient(points)
            assert grads.shape == (8, 3)
            for point, grad in zip(points, grads):
                np.testing.assert_allclose(grad, self.central_differences(obstacle, point),
                                           rtol=0.0, atol=1e-8)
                assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-12)

    def test_gradient_at_degenerate_points_is_a_fixed_unit_vector(self):
        sphere = SphereObstacle(center=np.array([0.1, 0.2, 0.3]), radius=0.05)
        assert sphere.gradient(sphere.center).tolist() == [0.0, 0.0, 1.0]
        rot = rotation_from_axis_angle(np.array([0.3, -0.2, 0.5]))
        box = BoxObstacle(center=np.array([1.0, 0.0, 0.0]),
                          half_extents=np.array([0.3, 0.1, 0.2]), rotation=rot)
        # at the center the nearest face is the one of the smallest extent,
        # on its + side
        np.testing.assert_allclose(box.gradient(box.center), rot[:, 1], atol=1e-15)
        # ties between faces go to the lowest axis; an axis-aligned cube
        # with dyadic sizes keeps the tied coordinates exact
        cube = BoxObstacle(center=np.array([0.5, 0.25, 0.0]), half_extents=np.full(3, 0.125))
        for local, grad in (([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                            ([0.0, -0.0625, 0.0625], [0.0, -1.0, 0.0]),
                            ([0.125, 0.0, 0.0], [1.0, 0.0, 0.0]),          # on a face
                            ([0.125, -0.125, 0.0], [1.0, 0.0, 0.0]),       # on an edge
                            ([-0.125, -0.125, 0.125], [-1.0, 0.0, 0.0])):  # on a corner
            assert cube.gradient(cube.center + np.array(local)).tolist() == grad

    def test_validation(self):
        with pytest.raises(ValueError, match="radius"):
            SphereObstacle(center=np.zeros(3), radius=0.0)
        with pytest.raises(ValueError, match="half extents"):
            BoxObstacle(center=np.zeros(3), half_extents=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="normal"):
            HalfspaceObstacle(point=np.zeros(3), normal=np.zeros(3))

        # The distance must stay a distance and its gradient a unit vector: a
        # box rotation passes the orthonormality and determinant test of a
        # pose (2 I would double both).
        for rotation, match in ((2.0 * np.eye(3), "orthonormal"),
                                (np.diag([1.0, 1.0, -1.0]), "determinant"),
                                (np.full((3, 3), np.nan), "non-finite"),
                                (np.eye(2), "3, 3")):
            with pytest.raises(ValueError, match=match):
                BoxObstacle(center=np.zeros(3), half_extents=np.ones(3),
                            rotation=rotation)
        up = np.array([0.0, 0.0, 1.0])
        for bad in (np.nan, np.inf, -np.inf):
            vec = np.array([0.0, bad, 0.0])
            for make in (lambda: SphereObstacle(center=vec, radius=0.1),
                         lambda: SphereObstacle(center=np.zeros(3), radius=bad),
                         lambda: BoxObstacle(center=vec, half_extents=np.ones(3)),
                         lambda: BoxObstacle(center=np.zeros(3),
                                             half_extents=np.abs(vec) + 1.0),
                         lambda: HalfspaceObstacle(point=vec, normal=up),
                         lambda: HalfspaceObstacle(point=np.zeros(3), normal=vec + up)):
                with pytest.raises(ValueError, match="finite"):
                    make()

    def test_from_doc_literal_values(self):
        docs = [
            {"type": "sphere", "center": [0.1, 0.2, 0.3], "radius": 0.4},
            {"type": "box", "center": [1.0, 0.0, 0.0], "half_extents": [0.1, 0.2, 0.3],
             "rotation": [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]},
            {"type": "box", "center": [0.0, 0.0, 1.0], "half_extents": [0.5, 0.5, 0.5]},
            {"type": "halfspace", "point": [0.0, 0.0, 0.0], "normal": [0.0, 0.0, 2.0]},
        ]
        sphere, box, plain_box, halfspace = obstacles_from_doc(docs)
        assert isinstance(sphere, SphereObstacle)
        assert sphere.center.tolist() == [0.1, 0.2, 0.3]
        assert sphere.radius == 0.4
        assert isinstance(box, BoxObstacle)
        assert box.center.tolist() == [1.0, 0.0, 0.0]
        assert box.half_extents.tolist() == [0.1, 0.2, 0.3]
        assert box.rotation.tolist() == [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                         [0.0, 0.0, 1.0]]
        assert plain_box.rotation.tolist() == np.eye(3).tolist()
        assert isinstance(halfspace, HalfspaceObstacle)
        assert halfspace.point.tolist() == [0.0, 0.0, 0.0]
        assert halfspace.normal.tolist() == [0.0, 0.0, 1.0]   # normalized

    def test_unknown_obstacle_type_rejected(self):
        with pytest.raises(ValueError, match="obstacle"):
            obstacles_from_doc([{"type": "torus"}])


class TestResidualBlocks:
    def test_smooth_zero_for_constant_trajectory(self):
        configs = np.tile(np.array([0.3, -0.1]), (5, 1))
        block = cost_smooth(configs, 10.0)
        assert block.shape == (4, 2)
        assert np.all(block == 0.0)

    def test_smooth_known_value(self):
        configs = np.array([[0.0], [0.1]])
        block = cost_smooth(configs, 10.0)
        assert float(np.sum(block ** 2)) == pytest.approx(0.1, abs=1e-12)

    def test_linear_interpolation_minimizes_smoothness(self, rng):
        q_start = np.array([-0.4, 0.2])
        q_end = np.array([0.6, -0.5])
        linear = init_trajectory(q_start, q_end, 9)
        best = float(np.sum(cost_smooth(linear, 10.0) ** 2))
        for _ in range(100):
            perturbed = linear.copy()
            perturbed[1:-1] += 0.05 * rng.standard_normal((7, 2))
            cost = float(np.sum(cost_smooth(perturbed, 10.0) ** 2))
            assert best <= cost + 1e-15

    def test_rest_zero_at_rest_posture(self):
        q_rest = np.array([0.2, -0.3])
        configs = np.tile(q_rest, (4, 1))
        assert np.all(cost_rest(configs, q_rest, 0.1) == 0.0)

    def test_rest_known_value_and_weight_scaling(self):
        configs = np.array([[1.0]])
        q_rest = np.array([0.0])
        low = float(np.sum(cost_rest(configs, q_rest, 0.1) ** 2))
        high = float(np.sum(cost_rest(configs, q_rest, 0.2) ** 2))
        assert low == pytest.approx(0.1, abs=1e-12)
        assert high == pytest.approx(2.0 * low, rel=1e-12)

    def test_limits_zero_inside(self):
        model = planar_two_link()
        configs = np.array([[0.5, -0.5], [0.52, -0.48], [0.54, -0.46]])
        assert np.all(penalty_limits(configs, model, 100.0, dt=0.1) == 0.0)

    def test_limits_known_violation_value(self):
        model = planar_two_link()
        configs = np.array([[np.pi + 0.2, 0.0]])
        block = penalty_limits(configs, model, 100.0, dt=0.1)
        assert float(np.sum(block ** 2)) == pytest.approx(4.0, abs=1e-9)

    def test_velocity_hinge_value(self):
        model = planar_two_link()  # velocity limit 5.0 rad/s
        configs = np.array([[0.0, 0.0], [0.7, 0.0]])
        block = penalty_limits(configs, model, 100.0, dt=0.1)
        # |0.7| - 5.0 * 0.1 = 0.2 over the cap on joint 0 only.
        assert float(np.sum(block ** 2)) == pytest.approx(4.0, abs=1e-9)

    def test_limit_hinge_finite_difference_gradient(self):
        model = one_link_with_sphere()
        w = 100.0
        q_max = model.q_max[0]

        def f(q):
            return float(np.sum(penalty_limits(np.array([[q]]), model, w, 0.1) ** 2))

        h = 1e-6
        outside = q_max + 0.1
        fd = (f(outside + h) - f(outside - h)) / (2.0 * h)
        assert fd == pytest.approx(2.0 * w * 0.1, abs=1e-3)
        inside = q_max - 0.1
        assert (f(inside + h) - f(inside - h)) / (2.0 * h) == 0.0


class TestSignedDistance:
    def test_analytic_clearance(self):
        model = one_link_with_sphere(radius=0.1)
        obs = SphereObstacle(center=np.array([1.0, 0.0, 0.0]), radius=0.2)
        d = swept_clearance(model, np.array([0.0]), np.array([0.0]), obs)
        assert d == pytest.approx(0.7, abs=1e-12)

    def test_analytic_penetration(self):
        model = one_link_with_sphere(radius=0.1)
        obs = SphereObstacle(center=np.array([0.25, 0.0, 0.0]), radius=0.2)
        d = swept_clearance(model, np.array([0.0]), np.array([0.0]), obs)
        assert d == pytest.approx(-0.05, abs=1e-12)

    def test_swept_sampling_catches_mid_segment_contact(self):
        model = spinner_with_tip_sphere(arm=1.0, radius=0.05)
        obs = SphereObstacle(center=np.array([0.0, 1.0, 0.0]), radius=0.05)
        q_a, q_b = np.array([0.0]), np.array([np.pi])
        coarse = swept_clearance(model, q_a, q_b, obs, swept_samples=2)
        fine = swept_clearance(model, q_a, q_b, obs, swept_samples=3)
        assert coarse == pytest.approx(np.sqrt(2.0) - 0.1, abs=1e-12)
        assert fine == pytest.approx(-0.1, abs=1e-12)
        assert fine < 0.0 < coarse

    def test_needs_two_samples(self):
        model = one_link_with_sphere()
        obs = SphereObstacle(center=np.array([1.0, 0.0, 0.0]), radius=0.2)
        with pytest.raises(ValueError, match="swept_samples"):
            swept_clearance(model, np.array([0.0]), np.array([0.0]), obs,
                            swept_samples=1)

    def test_no_spheres_means_infinitely_clear(self):
        model = planar_two_link()
        obs = SphereObstacle(center=np.zeros(3), radius=1.0)
        d = swept_clearance(model, np.zeros(2), np.zeros(2), obs)
        assert np.isinf(d) and d > 0


class TestPenaltyCollision:
    def test_zero_when_clear(self):
        model = one_link_with_sphere(radius=0.1)
        obs = SphereObstacle(center=np.array([10.0, 0.0, 0.0]), radius=0.2)
        configs = np.array([[0.0], [0.5]])
        block = penalty_collision(configs, model, (obs,), 15.0, eps_safe=0.02)
        assert block.shape == (1,)
        assert np.all(block == 0.0)

    def test_known_deficit_value(self):
        model = one_link_with_sphere(radius=0.1)
        obs = SphereObstacle(center=np.array([0.31, 0.0, 0.0]), radius=0.2)
        configs = np.array([[0.0], [0.0]])
        block = penalty_collision(configs, model, (obs,), 15.0, eps_safe=0.02)
        # clearance 0.01 against eps 0.02: cost w * (0.01)^2
        assert float(np.sum(block ** 2)) == pytest.approx(1.5e-3, abs=1e-12)

    def test_monotone_in_penetration_depth(self):
        model = one_link_with_sphere(radius=0.1)
        configs = np.array([[0.0], [0.0]])
        costs = []
        for x in (0.31, 0.30, 0.29):
            obs = SphereObstacle(center=np.array([x, 0.0, 0.0]), radius=0.2)
            block = penalty_collision(configs, model, (obs,), 15.0, eps_safe=0.02)
            costs.append(float(np.sum(block ** 2)))
        assert costs[0] < costs[1] < costs[2]

    def test_no_obstacles_gives_empty_block(self):
        model = one_link_with_sphere()
        block = penalty_collision(np.array([[0.0], [1.0]]), model, (), 15.0, 0.02)
        assert block.size == 0


class TestInitTrajectory:
    def test_two_steps_are_exact_endpoints(self):
        a = np.array([0.123456789, -0.98765])
        b = np.array([-0.4, 0.7])
        traj = init_trajectory(a, b, 2)
        assert np.array_equal(traj[0], a)
        assert np.array_equal(traj[-1], b)

    def test_constant_when_endpoints_match(self):
        a = np.array([0.3, 0.4])
        traj = init_trajectory(a, a.copy(), 7)
        assert np.all(traj == a)

    def test_midpoint_of_three_steps(self):
        a = np.array([0.0, 1.0])
        b = np.array([1.0, 0.0])
        traj = init_trajectory(a, b, 3)
        np.testing.assert_allclose(traj[1], [0.5, 0.5], atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="steps"):
            init_trajectory(np.zeros(2), np.ones(2), 1)
        with pytest.raises(ValueError, match="shape"):
            init_trajectory(np.zeros(2), np.ones(3), 5)


def tridiagonal_reference(q_start, q_end, q_rest, steps, w_smooth, w_rest):
    """Closed-form minimizer of the smoothness+rest quadratic with pinned ends.

    Stationarity at interior step t reads
    (2 w_s + w_r) q_t - w_s q_{t-1} - w_s q_{t+1} = w_r q_rest.
    """
    dof = q_start.size
    n = steps - 2
    full = np.empty((steps, dof))
    full[0] = q_start
    full[-1] = q_end
    system = np.zeros((n, n))
    for i in range(n):
        system[i, i] = 2.0 * w_smooth + w_rest
        if i > 0:
            system[i, i - 1] = -w_smooth
        if i + 1 < n:
            system[i, i + 1] = -w_smooth
    for j in range(dof):
        rhs = np.full(n, w_rest * q_rest[j])
        rhs[0] += w_smooth * q_start[j]
        rhs[-1] += w_smooth * q_end[j]
        full[1:-1, j] = np.linalg.solve(system, rhs)
    return full


class TestOptimizeTrajectory:
    def test_matches_closed_form_quadratic(self):
        model = planar_two_link()
        q_start = np.array([-0.5, 0.3])
        q_end = np.array([0.8, -0.4])
        q_rest = np.array([0.1, -0.2])
        problem = TrajOptProblem(model=model, q_start=q_start, q_end=q_end,
                                 steps=12, q_rest=q_rest)
        result = optimize_trajectory(problem)
        w = problem.weights
        reference = tridiagonal_reference(q_start, q_end, q_rest, 12,
                                          w.smooth, w.rest)
        np.testing.assert_allclose(result.trajectory.configs, reference, atol=1e-6)
        assert result.converged
        assert np.isinf(result.min_clearance)
        assert result.term_costs["limits"] == 0.0
        assert result.term_costs["velocity"] == 0.0
        assert result.term_costs["collision"] == 0.0

    def test_final_cost_equals_sum_of_term_costs(self):
        model = planar_two_link()
        problem = TrajOptProblem(model=model, q_start=np.array([-0.5, 0.3]),
                                 q_end=np.array([0.8, -0.4]), steps=12)
        result = optimize_trajectory(problem)
        assert result.final_cost == pytest.approx(
            sum(result.term_costs.values()), abs=1e-9)

    def test_endpoints_bit_identical(self):
        model = planar_two_link()
        q_start = np.array([-0.5122334455667789, 0.3001122334455667])
        q_end = np.array([0.8765432109876543, -0.4098765432109876])
        problem = TrajOptProblem(model=model, q_start=q_start, q_end=q_end, steps=9)
        result = optimize_trajectory(problem)
        assert np.array_equal(result.trajectory.configs[0], q_start)
        assert np.array_equal(result.trajectory.configs[-1], q_end)

    def test_two_step_problem_returns_endpoints_without_iterating(self):
        model = planar_two_link()
        q_start = np.array([0.1, 0.2])
        q_end = np.array([0.3, 0.4])
        problem = TrajOptProblem(model=model, q_start=q_start, q_end=q_end, steps=2)
        result = optimize_trajectory(problem)
        assert result.iterations == 0
        assert result.converged
        assert np.array_equal(result.trajectory.configs,
                              np.stack([q_start, q_end]))

    def test_collision_case_reaches_safe_clearance(self):
        model = yaw_pitch_pointer(radius=0.05)
        angle = np.pi / 4.0
        obstacle = SphereObstacle(
            center=np.array([np.cos(angle), np.sin(angle), -0.05]), radius=0.02)
        problem = TrajOptProblem(
            model=model,
            q_start=np.array([0.0, 0.0]),
            q_end=np.array([np.pi / 2.0, 0.0]),
            steps=41,
            q_rest=np.zeros(2),
            weights=TrajOptWeights(smooth=10.0, rest=0.01, limits=100.0,
                                   collision=60.0),
            obstacles=(obstacle,),
        )
        init = init_trajectory(problem.q_start, problem.q_end, problem.steps)
        init_clearance = min(
            swept_clearance(model, init[t], init[t + 1], obstacle,
                            problem.swept_samples)
            for t in range(problem.steps - 1))
        assert init_clearance < 0.0, "fixture must start in collision"

        result = optimize_trajectory(problem)
        assert result.min_clearance >= problem.eps_safe - 1e-4
        assert result.converged
        assert result.iterations > 0
        assert np.array_equal(result.trajectory.configs[0], problem.q_start)
        assert np.array_equal(result.trajectory.configs[-1], problem.q_end)
        configs = result.trajectory.configs
        assert np.all(configs >= model.q_min - 1e-12)
        assert np.all(configs <= model.q_max + 1e-12)

        init_cost = float(np.sum(np.concatenate([
            cost_smooth(init, problem.weights.smooth).ravel(),
            cost_rest(init, problem.q_rest, problem.weights.rest).ravel(),
            penalty_limits(init, model, problem.weights.limits, problem.dt),
            penalty_collision(init, model, problem.obstacles,
                              problem.weights.collision, problem.eps_safe,
                              problem.swept_samples,
                              pad=problem.collision_pad),
        ]) ** 2))
        assert result.final_cost <= init_cost

    def test_reported_clearance_survives_denser_audit(self):
        model = yaw_pitch_pointer(radius=0.05)
        angle = np.pi / 4.0
        obstacle = SphereObstacle(
            center=np.array([np.cos(angle), np.sin(angle), -0.05]), radius=0.02)
        problem = TrajOptProblem(
            model=model,
            q_start=np.array([0.0, 0.0]),
            q_end=np.array([np.pi / 2.0, 0.0]),
            steps=41,
            q_rest=np.zeros(2),
            weights=TrajOptWeights(smooth=10.0, rest=0.01, limits=100.0,
                                   collision=60.0),
            obstacles=(obstacle,),
        )
        result = optimize_trajectory(problem)
        configs = result.trajectory.configs
        audit = min(
            swept_clearance(model, configs[t], configs[t + 1], obstacle,
                            swept_samples=4 * problem.swept_samples)
            for t in range(problem.steps - 1))
        assert abs(audit - result.min_clearance) <= 1e-3

    def test_validation(self):
        model = planar_two_link()
        with pytest.raises(ValueError, match=r"\(2,\)"):
            optimize_trajectory(TrajOptProblem(
                model=model, q_start=np.zeros(3), q_end=np.zeros(2), steps=5))
        with pytest.raises(ValueError, match="limits"):
            optimize_trajectory(TrajOptProblem(
                model=model, q_start=np.array([4.0, 0.0]),
                q_end=np.zeros(2), steps=5))
        with pytest.raises(ValueError, match="steps"):
            optimize_trajectory(TrajOptProblem(
                model=model, q_start=np.zeros(2), q_end=np.zeros(2), steps=1))


class TestProblemDocuments:
    def test_problem_from_doc_inline_robot(self):
        model = planar_two_link()
        doc = {
            "robot": robot_to_doc(model),
            "q_start": [0.1, 0.2],
            "q_end": [0.3, 0.4],
            "steps": 15,
            "q_rest": [0.0, 0.1],
            "weights": {"smooth": 5.0, "collision": 30.0},
            "eps_safe": 0.03,
            "swept_samples": 7,
            "dt": 0.05,
            "max_iters": 50,
            "obstacles": [{"type": "sphere", "center": [1.0, 0.0, 0.0],
                           "radius": 0.1}],
        }
        problem = problem_from_doc(doc)
        assert problem.model.dof == 2
        np.testing.assert_allclose(problem.q_start, [0.1, 0.2])
        np.testing.assert_allclose(problem.q_rest, [0.0, 0.1])
        assert problem.steps == 15
        assert problem.weights.smooth == 5.0
        assert problem.weights.collision == 30.0
        assert problem.weights.rest == 0.1      # default fills the gap
        assert problem.weights.limits == 100.0
        assert problem.eps_safe == 0.03
        assert problem.swept_samples == 7
        assert problem.dt == 0.05
        assert problem.lm.max_iters == 50
        assert len(problem.obstacles) == 1
        assert isinstance(problem.obstacles[0], SphereObstacle)

    def test_problem_from_doc_robot_path(self, tmp_path):
        model = planar_two_link()
        robot_dir = tmp_path / "robots"
        robot_dir.mkdir()
        (robot_dir / "planar.json").write_text(json.dumps(robot_to_doc(model)))
        doc = {"robot": "robots/planar.json", "q_start": [0.0, 0.0],
               "q_end": [0.5, 0.5], "steps": 8}
        problem = problem_from_doc(doc, base_dir=tmp_path)
        assert problem.model.name == model.name
        assert problem.q_rest is None
        assert problem.weights == TrajOptWeights()

    def test_result_round_trips_through_doc(self):
        model = planar_two_link()
        problem = TrajOptProblem(model=model, q_start=np.array([-0.2, 0.1]),
                                 q_end=np.array([0.4, -0.3]), steps=6)
        result = optimize_trajectory(problem)
        doc = result_to_doc(result)
        assert doc["min_clearance"] is None    # no obstacles: infinite clearance
        assert doc["converged"] is True
        assert doc["final_cost"] == result.final_cost
        np.testing.assert_allclose(np.array(doc["trajectory"]),
                                   result.trajectory.configs, atol=0)
        assert doc["dt"] == problem.dt
