"""Acceptance gate: the toolkit's headline guarantees, one line per criterion.

Each test exercises one numbered guarantee end to end and prints a single
``[criterion NN] PASS/FAIL`` line with the measured numbers (run pytest with
``-s`` to see the lines as they happen; they are also embedded in any
assertion failure).  Tolerances are asserted exactly as stated, never
loosened to make a run pass.
"""

import json
import math
import time
from importlib import resources
from pathlib import Path

import numpy as np

from conftest import planar_two_link
from nvflow.cli import main as cli_main
from nvflow.deformable import MPCConfig, build_correspondence, flow_cost, mpc_rollout
from nvflow.fileio import read_flow, write_flow
from nvflow.flow import (
    FlowCandidate,
    TrackSet,
    calibrate_depth,
    distill_flow,
    score_flow,
    select_candidate,
)
from nvflow.geometry import DepthMap, rotation_from_axis_angle, rotation_geodesic_angle
from nvflow.rigid import estimate_rigid_transform, flow_to_pose_trajectory
from nvflow.sim import (
    DEFAULT_SENSOR_NOISE,
    SceneConfig,
    corrupt_flow,
    evaluate_deformable,
    evaluate_rigid,
    generate_scene,
)
from nvflow.trajopt import (
    LMOptions,
    TrajOptProblem,
    TrajOptWeights,
    cost_rest,
    cost_smooth,
    init_trajectory,
    levenberg_marquardt,
    optimize_trajectory,
    penalty_collision,
    penalty_limits,
    problem_from_doc,
)

FIXTURES = Path(str(resources.files("nvflow") / "fixtures"))


def report(number, name, passed, detail):
    line = f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def random_rotation(rng):
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_from_axis_angle(axis * rng.uniform(0.0, math.pi))


def distill_pose_trajectory(bundle):
    """The pipeline's estimation path: calibrate, rescale, distill, fit poses."""
    scale = calibrate_depth(bundle.depth, bundle.depth_ref)
    tracks = TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible)
    flow = distill_flow(tracks, bundle.mask, bundle.config.intrinsics,
                        label=bundle.gt_flow.label)
    return flow_to_pose_trajectory(flow)


def test_criterion_01_rigid_transform_recovery():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst_rot = 0.0
    worst_trans = 0.0
    noisy_good = 0
    trials = 1000
    for _ in range(trials):
        cloud = rng.uniform(-0.3, 0.3, (50, 3))
        rotation = random_rotation(rng)
        translation = rng.uniform(-1.0, 1.0, 3)
        moved = cloud @ rotation.T + translation

        pose = estimate_rigid_transform(cloud, moved)
        worst_rot = max(worst_rot, float(np.linalg.norm(pose.rotation - rotation)))
        worst_trans = max(worst_trans,
                          float(np.linalg.norm(pose.translation - translation)))

        noisy = moved + rng.normal(0.0, 0.001, moved.shape)
        noisy_pose = estimate_rigid_transform(cloud, noisy)
        rot_deg = math.degrees(rotation_geodesic_angle(noisy_pose.rotation, rotation))
        trans_mm = 1000.0 * float(np.linalg.norm(noisy_pose.translation - translation))
        if rot_deg < 0.5 and trans_mm < 2.0:
            noisy_good += 1
    elapsed = time.perf_counter() - start
    report(1, "rigid transform recovery",
           worst_rot <= 1e-9 and worst_trans <= 1e-9
           and noisy_good >= 990 and elapsed < 5.0,
           f"exact worst rot {worst_rot:.2e} / trans {worst_trans:.2e}, "
           f"1 mm noise ok {noisy_good}/{trials}, {elapsed:.2f} s")


def _euler_rotation_grid(step_deg=5.0):
    yaw = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    pitch = np.deg2rad(np.arange(-90.0, 90.0 + step_deg / 2.0, step_deg))
    roll = np.deg2rad(np.arange(0.0, 360.0, step_deg))

    rz = np.zeros((yaw.size, 3, 3))
    rz[:, 0, 0] = np.cos(yaw)
    rz[:, 0, 1] = -np.sin(yaw)
    rz[:, 1, 0] = np.sin(yaw)
    rz[:, 1, 1] = np.cos(yaw)
    rz[:, 2, 2] = 1.0

    ry = np.zeros((pitch.size, 3, 3))
    ry[:, 0, 0] = np.cos(pitch)
    ry[:, 0, 2] = np.sin(pitch)
    ry[:, 1, 1] = 1.0
    ry[:, 2, 0] = -np.sin(pitch)
    ry[:, 2, 2] = np.cos(pitch)

    rx = np.zeros((roll.size, 3, 3))
    rx[:, 0, 0] = 1.0
    rx[:, 1, 1] = np.cos(roll)
    rx[:, 1, 2] = -np.sin(roll)
    rx[:, 2, 1] = np.sin(roll)
    rx[:, 2, 2] = np.cos(roll)

    zy = np.einsum("aij,bjk->abik", rz, ry).reshape(-1, 3, 3)
    return np.einsum("mij,cjk->mcik", zy, rx).reshape(-1, 3, 3)


def test_criterion_02_rotation_fit_optimality():
    rng = np.random.default_rng(202)
    grid = _euler_rotation_grid(5.0)
    det_ok = 0
    optimal = 0
    worst_gap = -np.inf
    trials = 100
    for trial in range(trials):
        k = int(rng.integers(3, 7))
        src = rng.uniform(-0.2, 0.2, (k, 3))
        kind = trial % 4
        if kind == 0:
            centered = src - src.mean(axis=0)
            tgt = centered @ np.diag([1.0, 1.0, -1.0]) + rng.uniform(-0.5, 0.5, 3)
        elif kind == 1:
            tgt = (src @ random_rotation(rng).T + rng.uniform(-0.5, 0.5, 3)
                   + rng.normal(0.0, 0.05, (k, 3)))
        elif kind == 2:
            tgt = rng.uniform(-0.2, 0.2, (k, 3))
        else:
            tgt = src @ random_rotation(rng).T + rng.uniform(-0.5, 0.5, 3)

        pose = estimate_rigid_transform(src, tgt)
        if abs(np.linalg.det(pose.rotation) - 1.0) <= 1e-9:
            det_ok += 1

        a = src - src.mean(axis=0)
        b = tgt - tgt.mean(axis=0)
        svd_residual = float(((a @ pose.rotation.T - b) ** 2).sum())
        rotated = np.einsum("mij,kj->mki", grid, a)
        grid_residual = float(((rotated - b) ** 2).sum(axis=(1, 2)).min())
        worst_gap = max(worst_gap, svd_residual - grid_residual)
        if svd_residual <= grid_residual + 1e-12:
            optimal += 1
    report(2, "rotation fit optimality",
           optimal == trials and det_ok == trials,
           f"svd <= 5 deg grid on {optimal}/{trials} "
           f"(worst gap {worst_gap:.2e}), det(R)=+1 on {det_ok}/{trials}")


def test_criterion_03_least_squares_solver():
    rng = np.random.default_rng(303)

    a = rng.standard_normal((30, 6))
    x_true = rng.standard_normal(6)
    b = a @ x_true
    linear = levenberg_marquardt(lambda x: a @ x - b, np.zeros(6),
                                 jacobian=lambda x: a)
    x_ref = np.linalg.lstsq(a, b, rcond=None)[0]
    linear_err = float(np.max(np.abs(linear.x - x_ref)))
    linear_ok = linear.iterations <= 3 and linear_err <= 1e-8

    def rosenbrock(v):
        x, y = v
        return np.array([10.0 * (y - x * x), 1.0 - x])

    def rosenbrock_jac(v):
        x, _ = v
        return np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])

    rosen = levenberg_marquardt(rosenbrock, np.array([-1.2, 1.0]),
                                jacobian=rosenbrock_jac,
                                options=LMOptions(max_iters=200))
    rosen_err = float(np.max(np.abs(rosen.x - 1.0)))
    rosen_ok = rosen_err <= 1e-6

    monotone = 0
    problems = 200
    for seed in range(problems):
        prng = np.random.default_rng(seed)
        a_k = prng.standard_normal((10, 5))
        b_k = prng.standard_normal((10, 5))
        y_k = prng.standard_normal(10)

        def residual(x, a_k=a_k, b_k=b_k, y_k=y_k):
            return a_k @ x + 0.5 * np.sin(b_k @ x) - y_k

        result = levenberg_marquardt(residual, 0.5 * prng.standard_normal(5))
        history = np.asarray(result.cost_history)
        if np.isfinite(history).all() and np.all(np.diff(history) < 0.0):
            monotone += 1

    report(3, "least-squares solver",
           linear_ok and rosen_ok and monotone == problems,
           f"linear {linear.iterations} iters err {linear_err:.1e}, "
           f"rosenbrock err {rosen_err:.1e}, "
           f"monotone {monotone}/{problems}")


def tridiagonal_interior(q_start, q_end, q_rest, steps, w_smooth, w_rest):
    """Closed-form interior of the obstacle-free smoothness + rest quadratic."""
    n = steps - 2
    dof = q_start.size
    interior = np.zeros((n, dof))
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
        interior[:, j] = np.linalg.solve(system, rhs)
    return interior


def test_criterion_04_trajectory_optimizer():
    q_start = np.array([-0.5, 0.3])
    q_end = np.array([0.8, -0.4])
    q_rest = np.array([0.1, -0.2])
    quad_problem = TrajOptProblem(
        model=planar_two_link(), q_start=q_start, q_end=q_end, steps=12,
        q_rest=q_rest)
    quad = optimize_trajectory(quad_problem)
    w = quad_problem.weights
    expected = tridiagonal_interior(q_start, q_end, q_rest, 12, w.smooth, w.rest)
    quad_err = float(np.max(np.abs(quad.trajectory.configs[1:-1] - expected)))
    quad_ok = quad_err <= 1e-6

    doc = json.loads((FIXTURES / "trajopt_fixture.json").read_text())
    problem = problem_from_doc(doc, base_dir=FIXTURES)
    weights_ok = problem.weights == TrajOptWeights(
        smooth=10.0, rest=0.1, limits=100.0, collision=15.0)

    start = time.perf_counter()
    result = optimize_trajectory(problem)
    elapsed = time.perf_counter() - start

    model = problem.model
    q = result.trajectory.configs
    endpoints_ok = (np.array_equal(q[0], np.asarray(problem.q_start, dtype=float))
                    and np.array_equal(q[-1], np.asarray(problem.q_end, dtype=float)))
    endpoint_dev = float(max(np.max(np.abs(q[0] - problem.q_start)),
                             np.max(np.abs(q[-1] - problem.q_end))))
    limits_ok = bool((q >= model.q_min).all() and (q <= model.q_max).all())
    limit_excess = float(max(np.max(model.q_min - q), np.max(q - model.q_max), 0.0))
    clearance_ok = result.min_clearance >= problem.eps_safe - 1e-4

    rest = (np.asarray(problem.q_rest, dtype=float) if problem.q_rest is not None
            else 0.5 * (model.q_min + model.q_max))
    init = init_trajectory(problem.q_start, problem.q_end, problem.steps)
    init_residual = np.concatenate([
        cost_smooth(init, problem.weights.smooth).ravel(),
        cost_rest(init, rest, problem.weights.rest).ravel(),
        penalty_limits(init, model, problem.weights.limits, problem.dt),
        penalty_collision(init, model, problem.obstacles,
                          problem.weights.collision, problem.eps_safe,
                          problem.swept_samples,
                          pad=problem.collision_pad),
    ])
    init_cost = float(init_residual @ init_residual)
    cost_ok = result.final_cost <= init_cost

    report(4, "trajectory optimizer",
           quad_ok and weights_ok and clearance_ok and endpoints_ok
           and limits_ok and cost_ok and elapsed < 30.0,
           f"quadratic err {quad_err:.1e} rad, fixture {problem.weights} "
           f"(matches expected {weights_ok}), "
           f"endpoint drift {endpoint_dev:.1e} rad (bit-exact {endpoints_ok}), "
           f"worst limit excess {limit_excess:.1e} rad, fixture clearance "
           f"{result.min_clearance:.4f} (needs {problem.eps_safe - 1e-4:.4f}), "
           f"cost {result.final_cost:.3f} <= init {init_cost:.3f}, "
           f"{elapsed:.1f} s")


def test_criterion_05_depth_calibration():
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    trials = 100
    for trial in range(trials):
        shape = (40, 50)
        base = rng.uniform(0.4, 3.0, shape)
        ref_vals = np.where(rng.random(shape) < 0.08, 0.0, base)
        est_vals = np.where(rng.random(shape) < 0.08, 0.0,
                            base * rng.uniform(0.4, 2.5))
        if trial % 2 == 0:
            est_vals = np.where((rng.random(shape) < 0.05) & (est_vals > 0),
                                est_vals * rng.uniform(5.0, 50.0, shape), est_vals)
            ref_vals = np.where((rng.random(shape) < 0.05) & (ref_vals > 0),
                                ref_vals * rng.uniform(5.0, 50.0, shape), ref_vals)
        scale = calibrate_depth(DepthMap(est_vals), DepthMap(ref_vals))
        first = DepthMap(est_vals * scale)
        med_cal = float(np.median(first.values[first.valid]))
        med_ref = float(np.median(ref_vals[ref_vals > 0.0]))
        worst_rel = max(worst_rel, abs(med_cal - med_ref) / med_ref)
    report(5, "depth calibration",
           worst_rel <= 1e-9,
           f"worst relative median mismatch {worst_rel:.2e} over {trials} pairs")


def test_criterion_06_pipeline_pose_closure():
    clean = generate_scene(SceneConfig.rigid_demo())
    poses = distill_pose_trajectory(clean)
    worst_rot = max(float(np.linalg.norm(a.rotation - b.rotation))
                    for a, b in zip(poses.poses, clean.gt_poses.poses))
    worst_trans = max(float(np.linalg.norm(a.translation - b.translation))
                      for a, b in zip(poses.poses, clean.gt_poses.poses))
    zero_ok = worst_rot <= 1e-9 and worst_trans <= 1e-9

    hits = 0
    worst_final = (0.0, 0.0)
    for seed in range(10):
        bundle = generate_scene(
            SceneConfig.rigid_demo(seed=seed, noise=DEFAULT_SENSOR_NOISE))
        metrics = evaluate_rigid(distill_pose_trajectory(bundle), bundle.gt_poses)
        worst_final = (max(worst_final[0], metrics.rotation_error_deg[-1]),
                       max(worst_final[1], metrics.translation_error_mm[-1]))
        hits += bool(metrics.success)

    report(6, "pipeline pose closure",
           zero_ok and hits >= 9,
           f"zero-noise worst rot {worst_rot:.1e} / trans {worst_trans:.1e}, "
           f"noisy {hits}/10 within 2 deg / 5 mm "
           f"(worst final {worst_final[0]:.2f} deg / {worst_final[1]:.2f} mm)")


def test_criterion_07_end_to_end_rigid_runs(tmp_path):
    start = time.perf_counter()
    successes = 0
    collision_free = 0
    for seed in range(10):
        out = tmp_path / f"run_{seed:02d}"
        code = cli_main(["run", "--seed", str(seed), "--out-dir", str(out)])
        if code != 0:
            continue
        metrics = json.loads((out / "metrics.json").read_text())
        result = json.loads((out / "plan" / "result.json").read_text())
        successes += metrics["success"] is True
        clearance = result["min_clearance"]
        collision_free += clearance is not None and clearance > 0.0
    elapsed = time.perf_counter() - start
    report(7, "end-to-end rigid runs",
           successes == 10 and collision_free == 10 and elapsed < 120.0,
           f"success {successes}/10, collision-free {collision_free}/10, "
           f"{elapsed:.0f} s total")


def test_criterion_08_deformable_tracking():
    start = time.perf_counter()

    plain = generate_scene(SceneConfig.rope_demo())
    corr = build_correspondence(plain.gt_flow, plain.initial_state.positions)
    rollout = mpc_rollout(plain.dynamics, plain.initial_state, plain.gt_flow,
                          MPCConfig(), corr)
    # The starting error is measured against the final target frame; the
    # per-frame rollout cost at t=0 is trivially zero because the rope starts
    # on the first flow frame.
    initial_cost = flow_cost(plain.initial_state, plain.gt_flow.positions[-1],
                             corr.indices)
    straighten_ratio = rollout.costs[-1] / initial_cost
    straighten_ok = rollout.costs[-1] <= 0.10 * initial_cost

    mirrored = generate_scene(SceneConfig.rope_demo(mirrored=True))
    corr_m = build_correspondence(mirrored.gt_flow,
                                  mirrored.initial_state.positions)
    flow_roll = mpc_rollout(mirrored.dynamics, mirrored.initial_state,
                            mirrored.gt_flow, MPCConfig(), corr_m,
                            cost_mode="flow")
    cham_roll = mpc_rollout(mirrored.dynamics, mirrored.initial_state,
                            mirrored.gt_flow, MPCConfig(), corr_m,
                            cost_mode="chamfer_final")
    flow_err = evaluate_deformable(flow_roll.states[-1], mirrored.gt_flow,
                                   corr_m).final_correspondence_rmse_mm
    cham_err = evaluate_deformable(cham_roll.states[-1], mirrored.gt_flow,
                                   corr_m).final_correspondence_rmse_mm
    mirror_ok = flow_err < cham_err / 5.0
    elapsed = time.perf_counter() - start

    report(8, "deformable tracking",
           straighten_ok and mirror_ok and elapsed < 300.0,
           f"straightening cost ratio {straighten_ratio:.3f} (needs <= 0.10), "
           f"mirrored final rmse {flow_err:.1f} mm (flow) vs {cham_err:.1f} mm "
           f"(chamfer), {elapsed:.0f} s")


def test_criterion_09_candidate_selection():
    bundle = generate_scene(SceneConfig.rigid_demo(seed=0,
                                                   noise=DEFAULT_SENSOR_NOISE))
    intr = bundle.config.intrinsics
    scale = calibrate_depth(bundle.depth, bundle.depth_ref)
    tracks = TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible)
    clean = distill_flow(tracks, bundle.mask, intr, label=bundle.gt_flow.label)
    clean_score = score_flow(clean, intr)

    sigmas = np.linspace(0.02, 0.15, 7)
    wins = 0
    trials = 100
    for trial in range(trials):
        candidates = [FlowCandidate(0, clean, clean_score)]
        for k, sigma in enumerate(sigmas, start=1):
            corrupted = corrupt_flow(clean, sigma=float(sigma),
                                     seed=trial * 1000 + k)
            candidates.append(FlowCandidate(k, corrupted,
                                            score_flow(corrupted, intr)))
        wins += select_candidate(candidates) == 0
    report(9, "candidate selection",
           wins >= 95,
           f"clean candidate won {wins}/{trials} trials (needs >= 95)")


def test_criterion_10_determinism_and_round_trip(tmp_path):
    config_path = tmp_path / "demo_config.json"
    SceneConfig.rigid_demo(noise=DEFAULT_SENSOR_NOISE).save(config_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["simulate", "--config", str(config_path), "--seed", "3",
                       "--out-dir", str(out_a)])
    code_b = cli_main(["simulate", "--config", str(config_path), "--seed", "3",
                       "--out-dir", str(out_b)])
    manifests_ok = (
        code_a == 0 and code_b == 0
        and ((out_a / "manifest.json").read_bytes()
             == (out_b / "manifest.json").read_bytes())
        and ((out_a / "run_manifest.json").read_bytes()
             == (out_b / "run_manifest.json").read_bytes()))

    rng = np.random.default_rng(1010)
    exact = 0
    flows = 100
    for _ in range(flows):
        frames = int(rng.integers(2, 9))
        points = int(rng.integers(1, 41))
        positions = rng.normal(
            scale=rng.uniform(1e-3, 1e3),
            size=(frames, points, 3)).astype(np.float32)
        path = tmp_path / "round_trip.nvfl"
        write_flow(path, positions)
        back, label = read_flow(path)
        if label == "" and np.array_equal(
                np.asarray(back, dtype=np.float32), positions):
            exact += 1

    report(10, "determinism and serialization",
           manifests_ok and exact == flows,
           f"manifests bit-identical: {manifests_ok}, "
           f"binary round trips exact: {exact}/{flows}")
