"""Tests for forward kinematics, Jacobians, and damped-least-squares IK."""

import csv
import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvflow.geometry import SE3Pose, axis_angle_from_rotation, rotation_from_axis_angle
from nvflow.kinematics import (
    CollisionSphere,
    IKOptions,
    IKUnreachableError,
    Joint,
    JointTrajectory,
    RobotModel,
    forward_kinematics,
    jacobian,
    load_robot,
    robot_from_doc,
    robot_to_doc,
    solve_ik,
    sphere_centers_batch,
    sphere_radii,
)

from conftest import one_link_with_sphere, planar_two_link, spinner_with_tip_sphere

ARM7_PATH = files("nvflow").joinpath("fixtures/arm7.json")


def planar_ee(q):
    """Independent closed-form tip position for the two-unit-link planar arm."""
    q1, q2 = q
    return np.array([math.cos(q1) + math.cos(q1 + q2),
                     math.sin(q1) + math.sin(q1 + q2), 0.0])


class TestForwardKinematics:
    def test_planar_arm_stretched_along_x(self):
        ee, links = forward_kinematics(planar_two_link(), np.zeros(2))
        assert np.allclose(ee.translation, [2.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(links[0].translation, [0.0, 0.0, 0.0])
        assert np.allclose(links[1].translation, [1.0, 0.0, 0.0])

    def test_planar_arm_straight_up(self):
        ee, _ = forward_kinematics(planar_two_link(), np.array([math.pi / 2.0, 0.0]))
        assert np.allclose(ee.translation, [0.0, 2.0, 0.0], atol=1e-12)

    def test_planar_arm_elbow_bend(self):
        ee, _ = forward_kinematics(planar_two_link(),
                                   np.array([math.pi / 2.0, -math.pi / 2.0]))
        assert np.allclose(ee.translation, [1.0, 1.0, 0.0], atol=1e-12)

    def test_matches_trig_oracle(self, rng):
        model = planar_two_link()
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, size=2)
            ee, _ = forward_kinematics(model, q)
            assert np.allclose(ee.translation, planar_ee(q), atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(q1=st.floats(-math.pi, math.pi), q2=st.floats(-math.pi, math.pi))
    def test_reach_never_exceeds_link_sum(self, q1, q2):
        ee, _ = forward_kinematics(planar_two_link(), np.array([q1, q2]))
        assert np.linalg.norm(ee.translation) <= 2.0 + 1e-9

    def test_base_pose_offsets_the_chain(self):
        base = SE3Pose(np.eye(3), np.array([0.5, 0.0, 0.2]))
        model = RobotModel(joints=planar_two_link().joints,
                           ee_offset=planar_two_link().ee_offset, base_pose=base)
        ee, _ = forward_kinematics(model, np.zeros(2))
        assert np.allclose(ee.translation, [2.5, 0.0, 0.2])

    def test_wrong_config_shape_raises(self):
        with pytest.raises(ValueError):
            forward_kinematics(planar_two_link(), np.zeros(3))


class TestJacobian:
    def test_single_joint_analytic(self):
        model = spinner_with_tip_sphere(arm=1.0)
        for q in (0.0, 0.7, -1.3):
            jac = jacobian(model, np.array([q]))
            assert np.allclose(jac[:3, 0], [-math.sin(q), math.cos(q), 0.0], atol=1e-12)
            assert np.allclose(jac[3:, 0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_zero_lever_arm_column_vanishes(self):
        model = one_link_with_sphere()
        jac = jacobian(model, np.zeros(1))
        assert np.allclose(jac[:3, 0], 0.0, atol=1e-15)
        assert np.allclose(jac[3:, 0], [0.0, 0.0, 1.0])

    def test_central_difference_on_seven_dof_arm(self):
        model = load_robot(ARM7_PATH)
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(100):
            q = rng.uniform(model.q_min, model.q_max)
            jac = jacobian(model, q)
            for j in range(model.dof):
                dq = np.zeros(model.dof)
                dq[j] = h
                ee_plus, _ = forward_kinematics(model, q + dq)
                ee_minus, _ = forward_kinematics(model, q - dq)
                lin_fd = (ee_plus.translation - ee_minus.translation) / (2.0 * h)
                ang_fd = axis_angle_from_rotation(
                    ee_plus.rotation @ ee_minus.rotation.T) / (2.0 * h)
                assert np.allclose(jac[:3, j], lin_fd, atol=1e-5)
                assert np.allclose(jac[3:, j], ang_fd, atol=1e-5)


def reference_solve_ik(model, target, seed_config=None, options=IKOptions()):
    """``solve_ik`` as it was before it kept each iterate's FK: two FK calls
    and one Jacobian per iteration, each through the public functions.
    Returns (q, attempt) where ``solve_ik`` returns q."""
    def pose_error(current):
        rot_err = axis_angle_from_rotation(target.rotation @ current.rotation.T)
        return np.concatenate([target.translation - current.translation, rot_err])

    q_min, q_max = model.q_min, model.q_max
    if seed_config is None:
        seed_config = 0.5 * (q_min + q_max)
    seed_config = np.clip(np.asarray(seed_config, dtype=float), q_min, q_max)
    rng = np.random.default_rng(options.seed)
    best_pos, best_rot = np.inf, np.inf
    for attempt in range(options.restarts + 1):
        q = seed_config.copy() if attempt == 0 else rng.uniform(q_min, q_max)
        damping = options.damping
        err = pose_error(forward_kinematics(model, q)[0])
        residual = np.linalg.norm(err)
        stall = 0
        for _ in range(options.max_iters):
            pos_err = float(np.linalg.norm(err[:3]))
            rot_err = float(np.linalg.norm(err[3:]))
            if pos_err + rot_err < best_pos + best_rot:
                best_pos, best_rot = pos_err, rot_err
            if pos_err <= options.pos_tol and rot_err <= options.rot_tol:
                return q, attempt
            jac = jacobian(model, q)
            jtj = jac.T @ jac + damping**2 * np.eye(model.dof)
            step = np.linalg.solve(jtj, jac.T @ err)
            q_new = np.clip(q + step, q_min, q_max)
            err_new = pose_error(forward_kinematics(model, q_new)[0])
            residual_new = np.linalg.norm(err_new)
            if residual_new < residual:
                q, err, residual = q_new, err_new, residual_new
                damping = max(damping * 0.5, 1e-6)
                stall = 0
            else:
                damping = min(damping * 4.0, 1e3)
                stall += 1
                if stall >= 10:
                    break
    raise IKUnreachableError(best_pos, best_rot)


class TestSolveIK:
    def test_fixed_point(self):
        model = planar_two_link()
        q0 = np.array([0.4, -0.8])
        target, _ = forward_kinematics(model, q0)
        q = solve_ik(model, target, seed_config=q0)
        assert np.allclose(q, q0, atol=1e-3)
        ee, _ = forward_kinematics(model, q)
        assert np.linalg.norm(ee.translation - target.translation) <= 1e-4

    def test_two_link_against_trig_oracle(self):
        model = planar_two_link()
        options = IKOptions(pos_tol=1e-7, rot_tol=1e-7, max_iters=200)
        q_true = np.array([0.3, 0.9])
        target, _ = forward_kinematics(model, q_true)
        q = solve_ik(model, target, options=options)
        assert np.linalg.norm(planar_ee(q) - target.translation) <= 1e-6
        yaw_err = (q.sum() - q_true.sum()) % (2.0 * math.pi)
        assert min(yaw_err, 2.0 * math.pi - yaw_err) <= 1e-6

    def test_unreachable_target_raises(self):
        model = planar_two_link()
        target = SE3Pose(np.eye(3), np.array([5.0, 0.0, 0.0]))
        with pytest.raises(IKUnreachableError, match="unreachable"):
            solve_ik(model, target, options=IKOptions(max_iters=30, restarts=2))

    def test_solutions_respect_joint_limits(self):
        model = planar_two_link()
        rng = np.random.default_rng(9)
        for _ in range(5):
            q_true = rng.uniform(-2.0, 2.0, size=2)
            target, _ = forward_kinematics(model, q_true)
            q = solve_ik(model, target)
            assert (q >= model.q_min).all() and (q <= model.q_max).all()

    def test_seven_dof_round_trip(self):
        model = load_robot(ARM7_PATH)
        rng = np.random.default_rng(2)
        q_true = rng.uniform(0.3 * model.q_min, 0.3 * model.q_max)
        target, _ = forward_kinematics(model, q_true)
        q = solve_ik(model, target, seed_config=q_true + 0.2)
        ee, _ = forward_kinematics(model, q)
        assert np.linalg.norm(ee.translation - target.translation) <= 1e-4
        assert (q >= model.q_min).all() and (q <= model.q_max).all()


    def test_same_bytes_as_the_reference_loop(self):
        """Solved and unreachable targets, restarts included, give the bytes
        (or the best residual) of the loop that computed FK twice per step."""
        model = load_robot(ARM7_PATH)
        rng = np.random.default_rng(11)
        options = IKOptions(max_iters=15, restarts=3)
        attempts = []
        for i in range(12):
            if i < 8:
                q_true = rng.uniform(model.q_min, model.q_max)
                target, _ = forward_kinematics(model, q_true)
                if i % 2:    # off the arm's exact poses, still within reach
                    target = SE3Pose(target.rotation @ rotation_from_axis_angle(
                        0.05 * rng.standard_normal(3)),
                        target.translation + 0.02 * rng.standard_normal(3))
            else:
                target = SE3Pose(rotation_from_axis_angle(rng.standard_normal(3)),
                                 3.0 * rng.standard_normal(3))
            seed = rng.uniform(model.q_min, model.q_max) if i % 3 else None
            try:
                ref, attempt = reference_solve_ik(model, target, seed, options)
            except IKUnreachableError as ref_exc:
                with pytest.raises(IKUnreachableError) as exc:
                    solve_ik(model, target, seed, options)
                assert (exc.value.pos_err, exc.value.rot_err) == (
                    ref_exc.pos_err, ref_exc.rot_err)
                attempts.append(None)
                continue
            assert solve_ik(model, target, seed, options).tobytes() == ref.tobytes()
            attempts.append(attempt)
        assert None in attempts                               # unreachable
        assert 0 in attempts                                  # solved at once
        assert any(a is not None and a > 0 for a in attempts)  # after a restart


class TestCollisionSpheres:
    def test_tip_sphere_follows_the_link(self):
        model = spinner_with_tip_sphere(arm=1.0)
        centers = sphere_centers_batch(model, np.array([[0.0], [math.pi / 2.0]]))
        assert np.allclose(centers[0, 0], [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(centers[1, 0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_radii_order_matches_spheres(self):
        model = load_robot(ARM7_PATH)
        radii = sphere_radii(model)
        assert radii.shape == (len(model.collision_spheres),)
        assert (radii > 0.0).all()

    def test_sphere_link_index_validated(self):
        with pytest.raises(ValueError, match="link"):
            RobotModel(joints=planar_two_link().joints,
                       ee_offset=SE3Pose.identity(),
                       collision_spheres=(CollisionSphere(5, np.zeros(3), 0.1),))


class TestRobotIO:
    def test_doc_round_trip(self):
        model = load_robot(ARM7_PATH)
        back = robot_from_doc(robot_to_doc(model))
        assert back.name == model.name
        assert back.dof == model.dof
        assert np.array_equal(back.q_min, model.q_min)
        assert np.array_equal(back.q_max, model.q_max)
        assert np.array_equal(back.velocity_limits, model.velocity_limits)
        for a, b in zip(back.joints, model.joints):
            assert np.array_equal(a.axis, b.axis)
            assert np.array_equal(a.origin.rotation, b.origin.rotation)
            assert np.array_equal(a.origin.translation, b.origin.translation)
        assert len(back.collision_spheres) == len(model.collision_spheres)
        assert back.base_pose.allclose(model.base_pose)

    def test_fixture_arm_is_well_formed(self):
        model = load_robot(ARM7_PATH)
        assert model.dof == 7
        assert len(model.collision_spheres) >= 8
        assert (model.q_min < model.q_max).all()
        ee, _ = forward_kinematics(model, np.zeros(7))
        assert np.isfinite(ee.translation).all()

    def test_joint_validation(self):
        with pytest.raises(ValueError, match="unit"):
            Joint(axis=np.array([0.0, 0.0, 2.0]), origin=SE3Pose.identity(),
                  q_min=-1.0, q_max=1.0, velocity_limit=1.0)
        with pytest.raises(ValueError, match="range"):
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=1.0, q_max=-1.0, velocity_limit=1.0)
        with pytest.raises(ValueError, match="velocity"):
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=-1.0, q_max=1.0, velocity_limit=0.0)


class TestJointTrajectory:
    def test_csv_round_trip(self, tmp_path, rng):
        configs = rng.standard_normal((6, 3))
        traj = JointTrajectory(configs, dt=0.1)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "q_0", "q_1", "q_2"]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert np.allclose(parsed, configs, rtol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            JointTrajectory(np.zeros((1, 3)), dt=0.1)
        with pytest.raises(ValueError):
            JointTrajectory(np.zeros((3, 3)), dt=0.0)
