"""Tests for rigid pose estimation from flow and grasp composition."""

import math

import numpy as np
import pytest

from nvflow.flow import ActionableFlow
from nvflow.geometry import SE3Pose, rotation_from_axis_angle
from nvflow.rigid import (
    DegenerateCloudError,
    GraspProposal,
    GraspWarning,
    ObjectPoseTrajectory,
    _quantile,
    compose_ee_trajectory,
    estimate_rigid_transform,
    flow_to_pose_trajectory,
    propose_grasp,
)

from conftest import assert_same_float, random_pose, random_rotation, tie_heavy_arrays


class TestEstimateRigidTransform:
    def test_identity(self, rng):
        cloud = rng.standard_normal((50, 3))
        pose = estimate_rigid_transform(cloud, cloud)
        assert np.linalg.norm(pose.rotation - np.eye(3)) < 1e-12
        assert np.linalg.norm(pose.translation) < 1e-12

    def test_pure_translation(self, rng):
        cloud = rng.standard_normal((20, 3))
        shift = np.array([0.3, -0.1, 2.0])
        pose = estimate_rigid_transform(cloud, cloud + shift)
        assert np.linalg.norm(pose.rotation - np.eye(3)) < 1e-12
        assert np.allclose(pose.translation, shift, atol=1e-12)

    def test_exact_recovery_of_random_transforms(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            cloud = rng.standard_normal((50, 3))
            true = random_pose(rng)
            pose = estimate_rigid_transform(cloud, true.apply(cloud))
            assert np.linalg.norm(pose.rotation - true.rotation) < 1e-9
            assert np.linalg.norm(pose.translation - true.translation) < 1e-9

    def test_mirrored_target_still_returns_proper_rotation(self, rng):
        cloud = rng.standard_normal((30, 3))
        mirrored = cloud @ np.diag([1.0, 1.0, -1.0])
        pose = estimate_rigid_transform(cloud, mirrored)
        assert np.isclose(np.linalg.det(pose.rotation), 1.0, atol=1e-12)

    def test_underdetermined_below_three_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCloudError, match="underdetermined"):
            estimate_rigid_transform(pts, pts)

    def test_collinear_cloud_is_degenerate(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                        [3.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCloudError, match="degenerate configuration"):
            estimate_rigid_transform(pts, pts)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="shape"):
            estimate_rigid_transform(rng.standard_normal((5, 3)),
                                     rng.standard_normal((6, 3)))

    def test_left_equivariance_on_arbitrary_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            src = rng.standard_normal((12, 3))
            tgt = src + 0.1 * rng.standard_normal((12, 3))  # no exact fit exists
            base = estimate_rigid_transform(src, tgt)
            motion = random_pose(rng)
            moved = estimate_rigid_transform(src, motion.apply(tgt))
            expected = motion.compose(base)
            assert np.linalg.norm(moved.rotation - expected.rotation) < 1e-9
            assert np.linalg.norm(moved.translation - expected.translation) < 1e-9

    def test_least_squares_beats_random_proper_rotations(self):
        rng = np.random.default_rng(5)
        src = rng.standard_normal((15, 3))
        tgt = src + 0.3 * rng.standard_normal((15, 3))
        pose = estimate_rigid_transform(src, tgt)

        def residual(rotation, translation):
            return float(np.sum((src @ rotation.T + translation - tgt) ** 2))

        centroid_src, centroid_tgt = src.mean(axis=0), tgt.mean(axis=0)
        best = residual(pose.rotation, pose.translation)
        for _ in range(500):
            rot = random_rotation(rng)
            trans = centroid_tgt - rot @ centroid_src
            assert best <= residual(rot, trans) + 1e-12


class TestFlowToPoseTrajectory:
    def test_first_pose_is_exactly_identity(self, rng):
        positions = rng.standard_normal((4, 10, 3))
        traj = flow_to_pose_trajectory(ActionableFlow(positions))
        assert np.array_equal(traj[0].rotation, np.eye(3))
        assert np.array_equal(traj[0].translation, np.zeros(3))

    def test_stationary_flow_gives_identities(self, rng):
        frame = rng.standard_normal((8, 3))
        positions = np.broadcast_to(frame, (5, 8, 3)).copy()
        traj = flow_to_pose_trajectory(ActionableFlow(positions))
        for pose in traj.poses:
            assert np.linalg.norm(pose.rotation - np.eye(3)) < 1e-9
            assert np.linalg.norm(pose.translation) < 1e-9

    def test_scripted_motion_recovered(self, rng):
        base = rng.standard_normal((25, 3))
        script = [SE3Pose.identity()]
        for t in range(1, 6):
            script.append(SE3Pose(
                rotation_from_axis_angle(np.array([0.0, 0.0, 0.2 * t])),
                np.array([0.05 * t, -0.02 * t, 0.01 * t])))
        positions = np.stack([pose.apply(base) for pose in script])
        traj = flow_to_pose_trajectory(ActionableFlow(positions))
        assert len(traj) == 6
        for recovered, true in zip(traj.poses, script):
            assert np.linalg.norm(recovered.rotation - true.rotation) < 1e-9
            assert np.linalg.norm(recovered.translation - true.translation) < 1e-9


class TestComposeEETrajectory:
    def test_identity_object_poses_return_grasp(self, rng):
        grasp = random_pose(rng)
        poses = ObjectPoseTrajectory((SE3Pose.identity(),) * 4)
        for ee in compose_ee_trajectory(poses, grasp):
            assert ee.allclose(grasp)

    def test_matches_homogeneous_matrix_product(self, rng):
        def homogeneous(pose):
            h = np.eye(4)
            h[:3, :3], h[:3, 3] = pose.rotation, pose.translation
            return h

        grasp = random_pose(rng)
        object_poses = [random_pose(rng) for _ in range(5)]
        ee = compose_ee_trajectory(ObjectPoseTrajectory(tuple(object_poses)), grasp)
        for obj, pose in zip(object_poses, ee):
            expected = homogeneous(obj) @ homogeneous(grasp)
            assert np.linalg.norm(pose.rotation - expected[:3, :3]) < 1e-12
            assert np.linalg.norm(pose.translation - expected[:3, 3]) < 1e-12

    def test_rigid_attachment_tracks_object(self, rng):
        # a point expressed in the grasp frame stays put relative to the object
        grasp = random_pose(rng)
        poses = ObjectPoseTrajectory(tuple(random_pose(rng) for _ in range(4)))
        ee = compose_ee_trajectory(poses, grasp)
        probe = np.array([0.01, 0.02, 0.03])
        for obj, hand in zip(poses.poses, ee):
            assert np.allclose(hand.apply(probe), obj.apply(grasp.apply(probe)),
                               atol=1e-12)


def box_surface_cloud(extents, samples=100, seed=0):
    """Points on the surface of an axis-aligned box, corners included.

    The cloud is mirrored across the xz and yz planes so its horizontal
    covariance is exactly diagonal, which pins the grasp closing axes to the
    box axes.
    """
    rng = np.random.default_rng(seed)
    half = np.asarray(extents) / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                        for sz in (-1, 1)]) * half
    pts = rng.uniform(-1.0, 1.0, size=(samples, 3)) * half
    faces = rng.integers(0, 6, size=samples)
    for i, face in enumerate(faces):
        axis, side = divmod(int(face), 2)
        pts[i, axis] = half[axis] if side == 0 else -half[axis]
    cloud = np.concatenate([corners, pts])
    return np.concatenate([cloud, cloud * [-1, 1, 1], cloud * [1, -1, 1],
                           cloud * [-1, -1, 1]])


def fibonacci_sphere(radius, count=400):
    k = np.arange(count)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    z = 1.0 - 2.0 * (k + 0.5) / count
    rho = np.sqrt(1.0 - z * z)
    return radius * np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


# Grasp clouds are in the camera frame, where -z is up: negating z turns a
# cloud whose top face is at +z into one whose top face is nearest the camera.
FLIP_Z = np.array([1.0, 1.0, -1.0])


class TestQuantile:
    def test_bit_identical_to_np_quantile(self, rng):
        for values in tie_heavy_arrays(rng):
            for q in (0.0, 0.5, 0.8, 1.0, float(rng.random())):
                assert_same_float(_quantile(values, q), np.quantile(values, q))


class TestProposeGrasp:
    def test_box_closes_along_minor_axis(self):
        cloud = box_surface_cloud((0.04, 0.02, 0.02)) * FLIP_Z
        proposals = propose_grasp(cloud)
        assert len(proposals) == 2
        best = proposals[0]
        assert abs(best.width - 0.03) < 1e-3
        closing = best.grasp_pose.rotation[:, 0]
        assert abs(closing[1]) > 0.99  # closes across the 2 cm side
        assert np.allclose(best.grasp_pose.rotation[:, 2], [0.0, 0.0, 1.0])
        assert abs(proposals[1].width - 0.05) < 1e-3
        assert best.quality > proposals[1].quality

    def test_sphere_width_is_diameter_plus_clearance(self):
        cloud = fibonacci_sphere(0.025) * FLIP_Z
        proposals = propose_grasp(cloud)
        assert proposals
        assert abs(proposals[0].width - 0.06) < 3e-3

    def test_grasp_pose_is_a_proper_rotation(self):
        proposals = propose_grasp(box_surface_cloud((0.04, 0.02, 0.02)) * FLIP_Z)
        rot = proposals[0].grasp_pose.rotation
        assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(rot), 1.0)

    def test_center_sits_on_top_points(self):
        cloud = box_surface_cloud((0.04, 0.02, 0.02)) * FLIP_Z
        best = propose_grasp(cloud)[0]
        assert best.grasp_pose.translation[2] < -0.005

    def test_along_minus_z_flips_approach(self):
        cloud = box_surface_cloud((0.04, 0.02, 0.02)) + [0.0, 0.0, 1.0]
        best = propose_grasp(cloud)[0]
        assert np.allclose(best.grasp_pose.rotation[:, 2], [0.0, 0.0, 1.0])
        assert best.grasp_pose.translation[2] < 1.0 - 0.005  # nearest-to-camera face

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="too few points"):
            propose_grasp(np.zeros((5, 3)))

    def test_oversized_object_yields_no_proposals(self):
        cloud = box_surface_cloud((0.2, 0.2, 0.02)) * FLIP_Z
        with pytest.warns(GraspWarning):
            proposals = propose_grasp(cloud)
        assert proposals == []

    def test_proposal_validation(self):
        with pytest.raises(ValueError, match="quality"):
            GraspProposal(SE3Pose.identity(), width=0.05, quality=1.5)
        with pytest.raises(ValueError, match="width"):
            GraspProposal(SE3Pose.identity(), width=0.0, quality=0.5)


class TestObjectPoseTrajectoryIO:
    def test_json_round_trip(self, tmp_path, rng):
        traj = ObjectPoseTrajectory(tuple(random_pose(rng) for _ in range(6)),
                                    frame="camera")
        path = tmp_path / "poses.json"
        traj.to_json(path)
        back = ObjectPoseTrajectory.from_json(path)
        assert back.frame == "camera"
        assert len(back) == 6
        for a, b in zip(traj.poses, back.poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            ObjectPoseTrajectory(())
