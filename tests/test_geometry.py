"""Tests for SE(3) poses, rotation conversions, and the pinhole camera."""

import math

import numpy as np
import pytest

from nvflow.geometry import (
    CameraIntrinsics,
    DepthMap,
    SE3Pose,
    _floats,
    axis_angle_from_rotation,
    project,
    quaternion_from_rotation,
    rotation_from_axis_angle,
    rotation_from_quaternion,
    rotation_geodesic_angle,
    screw_interpolate,
    se3_compose,
    se3_exp,
    se3_inverse,
    se3_log,
)

from conftest import random_pose, random_rotation

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestSE3Pose:
    def test_identity_leaves_points_unchanged(self, rng):
        points = rng.standard_normal((20, 3))
        assert np.array_equal(SE3Pose.identity().apply(points), points)

    def test_translation_only_compose_adds(self):
        a = SE3Pose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        b = SE3Pose(np.eye(3), np.array([-4.0, 0.5, 1.0]))
        composed = a.compose(b)
        assert np.allclose(composed.rotation, np.eye(3))
        assert np.allclose(composed.translation, [-3.0, 2.5, 4.0])

    def test_rotation_about_z_maps_x_to_y(self):
        pose = SE3Pose(rot_z(math.pi / 2.0), np.zeros(3))
        out = pose.apply(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_compose_matches_homogeneous_matrix_product(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            ha = np.eye(4)
            ha[:3, :3], ha[:3, 3] = a.rotation, a.translation
            hb = np.eye(4)
            hb[:3, :3], hb[:3, 3] = b.rotation, b.translation
            hc = ha @ hb
            c = a.compose(b)
            assert np.allclose(c.rotation, hc[:3, :3], atol=1e-12)
            assert np.allclose(c.translation, hc[:3, 3], atol=1e-12)

    def test_compose_inverse_is_identity_many_poses(self):
        rng = np.random.default_rng(7)
        worst_rot = 0.0
        worst_trans = 0.0
        for _ in range(10_000):
            pose = random_pose(rng)
            closed = pose.compose(pose.inverse())
            worst_rot = max(worst_rot, float(np.linalg.norm(closed.rotation - np.eye(3))))
            worst_trans = max(worst_trans, float(np.linalg.norm(closed.translation)))
        assert worst_rot < 1e-9
        assert worst_trans < 1e-9

    def test_inverse_undoes_apply(self, rng):
        pose = random_pose(rng)
        points = rng.standard_normal((11, 3))
        assert np.allclose(pose.inverse().apply(pose.apply(points)), points, atol=1e-12)

    def test_se3_helpers_match_methods(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert se3_compose(a, b).allclose(a.compose(b))
        assert se3_inverse(a).allclose(a.inverse())

    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ValueError):
            SE3Pose(np.eye(3) * 2.0, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            SE3Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SE3Pose(np.eye(3), np.array([np.nan, 0.0, 0.0]))


class TestRotationConversions:
    def test_quaternion_round_trip(self, rng):
        for _ in range(200):
            rot = random_rotation(rng)
            back = rotation_from_quaternion(quaternion_from_rotation(rot))
            assert np.linalg.norm(back - rot) < 1e-9

    def test_quaternion_identity(self):
        assert np.allclose(quaternion_from_rotation(np.eye(3)), [1.0, 0.0, 0.0, 0.0])

    def test_quaternion_w_nonnegative(self, rng):
        for _ in range(100):
            assert quaternion_from_rotation(random_rotation(rng))[0] >= 0.0

    def test_axis_angle_round_trip(self, rng):
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-6, math.pi - 1e-6)
            aa = axis * angle
            back = axis_angle_from_rotation(rotation_from_axis_angle(aa))
            assert np.allclose(back, aa, atol=1e-9)

    def test_axis_angle_tiny_angle_is_stable(self):
        rot = rotation_from_axis_angle(np.array([1e-13, 0.0, 0.0]))
        assert np.allclose(rot, np.eye(3), atol=1e-12)
        assert np.isfinite(rot).all()

    def test_geodesic_angle_matches_construction(self, rng):
        for _ in range(50):
            angle = rng.uniform(1e-3, math.pi - 1e-3)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rot = rotation_from_axis_angle(axis * angle)
            assert abs(rotation_geodesic_angle(np.eye(3), rot) - angle) < 1e-7

    def test_exp_log_round_trip(self, rng):
        for _ in range(100):
            twist = rng.uniform(-1.5, 1.5, size=6)
            assert np.allclose(se3_log(se3_exp(twist)), twist, atol=1e-9)

    def test_screw_interpolate_endpoints(self, rng):
        a, b = random_pose(rng), random_pose(rng)
        assert screw_interpolate(a, b, 0.0).allclose(a)
        assert screw_interpolate(a, b, 1.0).allclose(b)

    def test_screw_interpolate_translation_midpoint(self):
        a = SE3Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
        b = SE3Pose(np.eye(3), np.array([2.0, 4.0, -6.0]))
        mid = screw_interpolate(a, b, 0.5)
        assert np.allclose(mid.translation, [1.0, 2.0, -3.0], atol=1e-12)
        assert np.allclose(mid.rotation, np.eye(3), atol=1e-12)


class TestCamera:
    def test_principal_ray_projects_to_center(self):
        uv = project(INTR, np.array([[0.0, 0.0, 1.0]]))
        assert np.allclose(uv, [[320.0, 240.0]])

    def test_known_offset(self):
        uv = project(INTR, np.array([[0.1, -0.2, 1.0]]))
        assert np.allclose(uv, [[320.0 + 60.0, 240.0 - 120.0]])

    def test_projection_scales_inversely_with_depth(self):
        near = project(INTR, np.array([[0.1, 0.1, 1.0]]))
        far = project(INTR, np.array([[0.1, 0.1, 2.0]]))
        assert np.allclose(far - [[320.0, 240.0]], (near - [[320.0, 240.0]]) / 2.0)

    def test_project_behind_camera_raises(self):
        with pytest.raises(ValueError, match="behind camera"):
            project(INTR, np.array([[0.0, 0.0, -1.0]]))

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


class TestDepthMap:
    def test_valid_mask_excludes_zero(self):
        depth = DepthMap(np.array([[0.0, 1.0], [2.0, 0.0]]))
        assert np.array_equal(depth.valid, [[False, True], [True, False]])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[-1.0]]))


class TestJsonNumberArrays:
    def test_nested_numbers_read_as_floats(self):
        out = _floats([[1, 2.5], [3, -4]])
        assert out.dtype == np.float64 and out.tolist() == [[1.0, 2.5], [3.0, -4.0]]
        assert _floats([]).shape == (0,)

    @pytest.mark.parametrize("value", [["1", 2.0], [[1.0], [True]], [None], [[1.0, [{}]]],
                                       1.0, "1", {"x": 1.0}])
    def test_anything_but_numbers_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            _floats(value)

    def test_pose_doc_with_a_string_element(self):
        doc = SE3Pose.identity().to_doc()
        doc["translation"][1] = "0"
        with pytest.raises(TypeError, match="JSON number"):
            SE3Pose.from_doc(doc)
