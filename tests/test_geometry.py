"""Tests for SE(3) poses, rotation conversions, and the pinhole camera."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvflow import deformable, flow, geometry, kinematics, rigid, sim, trajopt
from nvflow.geometry import (
    CameraIntrinsics,
    DepthMap,
    SE3Pose,
    _doc_fields,
    _floats,
    _norm,
    axis_angle_from_rotation,
    project,
    quaternion_from_rotation,
    rotation_from_axis_angle,
    rotation_geodesic_angle,
    se3_exp,
    se3_log,
)

from conftest import (assert_pose_close, demo_scene, one_link_with_sphere, random_pose,
                      random_rotation, screw_interpolate)

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
    def test_quaternion_of_an_axis_angle_rotation(self, rng):
        # a turn by theta about the unit axis u is (cos(theta/2), sin(theta/2) u)
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0.0, np.pi)
            quat = quaternion_from_rotation(rotation_from_axis_angle(theta * axis))
            want = np.concatenate([[np.cos(theta / 2.0)], np.sin(theta / 2.0) * axis])
            assert np.linalg.norm(quat - want) < 1e-9

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
        assert_pose_close(screw_interpolate(a, b, 0.0), a)
        assert_pose_close(screw_interpolate(a, b, 1.0), b)

    def test_screw_interpolate_translation_midpoint(self):
        a = SE3Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
        b = SE3Pose(np.eye(3), np.array([2.0, 4.0, -6.0]))
        mid = screw_interpolate(a, b, 0.5)
        assert np.allclose(mid.translation, [1.0, 2.0, -3.0], atol=1e-12)
        assert np.allclose(mid.rotation, np.eye(3), atol=1e-12)


# Vector components: any finite double, zeros and subnormals included, and
# magnitudes near 1e-150 and 1e150, whose squares reach the subnormal range
# and overflow.
_COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.floats(1e-160, 1e-140), st.floats(-1e-140, -1e-160),
    st.floats(1e140, 1e160), st.floats(-1e160, -1e140))


class TestNorm:
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([3, 6, 9]).flatmap(
        lambda n: st.lists(_COMPONENTS, min_size=n, max_size=n)))
    @example([0.0] * 6)
    @example([5e-324, -5e-324, 0.0])
    @example([1e-150, 1e-150, 1e-150, 3e-151, 0.0, -1e-150])
    @example([1e150, -1e150, 1e150])
    @example([1e155, 0.0, 0.0, 1e-155, 1e-155, 1e-155])
    def test_matches_numpy_bit_for_bit(self, values):
        """On a vector of 3, 6 or 9 float64s, and on the halves of a 6-vector
        as ``solve_ik`` reads them."""
        v = np.array(values, dtype=np.float64)
        for part in (v, v[:3], v[3:6]):
            if part.size:
                with np.errstate(over="ignore"):       # squares past the float range
                    got, expected = _norm(part), np.linalg.norm(part)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()


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

    def test_millimeter_map_reads_as_its_pgm_decode(self):
        mm = np.array([[0, 1, 1234], [65535, 999, 0]], dtype=np.uint16)
        depth = DepthMap(mm)
        assert depth.samples.dtype == np.uint16
        assert depth.values.dtype == np.float64
        assert depth.values.tobytes() == (mm / 1000.0).tobytes()
        assert not depth.values.flags.writeable
        assert np.array_equal(depth.valid, [[False, True, True], [True, True, False]])
        assert depth.samples.shape == (2, 3)

    def test_a_read_only_millimeter_array_is_handed_over(self):
        mm = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint16)
        mm.flags.writeable = False
        assert DepthMap(mm).samples is mm
        writable = np.arange(6, dtype=np.uint16).reshape(2, 3)
        depth = DepthMap(writable)
        writable[0, 0] = 7
        assert depth.samples[0, 0] == 0

    def test_float_map_keeps_sub_millimeter_and_far_values(self):
        values = np.array([[0.0, 1.2344], [70.0, 0.0005]])
        depth = DepthMap(values)
        assert depth.samples.dtype == np.float64
        assert depth.values.tobytes() == values.tobytes()
        assert np.array_equal(depth.valid, values > 0.0)


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


class TestDocFields:
    def test_present_keys_are_cast_and_absent_ones_left_out(self):
        assert _doc_fields({"a": 2}, {"a": float, "b": int}) == {"a": 2.0}

    def test_a_key_no_table_names_is_an_error_that_names_it(self):
        with pytest.raises(ValueError, match="unknown key 'colision_spheres'"):
            _doc_fields({"a": 1, "colision_spheres": []}, {"a": int})

    def test_extra_keys_pass_uncast(self):
        doc = {"a": 1, "description": "a ball"}
        assert _doc_fields(doc, {"a": int}, extra=("description",)) == {"a": 1}

    def test_a_list_is_a_type_error(self):
        with pytest.raises(TypeError, match="JSON object"):
            _doc_fields([1], {"a": int})


def _trajopt_problem():
    return trajopt.TrajOptProblem(model=one_link_with_sphere(), q_start=np.zeros(1),
                                  q_end=np.ones(1), steps=3)


def _value_types():
    """One instance factory per frozen dataclass of the package, and whether
    the type compares by value (scalar fields only) or by identity."""
    flow2 = lambda: flow.ActionableFlow(np.zeros((2, 1, 3)))            # noqa: E731
    state = lambda: deformable.ParticleState.at_rest(np.zeros((2, 3)))  # noqa: E731
    return {
        "SE3Pose": (SE3Pose.identity, False),
        "DepthMap": (lambda: DepthMap(np.ones((2, 2))), False),
        "CameraIntrinsics": (lambda: CameraIntrinsics(1.0, 1.0, 0.5, 0.5, 2, 2), True),
        "TrackSet": (lambda: flow.TrackSet(np.zeros((2, 1, 3)), np.ones((2, 1), bool)), False),
        "ActionableFlow": (flow2, False),
        "FlowCandidate": (lambda: flow.FlowCandidate(0, flow2(), 0.0), False),
        "ParticleState": (state, False),
        "MassSpringModel": (lambda: deformable.MassSpringModel(
            n_particles=2, edges=np.array([[0, 1]]), rest_lengths=np.array([1.0])), False),
        "Correspondence": (lambda: deformable.Correspondence(np.zeros(2)), False),
        "MPCConfig": (deformable.MPCConfig, True),
        "RolloutResult": (lambda: deformable.RolloutResult(
            (state(), state()), np.zeros((1, 3)), np.zeros(2)), False),
        "Joint": (lambda: one_link_with_sphere().joints[0], False),
        "CollisionSphere": (lambda: one_link_with_sphere().collision_spheres[0], False),
        "RobotModel": (one_link_with_sphere, False),
        "IKOptions": (kinematics.IKOptions, True),
        "JointTrajectory": (lambda: kinematics.JointTrajectory(np.zeros((2, 1)), 0.1), False),
        "ObjectPoseTrajectory": (lambda: rigid.ObjectPoseTrajectory(
            (SE3Pose.identity(), SE3Pose.identity())), False),
        "GraspProposal": (lambda: rigid.GraspProposal(SE3Pose.identity(), 0.05, 0.5), False),
        "ObjectSpec": (sim.ObjectSpec, True),
        "Waypoint": (lambda: sim.Waypoint(0.0, (0.0, 0.0, 0.0)), True),
        "RopeSpec": (sim.RopeSpec, True),
        "NoiseConfig": (sim.NoiseConfig, True),
        "SceneConfig": (lambda: sim.SceneConfig(scene="rope"), False),
        "Metrics": (lambda: sim.Metrics(rotation_error_deg=np.zeros(2),
                                        translation_error_mm=np.zeros(2)), False),
        "SceneBundle": (lambda: sim.generate_scene(demo_scene(
            "scene_rope.json", frames=2, width=64, height=48, focal=60.0)), False),
        "LMResult": (lambda: trajopt.levenberg_marquardt(
            lambda x: x - 1.0, np.zeros(2), lambda x: np.eye(2)), False),
        "FrameJacobian": (lambda: trajopt.FrameJacobian(
            np.zeros(1, int), np.ones((1, 2)), np.zeros((1, 2)), 1), False),
        "SphereObstacle": (lambda: trajopt.SphereObstacle(np.zeros(3), 0.1), False),
        "BoxObstacle": (lambda: trajopt.BoxObstacle(np.zeros(3), np.ones(3)), False),
        "HalfspaceObstacle": (lambda: trajopt.HalfspaceObstacle(
            np.zeros(3), np.array([0.0, 0.0, 1.0])), False),
        "_Sweep": (lambda: trajopt._Sweep(np.zeros((1, 1))), False),
        "TrajOptWeights": (trajopt.TrajOptWeights, True),
        "TrajOptProblem": (_trajopt_problem, False),
        "TrajOptResult": (lambda: trajopt.optimize_trajectory(_trajopt_problem()), False),
    }


class TestEquality:
    """``==`` and ``hash`` work on every value type: by identity where a
    field holds an array, by value where every field is a scalar."""

    def test_every_frozen_dataclass_is_covered(self):
        found = {name for module in (deformable, flow, geometry, kinematics, rigid, sim, trajopt)
                 for name, obj in vars(module).items()
                 if inspect.isclass(obj) and obj.__module__ == module.__name__
                 and dataclasses.is_dataclass(obj)}
        assert found == set(_value_types())

    @pytest.mark.parametrize("name", sorted(_value_types()))
    def test_eq_and_hash_do_not_raise(self, name):
        factory, by_value = _value_types()[name]
        x = factory()
        assert type(x).__name__ == name
        assert x == x
        assert hash(x) == hash(x)
        assert (x == factory()) is by_value
