"""Tests for synthetic scene generation, corruption, and evaluation."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from nvflow.deformable import ParticleState, build_correspondence
from nvflow.fileio import sha256_file
from nvflow.flow import ActionableFlow, TrackSet, distill_flow
from nvflow.geometry import (
    CameraIntrinsics,
    DepthMap,
    SE3Pose,
    project,
    rotation_from_axis_angle,
)
from nvflow.rigid import ObjectPoseTrajectory, flow_to_pose_trajectory
import nvflow.sim as sim
from nvflow.sim import (
    DEFAULT_SENSOR_NOISE,
    NoiseConfig,
    ObjectSpec,
    RopeSpec,
    SceneBundle,
    SceneConfig,
    Waypoint,
    _convex_hull,
    _drop_interior,
    _ground_depth,
    _place_distractors,
    _render_mask,
    corrupt_flow,
    evaluate_deformable,
    evaluate_rigid,
    generate_scene,
)


@pytest.fixture(scope="module")
def plain_rope_bundle():
    return generate_scene(SceneConfig.rope_demo())


@pytest.fixture(scope="module")
def mirrored_rope_bundle():
    return generate_scene(SceneConfig.rope_demo(mirrored=True))


def small_rigid_config(frames=5, **overrides):
    defaults = dict(
        scene="rigid",
        frames=frames,
        object=ObjectSpec(surface_samples=24),
        distractor_points=10,
    )
    defaults.update(overrides)
    return SceneConfig(**defaults)


def assert_same_bits(a, b, where="bundle"):
    """``a`` and ``b`` hold equal values, every array bit for bit."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_same_bits(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same_bits(x, y, f"{where}[{k}]")
    else:
        assert a == b, where


class TestRigidScenes:
    def test_static_script_produces_static_flow(self):
        spot = (0.45, 0.0, ObjectSpec().rest_height)
        config = small_rigid_config(
            waypoints=(Waypoint(0.0, spot), Waypoint(1.0, spot)),
            distractor_points=0)
        bundle = generate_scene(config)
        flow = bundle.gt_flow.positions
        assert np.allclose(flow, flow[0], atol=1e-12)
        for pose in bundle.gt_poses.poses:
            assert np.allclose(pose.rotation, np.eye(3), atol=1e-12)
            assert np.allclose(pose.translation, 0.0, atol=1e-12)

    def test_vertical_lift_is_linear_in_camera_frame(self):
        rest = ObjectSpec().rest_height
        config = small_rigid_config(
            frames=41,
            waypoints=(Waypoint(0.0, (0.45, 0.0, rest)),
                       Waypoint(1.0, (0.45, 0.0, rest + 0.1))),
            distractor_points=0)
        bundle = generate_scene(config)
        translations = np.stack([p.translation for p in bundle.gt_poses.poses])
        expected = np.linspace(0.0, 1.0, 41)[:, None] * np.array([0.0, 0.0, -0.1])
        np.testing.assert_allclose(translations, expected, atol=1e-9)
        centroids = bundle.gt_flow.positions.mean(axis=1)
        steps = np.diff(centroids, axis=0)
        np.testing.assert_allclose(steps, np.broadcast_to(steps[0], steps.shape),
                                   atol=1e-12)
        assert np.linalg.norm(centroids[-1] - centroids[0]) == pytest.approx(
            0.1, abs=1e-9)

    def test_zero_noise_flow_closes_to_ground_truth_poses(self):
        config = small_rigid_config(frames=9,
                                    object=ObjectSpec(surface_samples=60),
                                    distractor_points=0)
        bundle = generate_scene(config)
        estimated = flow_to_pose_trajectory(bundle.gt_flow)
        assert len(estimated) == len(bundle.gt_poses)
        for est, gt in zip(estimated.poses, bundle.gt_poses.poses):
            assert np.linalg.norm(est.rotation - gt.rotation) < 1e-9
            assert np.linalg.norm(est.translation - gt.translation) < 1e-9

    def test_membership_separates_object_from_distractors(self):
        config = small_rigid_config()
        bundle = generate_scene(config)
        n_obj = config.object.surface_samples
        assert bundle.membership["object"] == list(range(n_obj))
        assert len(bundle.membership["distractors"]) == config.distractor_points
        assert bundle.tracks.count == n_obj + config.distractor_points
        image = (config.height, config.width)
        assert bundle.mask.shape == image and bundle.mask.dtype == bool
        assert bundle.depth.values.shape == image
        assert bundle.depth_ref.values.shape == image

    def test_masks_cover_the_object(self):
        # The generator ORs every frame's mask into the union distractor
        # placement reads and keeps the first; re-render each from the true pixels.
        bundle = generate_scene(small_rigid_config(distractor_points=0))
        intr = bundle.config.intrinsics
        pixels = project(intr, bundle.gt_flow.positions)
        for t in range(bundle.config.frames):
            mask = _render_mask(intr, pixels[t])
            u, v = np.round(pixels[t]).astype(int).T
            assert mask[v, u].all()
        assert np.array_equal(bundle.mask, _render_mask(intr, pixels[0]))

    def test_image_of_the_wrong_size_is_an_error(self):
        bundle = generate_scene(small_rigid_config(distractor_points=0))
        cropped = {"mask": bundle.mask[:240, :320],
                   "depth": DepthMap(bundle.depth.values[:240, :320]),
                   "depth_ref": DepthMap(bundle.depth_ref.values[:240, :320])}
        for name, value in cropped.items():
            with pytest.raises(ValueError, match="config's image"):
                dataclasses.replace(bundle, **{name: value})

    def test_frame_count_other_than_the_config_s_is_an_error(self):
        bundle = generate_scene(small_rigid_config(frames=6, distractor_points=0))
        cut_tracks = TrackSet(bundle.tracks.positions[:-2], bundle.tracks.visible[:-2])
        cut_flow = ActionableFlow(bundle.gt_flow.positions[:-2], label="box")
        cut_poses = ObjectPoseTrajectory(bundle.gt_poses.poses[:-2], frame="camera")
        for changes in ({"tracks": cut_tracks}, {"gt_flow": cut_flow},
                        {"gt_poses": cut_poses},
                        {"tracks": cut_tracks, "gt_flow": cut_flow, "gt_poses": cut_poses}):
            with pytest.raises(ValueError, match="the config has 6"):
                dataclasses.replace(bundle, **changes)

    def test_object_leaving_view_is_an_error(self):
        rest = ObjectSpec().rest_height
        config = small_rigid_config(
            waypoints=(Waypoint(0.0, (0.45, 0.0, rest)),
                       Waypoint(1.0, (5.0, 0.0, rest))),
            distractor_points=0)
        with pytest.raises(ValueError, match="leaves view"):
            generate_scene(config)

    def test_seed_override(self):
        config = small_rigid_config(distractor_points=0)
        bundle = generate_scene(config, seed=5)
        assert bundle.seed == 5


class TestRopeScenes:
    def test_straight_to_straight_script_is_motionless(self):
        spec = RopeSpec(script=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        config = SceneConfig(scene="rope", rope=spec, frames=6,
                             distractor_points=0)
        bundle = generate_scene(config)
        flow = bundle.gt_flow.positions
        for t in range(1, config.frames):
            assert np.array_equal(flow[t], flow[0])

    def test_pinned_endpoint_never_moves(self, plain_rope_bundle):
        flow = plain_rope_bundle.gt_flow.positions
        for t in range(1, flow.shape[0]):
            assert np.array_equal(flow[t, -1], flow[0, -1])
        model = plain_rope_bundle.dynamics
        assert model.pinned == (model.n_particles - 1,)
        assert model.attachment == (0,)

    def test_chain_length_is_preserved_within_two_percent(
            self, mirrored_rope_bundle):
        flow = mirrored_rope_bundle.gt_flow.positions
        lengths = np.linalg.norm(np.diff(flow, axis=1), axis=-1).sum(axis=1)
        drift = np.abs(lengths - lengths[0]) / lengths[0]
        assert drift.max() <= 0.02

    def test_initial_state_matches_first_flow_frame(self, plain_rope_bundle):
        spec = plain_rope_bundle.config.rope
        assert spec.flow_keypoints == spec.particles
        np.testing.assert_allclose(plain_rope_bundle.initial_state.positions,
                                   plain_rope_bundle.gt_flow.positions[0],
                                   atol=1e-12)
        assert np.all(plain_rope_bundle.initial_state.velocities == 0.0)

    def test_self_intersecting_script_is_an_error(self):
        spec = RopeSpec(script=((0.0, 2.0 * math.pi, 0.0), (1.0, 0.0, 0.0)))
        config = SceneConfig(scene="rope", rope=spec, frames=4,
                             distractor_points=0)
        with pytest.raises(ValueError, match="self-intersecting spline"):
            generate_scene(config)

    def test_mirrored_audit_exposes_the_shape_matching_trap(
            self, mirrored_rope_bundle):
        audit = mirrored_rope_bundle.audit
        assert audit["spurious_chamfer_cost"] < 1e-6
        assert audit["spurious_flow_cost"] > 0.1

    def test_plain_audit_shows_no_cheap_wrong_shape(self, plain_rope_bundle):
        audit = plain_rope_bundle.audit
        assert audit["spurious_chamfer_cost"] > 1e-4


class TestCorruptFlow:
    @staticmethod
    def smooth_flow(frames=8, keypoints=20, seed=0):
        gen = np.random.default_rng(seed)
        base = gen.uniform(-0.2, 0.2, size=(1, keypoints, 3))
        drift = 0.002 * np.arange(frames)[:, None, None]
        return ActionableFlow(base + drift, label="probe")

    def test_identity_without_noise_or_dropout(self):
        flow = self.smooth_flow()
        out = corrupt_flow(flow, sigma=0.0, seed=3)
        assert np.array_equal(out.positions, flow.positions)
        assert out.label == flow.label

    def test_deterministic_per_seed(self):
        flow = self.smooth_flow()
        a = corrupt_flow(flow, sigma=0.01, seed=4)
        b = corrupt_flow(flow, sigma=0.01, seed=4)
        assert np.array_equal(a.positions, b.positions)

    def test_noise_scale_is_honest(self):
        keypoints = 50000
        positions = np.zeros((2, keypoints, 3))
        flow = ActionableFlow(positions)
        sigma = 0.01
        out = corrupt_flow(flow, sigma=sigma, seed=11)
        noise = out.positions - positions
        n = noise.size
        chi2 = float(np.sum((noise / sigma) ** 2))
        assert abs(chi2 - n) < 5.0 * math.sqrt(2.0 * n)
        assert abs(noise.std() - sigma) / sigma < 0.05

    def test_parameter_validation(self):
        flow = self.smooth_flow()
        with pytest.raises(ValueError, match="sigma"):
            corrupt_flow(flow, sigma=-0.1)


class TestEvaluateRigid:
    @staticmethod
    def identity_trajectory(frames=5):
        return ObjectPoseTrajectory(tuple(SE3Pose.identity()
                                          for _ in range(frames)),
                                    frame="camera")

    def test_identical_trajectories_score_perfectly(self):
        gt = self.identity_trajectory()
        metrics = evaluate_rigid(gt, gt)
        assert np.all(metrics.rotation_error_deg <= 1e-7)
        assert np.all(metrics.translation_error_mm == 0.0)
        assert metrics.success

    def test_ten_millimetre_final_offset_fails(self):
        gt = self.identity_trajectory()
        poses = list(gt.poses)
        poses[-1] = SE3Pose(np.eye(3), np.array([0.01, 0.0, 0.0]))
        metrics = evaluate_rigid(ObjectPoseTrajectory(tuple(poses), "camera"), gt)
        assert metrics.translation_error_mm[-1] == pytest.approx(10.0, rel=1e-9)
        assert not metrics.success

    def test_one_degree_final_rotation_reports_one_degree(self):
        gt = self.identity_trajectory()
        poses = list(gt.poses)
        rot = rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(1.0)]))
        poses[-1] = SE3Pose(rot, np.zeros(3))
        metrics = evaluate_rigid(ObjectPoseTrajectory(tuple(poses), "camera"), gt)
        assert metrics.rotation_error_deg[-1] == pytest.approx(1.0, abs=1e-9)
        assert metrics.success  # 1 degree is inside the 2 degree default

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="lengths differ"):
            evaluate_rigid(self.identity_trajectory(4),
                           self.identity_trajectory(5))

    def test_metrics_document(self):
        metrics = evaluate_rigid(self.identity_trajectory(),
                                 self.identity_trajectory())
        doc = metrics.to_doc()
        assert doc["success"] is True
        assert len(doc["rotation_error_deg"]) == 5


class TestEvaluateDeformable:
    @staticmethod
    def line_flow(frames=3, keypoints=6):
        positions = np.zeros((frames, keypoints, 3))
        positions[:, :, 0] = np.linspace(0.0, 0.5, keypoints)
        return ActionableFlow(positions)

    def test_exact_final_state_scores_zero(self):
        flow = self.line_flow()
        final = ParticleState.at_rest(flow.positions[-1])
        metrics = evaluate_deformable(final, flow, np.arange(6))
        assert metrics.final_correspondence_rmse_mm == 0.0
        assert metrics.final_chamfer_mm == 0.0
        assert metrics.success

    def test_uniform_offset_reports_exact_rmse(self):
        flow = self.line_flow()
        final = ParticleState.at_rest(flow.positions[-1]
                                      + np.array([0.0, 0.01, 0.0]))
        metrics = evaluate_deformable(final, flow, np.arange(6))
        assert metrics.final_correspondence_rmse_mm == pytest.approx(10.0,
                                                                     rel=1e-9)
        assert metrics.final_chamfer_mm <= metrics.final_correspondence_rmse_mm + 1e-9
        assert metrics.success  # default tolerance is 50 mm

    def test_tolerance_controls_success(self):
        flow = self.line_flow()
        final = ParticleState.at_rest(flow.positions[-1]
                                      + np.array([0.0, 0.01, 0.0]))
        metrics = evaluate_deformable(final, flow, np.arange(6), rmse_tol_mm=5.0)
        assert not metrics.success

    def test_correspondence_object_and_default(self):
        flow = self.line_flow()
        final = ParticleState.at_rest(flow.positions[-1])
        corr = build_correspondence(flow, final.positions)
        via_object = evaluate_deformable(final, flow, corr)
        via_default = evaluate_deformable(final, flow)
        assert via_object.final_correspondence_rmse_mm == \
            via_default.final_correspondence_rmse_mm


class TestBundleIO:
    def test_same_seed_gives_bit_identical_bundles(self, tmp_path):
        config = small_rigid_config()
        first = generate_scene(config)
        second = generate_scene(config)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        first.write(dir_a)
        second.write(dir_b)
        manifest_a = (dir_a / "manifest.json").read_bytes()
        manifest_b = (dir_b / "manifest.json").read_bytes()
        assert manifest_a == manifest_b
        for rel, digest in json.loads(manifest_a)["files"].items():
            assert sha256_file(dir_b / rel) == digest, rel

    def test_different_seed_changes_the_manifest(self, tmp_path):
        config = small_rigid_config()
        base = generate_scene(config)
        other = generate_scene(config, seed=config.seed + 1)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        base.write(dir_a)
        other.write(dir_b)
        assert (dir_a / "manifest.json").read_bytes() != \
            (dir_b / "manifest.json").read_bytes()

    def test_rope_bundle_round_trip(self, tmp_path):
        spec = RopeSpec(particles=8, flow_keypoints=8)
        config = SceneConfig(scene="rope", rope=spec, frames=6,
                             distractor_points=5,
                             noise=NoiseConfig(track_sigma=0.0005,
                                               depth_sigma=0.01,
                                               dropout_prob=0.05,
                                               depth_scale=1.25))
        bundle = generate_scene(config)
        written = bundle.write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert_same_bits(back, written)
        assert back.seed == bundle.seed
        assert back.config.to_doc() == bundle.config.to_doc()
        assert np.array_equal(back.tracks.positions, bundle.tracks.positions)
        assert np.array_equal(back.tracks.visible, bundle.tracks.visible)
        np.testing.assert_allclose(back.gt_flow.positions,
                                   bundle.gt_flow.positions, atol=1e-5)
        assert back.gt_flow.label == bundle.gt_flow.label
        assert np.array_equal(back.mask, bundle.mask)
        np.testing.assert_allclose(back.depth.values, bundle.depth.values, atol=6e-4)
        np.testing.assert_allclose(back.depth_ref.values,
                                   bundle.depth_ref.values, atol=6e-4)
        assert back.membership == bundle.membership
        assert back.audit == bundle.audit
        assert np.array_equal(back.dynamics.edges, bundle.dynamics.edges)
        assert np.array_equal(back.dynamics.rest_lengths,
                              bundle.dynamics.rest_lengths)
        assert back.dynamics.attachment == bundle.dynamics.attachment
        assert back.dynamics.pinned == bundle.dynamics.pinned
        assert np.array_equal(back.initial_state.positions,
                              bundle.initial_state.positions)
        assert back.gt_poses is None

    def test_rigid_bundle_round_trip_keeps_poses(self, tmp_path):
        bundle = generate_scene(small_rigid_config(distractor_points=0))
        written = bundle.write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert_same_bits(back, written)
        assert len(back.gt_poses) == len(bundle.gt_poses)
        for a, b in zip(back.gt_poses.poses, bundle.gt_poses.poses):
            assert np.allclose(a.rotation, b.rotation, atol=1e-12)
            assert np.allclose(a.translation, b.translation, atol=1e-12)
        assert back.dynamics is None
        assert back.initial_state is None

    def test_read_skips_files_the_manifest_does_not_list(self, tmp_path):
        rigid = generate_scene(small_rigid_config())
        rope = generate_scene(SceneConfig(scene="rope", frames=6, distractor_points=5,
                                          rope=RopeSpec(particles=8, flow_keypoints=8)))
        rigid.write(tmp_path / "scene")
        rope.write(tmp_path / "scene")
        assert (tmp_path / "scene" / "gt_poses.json").exists()   # the rigid bundle's
        back = SceneBundle.read(tmp_path / "scene")
        assert back.gt_poses is None
        assert back.dynamics is not None and back.initial_state is not None
        rigid.write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert back.gt_poses is not None
        assert back.dynamics is None and back.initial_state is None

    @pytest.mark.parametrize("kind", ["rigid", "rope"])
    def test_manifest_lists_one_mask_and_one_depth_map(self, kind, tmp_path):
        if kind == "rigid":
            config, extra = small_rigid_config(), {"gt_poses.json"}
        else:
            config = SceneConfig(scene="rope", rope=RopeSpec(particles=8, flow_keypoints=8),
                                 frames=6, distractor_points=5)
            extra = {"dynamics.json", "initial_state.json"}
        generate_scene(config).write(tmp_path / "scene")
        manifest = tmp_path / "scene" / "manifest.json"
        files = set(json.loads(manifest.read_text())["files"])
        assert files == {"scene_config.json", "tracks.npy", "visible.npy", "masks/0000.pgm",
                         "depth/0000.pgm", "depth_ref.pgm", "gt_flow.nvfl",
                         "gt_membership.json"} | extra
        on_disk = {p.relative_to(tmp_path / "scene").as_posix()
                   for p in (tmp_path / "scene").rglob("*") if p.is_file()}
        assert on_disk == files | {"manifest.json"}

    def test_tracks_and_visibility_round_trip_bit_for_bit(self, tmp_path):
        config = SceneConfig.rigid_demo(seed=3, noise=DEFAULT_SENSOR_NOISE)
        written = generate_scene(config).write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert not back.tracks.visible.all()      # dropout made some samples invisible
        assert_same_bits(back.tracks, written.tracks, "tracks")
        assert back.tracks.positions.dtype == np.float64
        assert back.tracks.visible.dtype == np.bool_

    def test_distill_from_disk_matches_distill_in_memory(self, tmp_path):
        config = SceneConfig.rigid_demo(seed=2, noise=DEFAULT_SENSOR_NOISE)
        bundle = generate_scene(config)
        bundle.write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        intr = config.intrinsics
        expected = distill_flow(bundle.tracks, bundle.mask, intr, label="box")
        actual = distill_flow(back.tracks, back.mask, intr, label="box")
        assert 0 < expected.keypoints < bundle.tracks.count
        assert actual.positions.tobytes() == expected.positions.tobytes()
        assert actual.label == expected.label


class TestNoiseHonesty:
    def test_track_jitter_matches_declared_sigma(self):
        sigma = 0.0005
        config = SceneConfig(scene="rigid", frames=21,
                             object=ObjectSpec(surface_samples=400),
                             distractor_points=0,
                             noise=NoiseConfig(track_sigma=sigma))
        bundle = generate_scene(config)
        observed = bundle.tracks.positions
        truth = bundle.gt_flow.positions
        noise = observed - truth
        n = noise.size
        chi2 = float(np.sum((noise / sigma) ** 2))
        z = (chi2 - n) / math.sqrt(2.0 * n)
        assert abs(z) < 5.0, f"chi-square z-score {z:.2f}"
        assert abs(noise.std() - sigma) / sigma < 0.02

    def test_dropout_rate_matches_declared_probability(self):
        config = SceneConfig(scene="rigid", frames=21,
                             object=ObjectSpec(surface_samples=400),
                             distractor_points=0,
                             noise=NoiseConfig(dropout_prob=0.1))
        bundle = generate_scene(config)
        rate = 1.0 - bundle.tracks.visible.mean()
        n = bundle.tracks.visible.size
        assert abs(rate - 0.1) < 5.0 * math.sqrt(0.1 * 0.9 / n)


class TestConfigs:
    def test_rigid_demo_profile(self):
        config = SceneConfig.rigid_demo(seed=3)
        assert config.scene == "rigid"
        assert config.seed == 3
        assert config.object.surface_samples == 240
        assert config.noise == NoiseConfig()

    def test_rope_demo_profiles(self):
        plain = SceneConfig.rope_demo()
        assert plain.rope.pinned
        assert plain.frames == 24
        mirrored = SceneConfig.rope_demo(mirrored=True)
        assert not mirrored.rope.pinned
        assert mirrored.frames == 40
        assert mirrored.rope.script[-1][0] == 1.0

    def test_config_save_load_round_trip(self, tmp_path):
        config = SceneConfig.rope_demo(mirrored=True, seed=9)
        path = tmp_path / "config.json"
        config.save(path)
        back = SceneConfig.load(path)
        assert back.to_doc() == config.to_doc()

    def test_scene_config_validation(self):
        with pytest.raises(ValueError, match="scene"):
            SceneConfig(scene="fluid")
        with pytest.raises(ValueError, match="frames"):
            SceneConfig(frames=1)
        with pytest.raises(ValueError, match="geometry"):
            SceneConfig(width=8)
        rest = ObjectSpec().rest_height
        with pytest.raises(ValueError, match="waypoint"):
            SceneConfig(waypoints=(Waypoint(0.0, (0.4, 0.0, rest)),
                                   Waypoint(0.5, (0.4, 0.0, rest))))

    def test_rope_spec_validation(self):
        with pytest.raises(ValueError, match="time 0"):
            RopeSpec(script=((0.2, 0.0, 0.0), (1.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="increase"):
            RopeSpec(script=((0.0, 0.0, 0.0), (0.5, 1.0, 0.0),
                             (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="keyframes"):
            RopeSpec(script=((0.0, 0.0, 0.0, 0.1), (1.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="particles"):
            RopeSpec(particles=3)
        with pytest.raises(ValueError, match="keypoints"):
            RopeSpec(particles=10, flow_keypoints=11)

    def test_waypoint_validation(self):
        with pytest.raises(ValueError, match="time"):
            Waypoint(1.5, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="position"):
            Waypoint(0.5, (0.0, 0.0))

    def test_object_spec_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ObjectSpec(shape="torus")
        with pytest.raises(ValueError, match="dimensions"):
            ObjectSpec(shape="cylinder", size=(0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="surface samples"):
            ObjectSpec(surface_samples=3)
        assert ObjectSpec(shape="cylinder", size=(0.03, 0.08)).rest_height == 0.04


class TestDispatch:
    def test_generate_scene_routes_by_kind(self, plain_rope_bundle):
        rigid = generate_scene(small_rigid_config(distractor_points=0))
        assert rigid.gt_poses is not None
        assert rigid.dynamics is None
        assert plain_rope_bundle.gt_poses is None
        assert plain_rope_bundle.dynamics is not None

    def test_mismatched_kind_raises(self):
        from nvflow.sim import generate_rigid_scene, generate_rope_scene
        rope_config = SceneConfig.rope_demo()
        with pytest.raises(ValueError, match="scene"):
            generate_rigid_scene(rope_config)
        with pytest.raises(ValueError, match="scene"):
            generate_rope_scene(small_rigid_config())


# -- oracles: scene generation one frame and one attempt at a time ---------------

def convex_hull_by_set(points):
    """Monotone-chain hull over a Python set of the rounded points, no pre-filter."""
    pts = sorted(set((float(x), float(y)) for x, y in np.round(points, 6)))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=float).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=float)


def ground_depth_by_meshgrid(intrinsics, extrinsic, plane_z=0.0):
    """Table-plane depth from a meshgrid of pixel coordinates stacked into rays."""
    normal = extrinsic.rotation @ np.array([0.0, 0.0, 1.0])
    offset = float(normal @ extrinsic.apply(np.array([0.0, 0.0, plane_z])))
    uu, vv = np.meshgrid(np.arange(intrinsics.width), np.arange(intrinsics.height))
    rays = np.stack([(uu - intrinsics.cx) / intrinsics.fx,
                     (vv - intrinsics.cy) / intrinsics.fy,
                     np.ones_like(uu, dtype=float)], axis=-1)
    denom = rays @ normal
    depth = np.zeros((intrinsics.height, intrinsics.width))
    hit = np.abs(denom) > 1e-9
    depth[hit] = offset / denom[hit]
    depth[depth < 0.0] = 0.0
    return depth


def render_mask_per_edge(intrinsics, pixels):
    """One frame's object mask, one hull edge and one 3x3 stamp at a time."""
    height, width = intrinsics.height, intrinsics.width
    mask = np.zeros((height, width), dtype=bool)
    hull = convex_hull_by_set(pixels)
    if len(hull) >= 3:
        area = 0.0
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            area += a[0] * b[1] - b[0] * a[1]
        if area < 0.0:
            hull = hull[::-1]
        x0 = max(int(math.floor(hull[:, 0].min())), 0)
        x1 = min(int(math.ceil(hull[:, 0].max())), width - 1)
        y0 = max(int(math.floor(hull[:, 1].min())), 0)
        y1 = min(int(math.ceil(hull[:, 1].max())), height - 1)
        if x1 >= x0 and y1 >= y0:
            uu, vv = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
            inside = np.ones(uu.shape, dtype=bool)
            for i in range(len(hull)):
                a, b = hull[i], hull[(i + 1) % len(hull)]
                inside &= ((b[0] - a[0]) * (vv - a[1])
                           - (b[1] - a[1]) * (uu - a[0])) >= -1e-9
            mask[y0:y1 + 1, x0:x1 + 1] |= inside
    for u, v in np.round(pixels).astype(int):
        mask[max(v - 1, 0):v + 2, max(u - 1, 0):u + 2] = True
    return mask


def place_distractors_per_attempt(config, rng, object_pixels, masks):
    """Distractor placement one (x, y) attempt at a time against a (T, H, W) mask stack."""
    intr = config.intrinsics
    extr = config.camera.inverse()
    cx, cy = float(config.camera.translation[0]), float(config.camera.translation[1])
    flat = object_pixels.reshape(-1, 2)
    out = np.zeros((config.distractor_points, 3))
    for k in range(config.distractor_points):
        for _attempt in range(500):
            x = rng.uniform(cx - 0.4, cx + 0.4)
            y = rng.uniform(cy - 0.3, cy + 0.3)
            cam = extr.apply(np.array([x, y, 0.0]))
            if cam[2] <= 0.0:
                continue
            uv = project(intr, cam[None])[0]
            if not (4.0 <= uv[0] <= intr.width - 5 and 4.0 <= uv[1] <= intr.height - 5):
                continue
            if np.linalg.norm(flat - uv, axis=1).min() < 4.0:
                continue
            iu, iv = int(round(uv[0])), int(round(uv[1]))
            if masks[:, max(iv - 2, 0):iv + 3, max(iu - 2, 0):iu + 3].any():
                continue
            out[k] = (x, y, 0.0)
            break
        else:
            raise ValueError("could not place distractors clear of the object")
    return out


def generator_at_state(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def yawed_camera_config(seed):
    """The rigid demo seen by a camera turned 0.3 rad about the vertical."""
    demo = SceneConfig.rigid_demo(seed=seed)
    yaw = rotation_from_axis_angle(np.array([0.0, 0.0, 0.3]))
    return dataclasses.replace(
        demo, camera=SE3Pose(yaw @ demo.camera.rotation, demo.camera.translation))


ORACLE_CONFIGS = (
    [pytest.param(SceneConfig.rigid_demo(seed=s), id=f"rigid-{s}") for s in range(16)]
    + [pytest.param(SceneConfig.rope_demo(seed=s), id=f"rope-{s}") for s in range(4)]
    + [pytest.param(SceneConfig.rope_demo(mirrored=True, seed=s), id=f"mirrored-{s}")
       for s in range(4)]
    + [pytest.param(yawed_camera_config(s), id=f"yawed-camera-{s}") for s in range(2)])


class TestGenerationOracles:
    @pytest.mark.parametrize("config", ORACLE_CONFIGS)
    def test_masks_and_distractors_match_the_per_frame_per_attempt_code(
            self, config, monkeypatch):
        calls = []

        def spy(config, rng, object_pixels, union):
            before = copy.deepcopy(rng.bit_generator.state)
            placed = _place_distractors(config, rng, object_pixels, union)
            calls.append((before, object_pixels, union, placed, rng.bit_generator.state))
            return placed

        monkeypatch.setattr(sim, "_place_distractors", spy)
        bundle = generate_scene(config)
        [(before, pixels, union, placed, after)] = calls

        for frame in pixels:
            assert np.array_equal(_convex_hull(frame), convex_hull_by_set(frame))
        extr = config.camera.inverse()
        assert (_ground_depth(config.intrinsics, extr).tobytes()
                == ground_depth_by_meshgrid(config.intrinsics, extr).tobytes())
        stack = np.stack([render_mask_per_edge(config.intrinsics, frame) for frame in pixels])
        assert np.array_equal(bundle.mask, stack[0])
        assert np.array_equal(union, stack.any(axis=0))
        rng = generator_at_state(before)
        expected = place_distractors_per_attempt(config, rng, pixels, stack)
        assert placed.tobytes() == expected.tobytes()
        assert after == rng.bit_generator.state


class TestRejectionCap:
    PIXELS = np.array([[[320.0, 240.0], [330.0, 250.0], [320.0, 250.0], [330.0, 240.0]]])

    def test_a_fully_covered_image_is_an_error_after_500_draws(self):
        # With one point to place, each round draws one pair, so both codes
        # stop at the same stream position.
        config = small_rigid_config(distractor_points=1)
        union = np.ones((config.height, config.width), dtype=bool)
        rng, oracle_rng = np.random.default_rng(0), np.random.default_rng(0)
        with pytest.raises(ValueError, match="could not place distractors"):
            _place_distractors(config, rng, self.PIXELS, union)
        with pytest.raises(ValueError, match="could not place distractors"):
            place_distractors_per_attempt(config, oracle_rng, self.PIXELS, union[None])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_a_small_free_region_matches_the_per_attempt_code(self):
        # About one draw in thirty is accepted (177 draws for 6 points), so
        # most rounds accept nothing and the rejection count runs on across
        # rounds; the keypoints sit in the free box, so the distance test runs.
        config = small_rigid_config(distractor_points=6)
        union = np.ones((config.height, config.width), dtype=bool)
        union[200:300, 250:400] = False
        rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        placed = _place_distractors(config, rng, self.PIXELS, union)
        expected = place_distractors_per_attempt(config, oracle_rng, self.PIXELS, union[None])
        assert placed.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _cloud(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(0.0, 640.0, size=(240, 2))
    if kind == "gaussian":
        return rng.normal(300.0, 40.0, size=(2000, 2))
    if kind == "grid-snapped":
        return rng.integers(0, 12, size=(200, 2)).astype(float)
    if kind == "duplicates":
        return np.repeat(rng.uniform(0.0, 50.0, size=(20, 2)), 6, axis=0)[rng.permutation(120)]
    if kind == "collinear":
        t = rng.uniform(-5.0, 5.0, size=(60, 1))
        return np.array([100.0, 200.0]) + t * rng.standard_normal(2)
    if kind == "axis-lines":
        return np.column_stack([np.full(30, 7.0), rng.uniform(0.0, 9.0, 30)])[
            :, rng.permutation(2)]
    if kind == "sub-rounding":
        return 5.0 + rng.uniform(0.0, 3e-6, size=(40, 2))
    return rng.uniform(0.0, 100.0, size=(1 + seed % 15, 2))     # "few": 1 to 15 points


def _rotated_rectangle(angle, width=9, height=5, center=(320.0, 240.0)):
    """A filled integer grid on a width x height rectangle, turned by ``angle``,
    with the grid's (u, v) coordinates."""
    u, v = np.meshgrid(np.arange(width + 1.0), np.arange(height + 1.0))
    local = np.column_stack([u.ravel(), v.ravel()])
    c, w = math.cos(angle), math.sin(angle)
    return local @ np.array([[c, w], [-w, c]]) + np.array(center), local


def _prepared(points):
    """The sorted distinct rounded points ``_convex_hull`` hands to ``_drop_interior``."""
    return np.unique(np.round(points, 6), axis=0)


class TestHullOracle:
    @pytest.mark.parametrize("kind", ["uniform", "gaussian", "grid-snapped", "duplicates",
                                      "collinear", "axis-lines", "sub-rounding", "few"])
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_the_set_and_sort_code(self, kind, seed):
        points = _cloud(kind, seed)
        assert np.array_equal(_convex_hull(points), convex_hull_by_set(points))

    @pytest.mark.parametrize("angle", [0.0, math.pi / 2, math.pi, math.pi / 4,
                                       math.pi / 6, -0.5, 0.3])
    def test_rotated_rectangles_keep_only_their_boundary(self, angle):
        points, local = _rotated_rectangle(angle)
        assert np.array_equal(_convex_hull(points), convex_hull_by_set(points))
        kept = {tuple(p) for p in _drop_interior(_prepared(points)).tolist()}
        edge = (local == 0.0).any(axis=1) | (local == [9.0, 5.0]).any(axis=1)
        # Every grid point a unit or more inside is dropped, though several
        # extremes share a corner (upright, the largest x and x - y do).
        assert kept <= {tuple(p) for p in np.round(points[edge], 6).tolist()}

    def test_a_rigid_demo_frame_is_thinned_before_the_chain(self):
        bundle = generate_scene(SceneConfig.rigid_demo(seed=0))
        intr = bundle.config.intrinsics
        for frame in (0, 10, 20):
            pixels = project(intr, bundle.gt_flow.positions[frame])
            assert len(_drop_interior(_prepared(pixels))) < len(pixels) / 2


def _camera(tilt=0.0, yaw=0.0):
    """The demo camera yawed about the vertical, then tilted about world x.

    Yawed first, the camera's own x axis leaves the tilt axis, so the plane
    normal has all three camera-frame components.
    """
    turn = (rotation_from_axis_angle(np.array([tilt, 0.0, 0.0]))
            @ rotation_from_axis_angle(np.array([0.0, 0.0, yaw])))
    return SE3Pose(turn @ sim.CAMERA_IN_WORLD.rotation, sim.CAMERA_IN_WORLD.translation)


class TestGroundDepthOracle:
    @pytest.mark.parametrize("tilt,yaw", [(0.0, 0.0), (0.0, 0.3), (0.4, 0.0), (0.4, 0.7),
                                          (-0.9, 0.2), (1.2, 0.7), (math.pi, 0.0)])
    @pytest.mark.parametrize("intrinsics", [
        SceneConfig().intrinsics,
        CameraIntrinsics(fx=31.0, fy=27.5, cx=11.3, cy=16.0, width=37, height=23)],
        ids=["demo", "small"])
    def test_matches_the_meshgrid_code(self, tilt, yaw, intrinsics):
        extr = _camera(tilt, yaw).inverse()
        for plane_z in (0.0, 0.05):
            expected = ground_depth_by_meshgrid(intrinsics, extr, plane_z)
            assert _ground_depth(intrinsics, extr, plane_z).tobytes() == expected.tobytes()
