"""Tests for synthetic scene generation, corruption, and evaluation."""

import copy
import dataclasses
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import nvflow.cli
from nvflow.cli import main
from nvflow.deformable import Correspondence, ParticleState
from nvflow.fileio import depth_from_pgm, depth_to_pgm, read_json, sha256_file
from nvflow.flow import ActionableFlow, TrackSet, calibrate_depth, distill_flow
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
    _waypoint_poses,
    corrupt_flow,
    evaluate_deformable,
    evaluate_rigid,
    generate_scene,
)

from conftest import demo_scene, screw_interpolate


@pytest.fixture(scope="module")
def plain_rope_bundle():
    return generate_scene(demo_scene("scene_rope.json"))


@pytest.fixture(scope="module")
def mirrored_rope_bundle():
    return generate_scene(demo_scene("scene_rope_mirrored.json"))


# The packaged demo's pick, lift, carry and place of the default box, whose
# center rests REST_Z above the table.
DEMO_WAYPOINTS = demo_scene("scene_rigid_demo.json").waypoints
REST_Z = ObjectSpec().size[2] / 2.0


def small_rigid_config(frames=5, **overrides):
    defaults = dict(
        scene="rigid",
        frames=frames,
        object=ObjectSpec(surface_samples=24),
        waypoints=DEMO_WAYPOINTS,
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
        spot = (0.45, 0.0, REST_Z)
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
        config = small_rigid_config(
            frames=41,
            waypoints=(Waypoint(0.0, (0.45, 0.0, REST_Z)),
                       Waypoint(1.0, (0.45, 0.0, REST_Z + 0.1))),
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

    def test_object_tracks_come_first_then_the_distractors(self):
        config = small_rigid_config()
        bundle = generate_scene(config)
        n_obj = config.object.surface_samples
        assert bundle.tracks.count == n_obj + config.distractor_points
        # Noise-free, the object tracks are the ground-truth flow and the
        # distractors, on the table, stay where they are.
        positions = bundle.tracks.positions
        assert np.array_equal(positions[:, :n_obj], bundle.gt_flow.positions)
        assert (positions[:, n_obj:] == positions[0, n_obj:]).all()
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
        cut_poses = ObjectPoseTrajectory(bundle.gt_poses.poses[:-2])
        for changes in ({"tracks": cut_tracks}, {"gt_flow": cut_flow},
                        {"gt_poses": cut_poses},
                        {"tracks": cut_tracks, "gt_flow": cut_flow, "gt_poses": cut_poses}):
            with pytest.raises(ValueError, match="the config has 6"):
                dataclasses.replace(bundle, **changes)

    def test_object_leaving_view_is_an_error(self):
        config = small_rigid_config(
            waypoints=(Waypoint(0.0, (0.45, 0.0, REST_Z)),
                       Waypoint(1.0, (5.0, 0.0, REST_Z))),
            distractor_points=0)
        with pytest.raises(ValueError, match="leaves view"):
            generate_scene(config)

    def test_seed_override(self):
        config = small_rigid_config(distractor_points=0)
        bundle = generate_scene(config, seed=5)
        assert bundle.seed == 5


class TestRopeScenes:
    def test_straight_to_straight_script_is_motionless(self):
        spec = RopeSpec(script=((0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)))
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
        spec = RopeSpec(script=((0.0, 2.0 * math.pi, 0.0, 0.0, 0.0),
                                (1.0, 0.0, 0.0, 0.0, 0.0)))
        config = SceneConfig(scene="rope", rope=spec, frames=4,
                             distractor_points=0)
        with pytest.raises(ValueError, match="self-intersecting spline"):
            generate_scene(config)


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
        return ObjectPoseTrajectory(tuple(SE3Pose.identity() for _ in range(frames)))

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
        metrics = evaluate_rigid(ObjectPoseTrajectory(tuple(poses)), gt)
        assert metrics.translation_error_mm[-1] == pytest.approx(10.0, rel=1e-9)
        assert not metrics.success

    def test_one_degree_final_rotation_reports_one_degree(self):
        gt = self.identity_trajectory()
        poses = list(gt.poses)
        rot = rotation_from_axis_angle(np.array([0.0, 0.0, math.radians(1.0)]))
        poses[-1] = SE3Pose(rot, np.zeros(3))
        metrics = evaluate_rigid(ObjectPoseTrajectory(tuple(poses)), gt)
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
        metrics = evaluate_deformable(final, flow, Correspondence(np.arange(6)))
        assert metrics.final_correspondence_rmse_mm == 0.0
        assert metrics.final_chamfer_mm == 0.0
        assert metrics.success

    def test_uniform_offset_reports_exact_rmse(self):
        flow = self.line_flow()
        final = ParticleState.at_rest(flow.positions[-1]
                                      + np.array([0.0, 0.01, 0.0]))
        metrics = evaluate_deformable(final, flow, Correspondence(np.arange(6)))
        assert metrics.final_correspondence_rmse_mm == pytest.approx(10.0,
                                                                     rel=1e-9)
        assert metrics.final_chamfer_mm <= metrics.final_correspondence_rmse_mm + 1e-9
        assert metrics.success  # default tolerance is 50 mm

    def test_tolerance_controls_success(self):
        flow = self.line_flow()
        for offset, success in ((0.049, True), (0.051, False)):   # 50 mm tolerance
            final = ParticleState.at_rest(flow.positions[-1]
                                          + np.array([0.0, offset, 0.0]))
            metrics = evaluate_deformable(final, flow, Correspondence(np.arange(6)))
            assert metrics.success is success


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
        written, _ = bundle.write(tmp_path / "scene")
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
        assert np.array_equal(back.dynamics.edges, bundle.dynamics.edges)
        assert np.array_equal(back.dynamics.rest_lengths,
                              bundle.dynamics.rest_lengths)
        assert back.dynamics.attachment == bundle.dynamics.attachment
        assert back.dynamics.pinned == bundle.dynamics.pinned
        assert np.array_equal(back.initial_state.positions,
                              bundle.initial_state.positions)
        assert back.gt_poses is None

    @pytest.mark.parametrize("name", ["scene_rigid_demo.json", "scene_rope.json"])
    def test_generated_depth_maps_are_the_ones_read_back(self, name, tmp_path):
        # The sensor reports whole millimeters, as the 16-bit PGMs store them.
        bundle = generate_scene(demo_scene(name))
        bundle.write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert bundle.depth.samples.dtype == bundle.depth_ref.samples.dtype == np.uint16
        assert_same_bits(back.depth, bundle.depth, "depth")
        assert_same_bits(back.depth_ref, bundle.depth_ref, "depth_ref")

    def test_noisy_depth_with_invalid_pixels_is_what_its_pgm_decodes(self, tmp_path):
        # Tilted toward the horizon, 80 of the 16 x 16 pixels miss the table
        # (depth 0), and no table pixel is more than 10.9 m away.  Six of
        # the 80 draw a negative noise factor: -0.0 before the clip at 0.
        config = small_rigid_config(camera=_camera(tilt=1.2), width=16, height=16, focal=10.0,
                                    noise=NoiseConfig(depth_sigma=0.5, depth_scale=1.25))
        mask = np.zeros((config.height, config.width), dtype=bool)
        for depth in sim._render_depth(config, np.random.default_rng(3), mask, 0.8):
            assert 0 < depth.valid.sum() < depth.values.size
            depth_to_pgm(tmp_path / "depth.pgm", depth)
            assert depth_from_pgm(tmp_path / "depth.pgm").values.tobytes() == depth.values.tobytes()

    def test_rigid_bundle_round_trip_keeps_poses(self, tmp_path):
        bundle = generate_scene(small_rigid_config(distractor_points=0))
        written, _ = bundle.write(tmp_path / "scene")
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
        _, digests = generate_scene(config).write(tmp_path / "scene")
        manifest = tmp_path / "scene" / "manifest.json"
        assert json.loads(manifest.read_text())["files"] == digests
        files = set(digests)
        assert files == {"scene_config.json", "tracks.npy", "visible.npy", "masks/0000.pgm",
                         "depth/0000.pgm", "depth_ref.pgm", "gt_flow.nvfl"} | extra
        on_disk = {p.relative_to(tmp_path / "scene").as_posix()
                   for p in (tmp_path / "scene").rglob("*") if p.is_file()}
        assert on_disk == files | {"manifest.json"}

    def test_tracks_and_visibility_round_trip_bit_for_bit(self, tmp_path):
        config = demo_scene("scene_rigid_demo.json", seed=3)
        written, _ = generate_scene(config).write(tmp_path / "scene")
        back = SceneBundle.read(tmp_path / "scene")
        assert not back.tracks.visible.all()      # dropout made some samples invisible
        assert_same_bits(back.tracks, written.tracks, "tracks")
        assert back.tracks.positions.dtype == np.float64
        assert back.tracks.visible.dtype == np.bool_

    def test_distill_from_disk_matches_distill_in_memory(self, tmp_path):
        config = demo_scene("scene_rigid_demo.json", seed=2)
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
                             waypoints=DEMO_WAYPOINTS, distractor_points=0,
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
                             waypoints=DEMO_WAYPOINTS, distractor_points=0,
                             noise=NoiseConfig(dropout_prob=0.1))
        bundle = generate_scene(config)
        rate = 1.0 - bundle.tracks.visible.mean()
        n = bundle.tracks.visible.size
        assert abs(rate - 0.1) < 5.0 * math.sqrt(0.1 * 0.9 / n)


class TestConfigs:
    def test_rigid_demo_profile(self):
        config = demo_scene("scene_rigid_demo.json", seed=3)
        assert config.scene == "rigid"
        assert config.seed == 3
        assert config.object.surface_samples == 240
        assert config.noise == NoiseConfig(track_sigma=0.0005, depth_sigma=0.01,
                                           dropout_prob=0.03, depth_scale=1.25)

    def test_rope_demo_profiles(self):
        plain = demo_scene("scene_rope.json")
        assert plain.rope.pinned
        assert plain.frames == 24
        mirrored = demo_scene("scene_rope_mirrored.json")
        assert not mirrored.rope.pinned
        assert mirrored.frames == 40
        assert mirrored.rope.script[-1][0] == 1.0

    def test_config_save_load_round_trip(self, tmp_path):
        config = demo_scene("scene_rope_mirrored.json", seed=9)
        path = tmp_path / "config.json"
        config.save(path)
        back = SceneConfig.from_doc(read_json(path))
        assert back.to_doc() == config.to_doc()

    def test_scene_config_validation(self):
        with pytest.raises(ValueError, match="scene"):
            SceneConfig(scene="fluid")
        with pytest.raises(ValueError, match="frames"):
            SceneConfig(frames=1)
        with pytest.raises(ValueError, match="geometry"):
            SceneConfig(width=8, waypoints=DEMO_WAYPOINTS)
        with pytest.raises(ValueError, match="waypoint"):
            SceneConfig(waypoints=(Waypoint(0.0, (0.4, 0.0, REST_Z)),
                                   Waypoint(0.5, (0.4, 0.0, REST_Z))))
        with pytest.raises(ValueError, match="a rigid scene needs a motion_script"):
            SceneConfig()
        assert SceneConfig(scene="rope").waypoints == ()

    def test_rope_spec_validation(self):
        with pytest.raises(ValueError, match="time 0"):
            RopeSpec(script=((0.2, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="increase"):
            RopeSpec(script=((0.0, 0.0, 0.0, 0.0, 0.0), (0.5, 1.0, 0.0, 0.0, 0.0),
                             (0.5, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="keyframes"):
            RopeSpec(script=((0.0, 0.0, 0.0, 0.1), (1.0, 0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="keyframes"):
            RopeSpec(script=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
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
        for shape in ("torus", "cylinder"):
            with pytest.raises(ValueError, match="shape"):
                ObjectSpec(shape=shape)
        with pytest.raises(ValueError, match="dimensions"):
            ObjectSpec(size=(0.03, 0.08))
        with pytest.raises(ValueError, match="surface samples"):
            ObjectSpec(surface_samples=3)


class TestDispatch:
    def test_generate_scene_routes_by_kind(self, plain_rope_bundle):
        rigid = generate_scene(small_rigid_config(distractor_points=0))
        assert rigid.gt_poses is not None
        assert rigid.dynamics is None
        assert plain_rope_bundle.gt_poses is None
        assert plain_rope_bundle.dynamics is not None

    def test_scene_kind_decides_the_ground_truth(self, plain_rope_bundle):
        """A rigid bundle has poses and no rope state, a rope bundle the reverse."""
        rigid = generate_scene(small_rigid_config(distractor_points=0))
        rope = plain_rope_bundle
        for bundle, changes, message in (
                (rigid, {"gt_poses": None}, "a rigid scene needs gt_poses.json"),
                (rigid, {"dynamics": rope.dynamics}, "a rigid scene has no dynamics.json"),
                (rigid, {"initial_state": rope.initial_state},
                 "a rigid scene has no initial_state.json"),
                (rope, {"dynamics": None}, "a rope scene needs dynamics.json"),
                (rope, {"initial_state": None}, "a rope scene needs initial_state.json"),
                (rope, {"gt_poses": rigid.gt_poses}, "a rope scene has no gt_poses.json")):
            with pytest.raises(ValueError, match=message):
                dataclasses.replace(bundle, **changes)


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


def ground_depth_by_meshgrid(intrinsics, extrinsic):
    """Table-plane depth from a meshgrid of pixel coordinates stacked into rays."""
    normal = extrinsic.rotation @ np.array([0.0, 0.0, 1.0])
    offset = float(normal @ extrinsic.apply(np.array([0.0, 0.0, 0.0])))
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


def ground_depth_map(intrinsics, extrinsic):
    """The blocks of rows ``_ground_depth`` yields, joined into one map."""
    return np.concatenate(list(_ground_depth(intrinsics, extrinsic)))


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


def render_mask_edge_by_edge(intrinsics, pixels):
    """One frame's mask as ``_render_mask`` once drew it: each hull edge
    formed its own row and column terms over the box, and each frame drew
    its own stamps, clipped to the image.  The hull is the set-and-sort
    oracle's."""
    height, width = intrinsics.height, intrinsics.width
    mask = np.zeros((height, width), dtype=bool)
    hull = convex_hull_by_set(pixels)
    if len(hull) >= 3:
        x0 = max(int(math.floor(hull[:, 0].min())), 0)
        x1 = min(int(math.ceil(hull[:, 0].max())), width - 1)
        y0 = max(int(math.floor(hull[:, 1].min())), 0)
        y1 = min(int(math.ceil(hull[:, 1].max())), height - 1)
        if x1 >= x0 and y1 >= y0:
            u, v = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
            inside = np.ones((len(v), len(u)), dtype=bool)
            for a, b in zip(hull, np.roll(hull, -1, axis=0)):
                inside &= (b[0] - a[0]) * (v - a[1]) - (b[1] - a[1]) * (u - a[0]) >= -1e-9
            mask[y0:y1 + 1, x0:x1 + 1] |= inside
    u, v = np.round(pixels).astype(int).T
    step = np.arange(-1, 2)
    mask[np.clip(v[:, None, None] + step[:, None], 0, height - 1),
         np.clip(u[:, None, None] + step, 0, width - 1)] = True
    return mask


def place_distractors_fresh_blocks(config, rng, object_pixels, union):
    """``_place_distractors`` as it once ran the keypoint test: fresh arrays
    for every block of ``sim._NEAR_CHUNK`` distances."""
    intr = config.intrinsics
    cx, cy = float(config.camera.translation[0]), float(config.camera.translation[1])
    low, high = np.array([cx - 0.4, cy - 0.3]), np.array([cx + 0.4, cy + 0.3])
    flat = object_pixels.reshape(-1, 2)
    near_low, near_high = flat.min(axis=0) - 5.0, flat.max(axis=0) + 5.0
    blocked = np.zeros_like(union)
    ys, xs = np.flatnonzero(union.any(axis=1)), np.flatnonzero(union.any(axis=0))
    if len(ys):
        box = (slice(max(ys[0] - 2, 0), ys[-1] + 3), slice(max(xs[0] - 2, 0), xs[-1] + 3))
        padded = np.pad(union[box], 2)
        rows = padded[:-4] | padded[1:-3] | padded[2:-2] | padded[3:-1] | padded[4:]
        blocked[box] = rows[:, :-4] | rows[:, 1:-3] | rows[:, 2:-2] | rows[:, 3:-1] | rows[:, 4:]
    out = np.zeros((config.distractor_points, 3))
    filled = misses = 0
    while filled < len(out):
        xy = rng.uniform(low, high, size=(len(out) - filled, 2))
        cam = config.camera.inverse().apply(np.insert(xy, 2, 0.0, axis=1)[:, None])[:, 0]
        ok = cam[:, 2] > 0.0
        uv = np.full(xy.shape, -1.0)
        uv[ok] = project(intr, cam[ok])
        ok &= ((4.0 <= uv[:, 0]) & (uv[:, 0] <= intr.width - 5)
               & (4.0 <= uv[:, 1]) & (uv[:, 1] <= intr.height - 5))
        iu, iv = np.rint(uv[ok]).astype(int).T
        ok[ok] = ~blocked[iv, iu]
        near = np.flatnonzero(ok & np.all((uv >= near_low) & (uv <= near_high), axis=1))
        step = max(1, sim._NEAR_CHUNK // len(flat))
        for start in range(0, len(near), step):
            chunk = near[start:start + step]
            du, dv = flat[:, 0] - uv[chunk, :1], flat[:, 1] - uv[chunk, 1:]
            ok[chunk] = np.sqrt(du * du + dv * dv).min(axis=1) >= 4.0
        taken = np.flatnonzero(ok)
        runs = np.diff(taken, prepend=-1 - misses, append=len(xy)) - 1
        if runs.max() >= 500:
            raise ValueError("could not place distractors clear of the object")
        misses = runs[-1]
        out[filled:filled + len(taken), :2] = xy[taken]
        filled += len(taken)
    return out


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
    demo = demo_scene("scene_rigid_demo.json", seed=seed, noise=NoiseConfig())
    yaw = rotation_from_axis_angle(np.array([0.0, 0.0, 0.3]))
    return dataclasses.replace(
        demo, camera=SE3Pose(yaw @ demo.camera.rotation, demo.camera.translation))


ORACLE_CONFIGS = (
    [pytest.param(demo_scene("scene_rigid_demo.json", seed=s, noise=NoiseConfig()),
                  id=f"rigid-{s}") for s in range(16)]
    + [pytest.param(demo_scene("scene_rope.json", seed=s), id=f"rope-{s}") for s in range(4)]
    + [pytest.param(demo_scene("scene_rope_mirrored.json", seed=s), id=f"mirrored-{s}")
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
        assert (ground_depth_map(config.intrinsics, extr).tobytes()
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

    @pytest.mark.parametrize("kind", ["uniform", "gaussian", "grid-snapped", "duplicates",
                                      "collinear", "axis-lines", "sub-rounding", "few"])
    def test_the_hull_runs_counterclockwise(self, kind):
        """``_render_mask`` takes the inside to be left of every hull edge, so
        it relies on the hull's shoelace sum, as it once checked it in this
        order, never being negative."""
        for seed in range(100, 300):
            hull = _convex_hull(_cloud(kind, seed))
            area = 0.0
            for i in range(len(hull)):
                a, b = hull[i], hull[(i + 1) % len(hull)]
                area += a[0] * b[1] - b[0] * a[1]
            assert area > 0.0 if len(hull) >= 3 else area == 0.0, (kind, seed)

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
        bundle = generate_scene(demo_scene("scene_rigid_demo.json", seed=0,
                                           noise=NoiseConfig()))
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
        SceneConfig(scene="rope").intrinsics,
        CameraIntrinsics(fx=31.0, fy=27.5, cx=11.3, cy=16.0, width=37, height=23)],
        ids=["demo", "small"])
    def test_matches_the_meshgrid_code(self, tilt, yaw, intrinsics):
        extr = _camera(tilt, yaw).inverse()
        expected = ground_depth_by_meshgrid(intrinsics, extr)
        assert ground_depth_map(intrinsics, extr).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tilt,yaw", [(0.4, 0.7), (-0.9, 0.2), (1.2, 0.7)])
    @pytest.mark.parametrize("height", [1, sim._GROUND_ROWS - 1, sim._GROUND_ROWS + 1, 481])
    def test_row_blocks_keep_the_bits_at_every_height(self, tilt, yaw, height):
        # One row, a block cut short, one row past a block, and a last
        # block of one row after 15 whole ones.
        intrinsics = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=height / 2.0,
                                      width=640, height=height)
        extr = _camera(tilt, yaw).inverse()
        expected = ground_depth_by_meshgrid(intrinsics, extr)
        assert ground_depth_map(intrinsics, extr).tobytes() == expected.tobytes()


def render_depth_full_frame(config, rng, mask, object_depth):
    """The two depth maps from full-frame float arrays and one noise draw,
    rounded to uint16 millimeters at the end."""
    reference = ground_depth_by_meshgrid(config.intrinsics, config.camera.inverse())
    reference[mask] = object_depth
    noise = config.noise
    sensor = reference
    if noise.depth_sigma > 0.0:
        sensor = reference * (1.0 + noise.depth_sigma * rng.standard_normal(reference.shape))
        sensor[sensor <= 0.0] = 0.0
    return tuple(np.round(values * 1000.0).astype(np.uint16)
                 for values in (sensor * noise.depth_scale, reference))


class TestRenderDepthOracle:
    @pytest.mark.parametrize("height", [sim._GROUND_ROWS - 1, sim._GROUND_ROWS + 1, 97])
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_row_blocks_match_one_full_frame_draw(self, height, sigma):
        # Tilted toward the horizon, some rays miss the table, and no table
        # pixel is more than 11.7 m away; at sigma 0.5 some pixels draw a
        # negative noise factor.
        config = small_rigid_config(camera=_camera(tilt=1.0), width=16, height=height,
                                    focal=10.0,
                                    noise=NoiseConfig(depth_sigma=sigma, depth_scale=1.25))
        mask = np.zeros((height, 16), dtype=bool)
        mask[height // 2:, 4:9] = True
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        depth, depth_ref = sim._render_depth(config, rng, mask, 0.8)
        sensor, reference = render_depth_full_frame(config, oracle_rng, mask, 0.8)
        assert 0 < depth.valid.sum() < depth.samples.size
        assert depth.samples.tobytes() == sensor.tobytes()
        assert depth_ref.samples.tobytes() == reference.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_depth_beyond_16_bit_millimeters_is_an_error_at_generation(self):
        config = small_rigid_config(width=16, height=16, focal=10.0)
        mask = np.ones((16, 16), dtype=bool)
        sim._render_depth(config, np.random.default_rng(0), mask, 65.535)
        with pytest.raises(ValueError, match="65.535 m range"):
            sim._render_depth(config, np.random.default_rng(0), mask, 65.5355)


class TestDistractorChunks:
    def test_blocks_of_the_keypoint_test_match_one_block(self, monkeypatch):
        # 2,000 keypoints over a 300 px square and no mask: about two in three
        # candidates there are rejected by the keypoint test alone, and a
        # 2^15 block holds 16 of the 100-odd candidates a round draws there.
        config = small_rigid_config(distractor_points=300)
        pixels = np.random.default_rng(5).uniform([170.0, 90.0], [470.0, 390.0], (1, 2000, 2))
        union = np.zeros((config.height, config.width), dtype=bool)
        placed = {}
        for chunk in (1, sim._NEAR_CHUNK, 1 << 62):
            monkeypatch.setattr(sim, "_NEAR_CHUNK", chunk)
            rng = np.random.default_rng(7)
            placed[chunk] = (_place_distractors(config, rng, pixels, union).tobytes(),
                             rng.bit_generator.state)
        assert placed[1] == placed[1 << 62]
        assert placed[sim._NEAR_CHUNK] == placed[1 << 62]


def _border_squares(intrinsics, half=6.5):
    """Squares centred on each side and corner of the image, so each box is
    cut at one or two borders; a square whose box keeps one pixel, at the
    top-left corner; and one wholly outside the image."""
    w, h = intrinsics.width - 1, intrinsics.height - 1
    corners = np.array([[-half, -half], [half, -half], [half, half], [-half, half]])
    centers = [(0.0, h / 2), (w, h / 2), (w / 2, 0.0), (w / 2, h), (0.0, 0.0), (w, h),
               (w + 0.3, -0.4)]
    squares = [corners + c for c in centers]
    squares.append(np.array([[-5.0, -5.0], [0.0, -5.0], [0.0, 0.0], [-5.0, 0.0]]))
    squares.append(corners + (w + 20.0, h / 2))
    return squares


class TestMaskFillOracle:
    """``_render_mask`` against the fill one edge at a time, bit for bit,
    on pixels in and out of the image.

    ``TestGenerationOracles`` compares the first-frame mask and the union
    of all 21 frames on the rigid demo at seeds 0-15, among other scenes.
    """

    INTR = SceneConfig(scene="rope").intrinsics

    @pytest.mark.parametrize("kind", ["uniform", "gaussian", "grid-snapped", "duplicates",
                                      "collinear", "axis-lines", "sub-rounding", "few"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_hulls(self, kind, seed):
        # "uniform" spans 640 px on both axes, past the image's 480 rows;
        # "few" and "collinear" give hulls of fewer than 3 vertices.
        pixels = _cloud(kind, seed)
        expected = render_mask_edge_by_edge(self.INTR, pixels)
        assert _render_mask(self.INTR, pixels).tobytes() == expected.tobytes()

    def test_boxes_clipped_at_the_image_border(self):
        for pixels in _border_squares(self.INTR):
            expected = render_mask_edge_by_edge(self.INTR, pixels)
            assert _render_mask(self.INTR, pixels).tobytes() == expected.tobytes()

    def test_a_stack_of_frames_is_their_union(self):
        frames = np.stack([square + 3.0 * t for t, square in enumerate(_border_squares(self.INTR))])
        expected = np.any([render_mask_edge_by_edge(self.INTR, frame) for frame in frames], axis=0)
        mask = np.zeros_like(expected)
        assert _render_mask(self.INTR, frames, mask) is mask
        assert mask.tobytes() == expected.tobytes()


class TestDistractorBlockOracle:
    """``_place_distractors`` against fresh arrays for every block, bit for bit."""

    @pytest.mark.parametrize("chunk", [1, 2000 * 3, sim._NEAR_CHUNK, 1 << 62])
    def test_near_candidates_over_several_blocks(self, chunk, monkeypatch):
        # As in TestDistractorChunks: 2,000 keypoints over a 300 px square,
        # about 100 near candidates a round, 16 to a default block.
        monkeypatch.setattr(sim, "_NEAR_CHUNK", chunk)
        config = small_rigid_config(distractor_points=300)
        pixels = np.random.default_rng(5).uniform([170.0, 90.0], [470.0, 390.0], (1, 2000, 2))
        union = np.zeros((config.height, config.width), dtype=bool)
        rng, oracle = np.random.default_rng(7), np.random.default_rng(7)
        placed = _place_distractors(config, rng, pixels, union)
        expected = place_distractors_fresh_blocks(config, oracle, pixels, union)
        assert placed.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_the_rigid_demo_draw(self, monkeypatch):
        seen = []

        def spy(config, rng, object_pixels, union):
            seen.append((config, copy.deepcopy(rng.bit_generator.state), object_pixels, union))
            return _place_distractors(config, rng, object_pixels, union)

        monkeypatch.setattr(sim, "_place_distractors", spy)
        generate_scene(demo_scene("scene_rigid_demo.json", seed=0))
        [(config, state, pixels, union)] = seen
        placed = _place_distractors(config, generator_at_state(state), pixels, union)
        expected = place_distractors_fresh_blocks(config, generator_at_state(state), pixels,
                                                  union)
        assert placed.tobytes() == expected.tobytes()

    def test_the_two_buffers_hold_no_more_than_fresh_blocks(self):
        config = small_rigid_config(distractor_points=300)
        pixels = np.random.default_rng(5).uniform([170.0, 90.0], [470.0, 390.0], (1, 2000, 2))
        union = np.zeros((config.height, config.width), dtype=bool)
        peaks = [_traced_peak(lambda: place(config, np.random.default_rng(7), pixels, union))
                 for place in (_place_distractors, place_distractors_fresh_blocks)]
        assert peaks[0] <= peaks[1]


class TestDistractorWindows:
    @pytest.mark.parametrize("marks", [[(8, 8)], [(0, 0), (9, 6)], [(15, 15), (4, 11)]])
    def test_match_the_per_attempt_code_on_a_small_image(self, marks):
        # On a 16 x 16 image the 5x5 windows of a few marked pixels, their
        # edges and the image's border take a large share of the candidates.
        config = small_rigid_config(width=16, height=16, focal=10.0, distractor_points=50)
        union = np.zeros((config.height, config.width), dtype=bool)
        union[tuple(np.transpose(marks))] = True
        pixels = np.zeros((1, 1, 2))        # one keypoint, more than 4 px from any candidate
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        placed = _place_distractors(config, rng, pixels, union)
        expected = place_distractors_per_attempt(config, oracle, pixels, union[None])
        assert placed.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == oracle.bit_generator.state


def _waypoints(rng, count):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, count - 2)), [1.0]])
    return tuple(Waypoint(float(t), tuple(rng.uniform(-0.5, 0.5, 3)), float(rng.uniform(-3, 3)))
                 for t in times)


class TestWaypointPoses:
    @pytest.mark.parametrize("frames", [2, 7, 21, 50])
    @pytest.mark.parametrize("seed", range(4))
    def test_match_screw_interpolate_per_frame_bit_for_bit(self, frames, seed):
        rng = np.random.default_rng(seed)
        waypoints = (_waypoints(rng, 2 + seed) if seed
                     else demo_scene("scene_rigid_demo.json").waypoints)
        times = [w.time for w in waypoints]
        for t, pose in enumerate(_waypoint_poses(waypoints, frames)):
            frac = t / (frames - 1)
            seg = min(max(int(np.searchsorted(times, frac, side="right")) - 1, 0),
                      len(waypoints) - 2)
            tau = (frac - times[seg]) / (times[seg + 1] - times[seg])
            expected = screw_interpolate(waypoints[seg].pose(), waypoints[seg + 1].pose(),
                                         float(np.clip(tau, 0.0, 1.0)))
            assert pose.rotation.tobytes() == expected.rotation.tobytes()
            assert pose.translation.tobytes() == expected.translation.tobytes()


def _traced_peak(call) -> int:
    """The most memory ``call`` holds at once, in bytes, as tracemalloc counts
    it: allocation sizes, not time."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    """The rigid demo at seed 0 renders 640 x 480 depth maps.

    Scene generation once peaked at 16.6 MB and the bundle write at 10.8 MB,
    with full-frame ray arrays, noise terms and decoded copies that were
    thrown away at once; then at 9.2 and 8.3 MB, with a copy of every depth
    map made on construction and one more decoded per map written.  A whole
    ``run`` then peaked at 14.0 MB on the rigid demo and at 13.6 MB on the
    rope cut to 8 frames.  With the maps held as 2.46 MB of float64 each,
    and calibration copying every valid pixel as float64, generation then
    peaked at 6.8 MB and a whole ``run`` at 8.5 and 8.1 MB.  The maps are
    now 0.6 MB of uint16 millimeters each, rendered a block of rows at a
    time: 4.1 MB for generation, 4.5 and 3.3 MB for a whole ``run``.  Each
    array is now let go after its last reader (the union of the object
    masks and the noise-free tracks before the depth maps are drawn, the
    maps once calibration returns, the unselected candidates once scored),
    files are hashed through one 64 KiB buffer, and the flow image colors
    only its painted pixels: 3.5 MB for generation, 0.6 MB for the bundle
    write, 3.6 and 3.0 MB for a whole ``run``.
    """

    CONFIG = demo_scene("scene_rigid_demo.json", seed=0)

    def test_generate_scene_peak(self):
        generate_scene(self.CONFIG)          # first-call caches out of the count
        assert _traced_peak(lambda: generate_scene(self.CONFIG)) < 3.8e6

    def test_bundle_write_peak(self, tmp_path):
        bundle = generate_scene(self.CONFIG)
        bundle.write(tmp_path / "first")
        assert _traced_peak(lambda: bundle.write(tmp_path / "second")) < 0.75e6

    @pytest.mark.parametrize("scene", ["rigid", "rope"])
    def test_run_converts_no_depth_map_to_float_meters(self, scene, tmp_path, monkeypatch):
        def refuse(depth):
            raise AssertionError("a depth map was converted to float meters")

        argv = ["run", "--out-dir", str(tmp_path / "run")]
        if scene == "rope":
            demo_scene("scene_rope.json", frames=8).save(tmp_path / "rope.json")
            argv += ["--config", str(tmp_path / "rope.json")]
        monkeypatch.setattr(DepthMap, "values", property(refuse))
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["run-rigid", "run-rope", "distill"])
    def test_no_depth_map_outlives_calibration(self, command, tmp_path, monkeypatch):
        """Every stage after calibration runs with both depth maps freed."""
        argv = ["run", "--out-dir", str(tmp_path / "run")]
        if command == "run-rope":
            demo_scene("scene_rope.json", frames=8).save(tmp_path / "rope.json")
            argv += ["--config", str(tmp_path / "rope.json")]
        elif command == "distill":
            generate_scene(self.CONFIG).write(tmp_path / "bundle")
            argv = ["distill", str(tmp_path / "bundle"), "--out-dir", str(tmp_path / "flow")]
        maps, alive_at_distill = [], []

        def calibrate(first, reference):
            maps.extend(weakref.ref(obj) for depth in (first, reference)
                        for obj in (depth, depth.samples))
            return calibrate_depth(first, reference)

        def distill(*args, **kwargs):
            alive_at_distill.extend(ref() is not None for ref in maps)
            return distill_flow(*args, **kwargs)

        monkeypatch.setattr(nvflow.cli, "calibrate_depth", calibrate)
        monkeypatch.setattr(nvflow.cli, "distill_flow", distill)
        assert main(argv) == 0
        assert alive_at_distill == [False] * 4

    @pytest.mark.parametrize("scene,bound", [("rigid", 3.9e6), ("rope", 3.2e6)])
    def test_run_peak(self, scene, bound, tmp_path):
        argv = ["run"]                       # the packaged rigid demo, 8 candidates
        if scene == "rope":
            demo_scene("scene_rope.json", frames=8).save(tmp_path / "rope.json")
            argv += ["--config", str(tmp_path / "rope.json")]
        assert main(argv + ["--out-dir", str(tmp_path / "first")]) == 0
        assert _traced_peak(lambda: main(argv + ["--out-dir", str(tmp_path / "second")])) < bound
