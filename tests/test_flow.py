"""Tests for depth calibration, flow distillation, scoring, and rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvflow.cli import _candidate_sigmas
from nvflow.flow import (
    ActionableFlow,
    DepthCalibrationError,
    FlowCandidate,
    GroundingError,
    TrackSet,
    _median,
    _stamp_digits,
    calibrate_depth,
    distill_flow,
    render_flow_image,
    score_flow,
    select_candidate,
)
from nvflow.geometry import CameraIntrinsics, DepthMap, project
from nvflow.sim import DEFAULT_SENSOR_NOISE, SceneConfig, corrupt_flow, generate_scene

from conftest import assert_same_float, tie_heavy_arrays

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def sorted_median(values) -> float:
    """Brute-force median oracle: sort and take the middle element(s)."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


class TestMedian:
    def test_bit_identical_to_np_median(self, rng):
        for values in tie_heavy_arrays(rng):
            assert_same_float(_median(values), np.median(values))


class TestCalibrateDepth:
    def test_constant_maps(self):
        est = DepthMap(np.full((4, 4), 2.0))
        ref = DepthMap(np.full((4, 4), 1.0))
        scale = calibrate_depth(est, ref)
        assert scale == 0.5
        assert np.array_equal(est.values * scale, np.full((4, 4), 1.0))

    def test_identity_when_estimate_matches_reference(self, rng):
        values = rng.uniform(0.5, 3.0, size=(8, 8))
        scale = calibrate_depth(DepthMap(values), DepthMap(values))
        assert scale == 1.0
        assert np.array_equal(values * scale, values)

    def test_outlier_robust_hand_computed_medians(self):
        est = DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 100.0]]))
        ref = DepthMap(np.array([[2.0, 4.0, 6.0, 0.0, 0.0]]))
        scale = calibrate_depth(est, ref)
        med_est = sorted_median([1.0, 2.0, 3.0, 4.0, 100.0])
        med_ref = sorted_median([2.0, 4.0, 6.0])
        assert med_est == 3.0 and med_ref == 4.0
        assert np.isclose(scale, 4.0 / 3.0, rtol=1e-12)
        out = DepthMap(est.values * scale)
        assert abs(sorted_median(out.values[out.valid]) - med_ref) < 1e-9 * med_ref

    def test_scale_invariant_to_added_invalid_pixels(self):
        est_small = DepthMap(np.array([[1.0, 2.0, 3.0]]))
        ref_small = DepthMap(np.array([[2.0, 2.0, 2.0]]))
        scale_small = calibrate_depth(est_small, ref_small)
        est_big = DepthMap(np.array([[1.0, 2.0, 3.0, 0.0, 0.0]]))
        ref_big = DepthMap(np.array([[2.0, 2.0, 2.0, 0.0, 0.0]]))
        scale_big = calibrate_depth(est_big, ref_big)
        assert scale_small == scale_big

    def test_all_invalid_estimate_raises(self):
        with pytest.raises(DepthCalibrationError, match="empty depth"):
            calibrate_depth(DepthMap(np.zeros((2, 2))), DepthMap(np.ones((2, 2))))

    def test_all_invalid_reference_raises(self):
        with pytest.raises(DepthCalibrationError, match="empty depth"):
            calibrate_depth(DepthMap(np.ones((2, 2))), DepthMap(np.zeros((2, 2))))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DepthCalibrationError, match="differ"):
            calibrate_depth(DepthMap(np.ones((2, 2))), DepthMap(np.ones((3, 3))))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), side=st.integers(2, 12),
           dropout=st.floats(0.0, 0.8))
    def test_calibrated_median_matches_reference(self, seed, side, dropout):
        gen = np.random.default_rng(seed)
        est_values = gen.uniform(0.2, 5.0, size=(side, side))
        ref_values = gen.uniform(0.2, 5.0, size=(side, side))
        est_values[gen.random((side, side)) < dropout] = 0.0
        ref_values[gen.random((side, side)) < dropout] = 0.0
        if not est_values.any() or not ref_values.any():
            return
        scale = calibrate_depth(DepthMap(est_values), DepthMap(ref_values))
        out = DepthMap(est_values * scale)
        med_out = sorted_median(out.values[out.valid])
        med_ref = sorted_median(ref_values[ref_values > 0.0])
        assert abs(med_out - med_ref) <= 1e-9 * med_ref
        assert scale == pytest.approx(
            med_ref / sorted_median(est_values[est_values > 0.0]), rel=1e-12)


def make_mask(center_uv=(320, 240), half=60):
    mask = np.zeros((480, 640), dtype=bool)
    u, v = center_uv
    mask[v - half:v + half, u - half:u + half] = True
    return mask


class TestDistillFlow:
    def test_keeps_only_grounded_and_visible_tracks(self):
        frames = 3
        # track 0: on the object, always visible -> kept
        # track 1: projects outside the mask -> dropped
        # track 2: on the object but invisible at frame 1 -> dropped
        positions = np.zeros((frames, 3, 3))
        positions[:, 0] = [0.0, 0.0, 1.0]
        positions[:, 1] = [0.2, 0.0, 1.0]
        positions[:, 2] = [0.01, 0.0, 1.0]
        visible = np.ones((frames, 3), dtype=bool)
        visible[1, 2] = False
        tracks = TrackSet(positions, visible)
        flow = distill_flow(tracks, make_mask(), INTR, label="box")
        assert flow.keypoints == 1
        assert flow.label == "box"
        assert np.array_equal(flow.positions[:, 0], positions[:, 0])

    def test_membership_recovered_exactly(self, rng):
        frames, n_obj, n_bg = 4, 12, 20
        obj = rng.uniform([-0.05, -0.05, 0.9], [0.05, 0.05, 1.1], size=(n_obj, 3))
        bg = rng.uniform([0.15, 0.15, 0.9], [0.25, 0.2, 1.1], size=(n_bg, 3))
        positions = np.broadcast_to(
            np.concatenate([obj, bg]), (frames, n_obj + n_bg, 3)).copy()
        tracks = TrackSet(positions, np.ones((frames, n_obj + n_bg), dtype=bool))
        flow = distill_flow(tracks, make_mask(), INTR)
        assert flow.keypoints == n_obj
        assert np.allclose(flow.positions[0], obj)

    def test_behind_camera_tracks_are_dropped(self):
        positions = np.zeros((2, 2, 3))
        positions[:, 0] = [0.0, 0.0, 1.0]
        positions[:, 1] = [0.0, 0.0, -1.0]
        tracks = TrackSet(positions, np.ones((2, 2), dtype=bool))
        flow = distill_flow(tracks, make_mask(), INTR)
        assert flow.keypoints == 1

    def test_nothing_grounded_raises(self):
        positions = np.full((2, 2, 3), [0.3, 0.3, 1.0])
        tracks = TrackSet(positions, np.ones((2, 2), dtype=bool))
        with pytest.raises(GroundingError, match="not grounded"):
            distill_flow(tracks, make_mask(), INTR)

    def test_mask_size_mismatch_raises(self):
        positions = np.zeros((2, 1, 3))
        positions[..., 2] = 1.0
        tracks = TrackSet(positions, np.ones((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="mask"):
            distill_flow(tracks, make_mask()[:240, :320], INTR)


def smooth_flow(step=0.001, frames=6, keypoints=4):
    base = np.array([[0.01 * k, 0.0, 1.0] for k in range(keypoints)])
    positions = np.stack([base + [t * step, 0.0, 0.0] for t in range(frames)])
    return ActionableFlow(positions)


class TestScoreFlow:
    def test_perfect_score_for_slow_compact_flow(self):
        assert score_flow(smooth_flow(), INTR) == 0.0

    def test_teleport_scores_below_smooth(self):
        teleporting = smooth_flow().positions.copy()
        teleporting[3] += [0.5, 0.0, 0.0]
        assert score_flow(ActionableFlow(teleporting), INTR) < score_flow(smooth_flow(), INTR)

    def test_teleport_penalty_monotone_in_jump_size(self):
        scores = []
        for jump in (0.2, 0.4, 0.8):
            positions = smooth_flow().positions.copy()
            positions[3] += [jump, 0.0, 0.0]
            scores.append(score_flow(ActionableFlow(positions), INTR))
        assert scores[0] > scores[1] > scores[2]

    def test_spread_penalty_monotone_in_extent(self):
        def spread_flow(x, y):
            corners = np.array([[-x, -y, 1.0], [x, -y, 1.0], [-x, y, 1.0], [x, y, 1.0]])
            return ActionableFlow(np.stack([corners, corners]))

        compact = score_flow(spread_flow(0.05, 0.05), INTR)
        wide = score_flow(spread_flow(0.4, 0.3), INTR)
        wider = score_flow(spread_flow(0.5, 0.37), INTR)
        assert compact == 0.0
        assert compact > wide > wider

    def test_duplicating_keypoints_leaves_score_unchanged(self, rng):
        positions = np.cumsum(0.1 * rng.standard_normal((5, 6, 3)), axis=0)
        positions[..., 2] += 2.0
        flow = ActionableFlow(positions)
        doubled = ActionableFlow(np.repeat(positions, 2, axis=1))
        score = score_flow(flow, INTR)
        assert score < 0.0  # the penalties are active, not vacuously zero
        assert abs(score - score_flow(doubled, INTR)) < 1e-12


class TestSelectCandidate:
    def test_single_candidate(self):
        flow = smooth_flow()
        assert select_candidate([FlowCandidate(0, flow, -1.0)]) == 0

    def test_picks_highest_score(self):
        flow = smooth_flow()
        candidates = [FlowCandidate(0, flow, -1.0), FlowCandidate(1, flow, -0.5),
                      FlowCandidate(2, flow, -2.0)]
        assert select_candidate(candidates) == 1

    def test_tie_goes_to_lowest_id(self):
        flow = smooth_flow()
        candidates = [FlowCandidate(3, flow, -1.0), FlowCandidate(1, flow, -1.0),
                      FlowCandidate(2, flow, -1.0)]
        assert select_candidate(candidates) == 1

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            select_candidate([])


class TestRenderFlowImage:
    def test_stationary_flow_renders_dots(self):
        positions = np.zeros((3, 2, 3))
        positions[:, 0] = [0.0, 0.0, 1.0]
        positions[:, 1] = [0.05, 0.0, 1.0]
        img = render_flow_image(ActionableFlow(positions), INTR)
        assert img.shape == (480, 640, 3)
        assert img[240, 320].any()
        assert img[240, 350].any()
        assert (img.any(axis=2).sum()) <= 8  # isolated dots, not trails

    def test_moving_keypoint_paints_a_line(self):
        frames = 9
        positions = np.zeros((frames, 1, 3))
        for t in range(frames):
            positions[t, 0] = [-0.1 + 0.025 * t, 0.0, 1.0]
        img = render_flow_image(ActionableFlow(positions), INTR)
        row = img[240]
        lit = np.flatnonzero(row.any(axis=1))
        assert lit.min() <= 261 and lit.max() >= 379
        assert len(lit) > 100
        # early segments are blue-dominant, late ones red-dominant
        assert row[265, 2] > row[265, 0]
        assert row[375, 0] > row[375, 2]

    def test_never_empty_for_visible_flow(self, rng):
        positions = 0.02 * rng.standard_normal((4, 5, 3))
        positions[..., 2] += 1.0
        img = render_flow_image(ActionableFlow(positions), INTR)
        assert img.any()

    def test_candidate_id_is_stamped(self):
        img_plain = render_flow_image(smooth_flow(), INTR)
        img_tagged = render_flow_image(smooth_flow(), INTR, candidate_id=7)
        corner = img_tagged[:30, :30]
        assert (corner == 255).any()
        assert not (img_plain[:30, :30] == 255).any()


def _draw_segment(img, a, b, color):
    """Reference rasterizer: one segment at a time, two np.linspace calls each."""
    height, width = img.shape[:2]
    n = int(max(abs(b[0] - a[0]), abs(b[1] - a[1]))) * 2 + 1
    us = np.round(np.linspace(a[0], b[0], n)).astype(int)
    vs = np.round(np.linspace(a[1], b[1], n)).astype(int)
    ok = (us >= 0) & (us < width) & (vs >= 0) & (vs < height)
    img[vs[ok], us[ok]] = color


def reference_render(flow, intrinsics, candidate_id=None):
    """Oracle for render_flow_image: the per-keypoint, per-segment loop."""
    img = np.zeros((intrinsics.height, intrinsics.width, 3), dtype=np.uint8)
    frames, pos = flow.frames, flow.positions
    front = pos[:, :, 2] > 0.0
    uv = np.zeros((frames, flow.keypoints, 2))
    if front.any():
        uv[front] = project(intrinsics, pos[front])
    for t in range(frames - 1):
        frac = t / max(frames - 2, 1)
        color = np.array([round(255 * frac), 0, round(255 * (1.0 - frac))], dtype=np.uint8)
        for k in range(flow.keypoints):
            if front[t, k] and front[t + 1, k]:
                _draw_segment(img, uv[t, k], uv[t + 1, k], color)
    if candidate_id is not None:
        _stamp_digits(img, str(int(candidate_id)), origin=(4, 4))
    return img


@pytest.fixture(scope="module")
def demo_flow():
    """The flow `nvflow distill` selects on the default rigid demo, and its camera."""
    bundle = generate_scene(SceneConfig.rigid_demo(noise=DEFAULT_SENSOR_NOISE), 0)
    scale = calibrate_depth(bundle.depth, bundle.depth_ref)
    tracks = TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible)
    intr = bundle.config.intrinsics
    return distill_flow(tracks, bundle.mask, intr), intr


def assert_renders_like_reference(flow, intrinsics=INTR, **kwargs):
    expected = reference_render(flow, intrinsics, **kwargs)
    assert np.array_equal(render_flow_image(flow, intrinsics, **kwargs), expected)
    return expected


class TestRenderMatchesReference:
    @pytest.mark.parametrize("sigma", [0.0, 0.02, 0.15, 0.3, 1.0])
    def test_distilled_flow_and_noisy_copies(self, demo_flow, sigma):
        flow, intr = demo_flow
        noisy = corrupt_flow(flow, sigma=sigma, seed=11)
        assert assert_renders_like_reference(noisy, intr, candidate_id=3).any()

    def test_keypoints_behind_camera_in_some_frames(self, rng):
        positions = 0.1 * rng.standard_normal((6, 12, 3))
        positions[..., 2] += 0.8
        positions[2, :4, 2] = -0.5        # behind the camera
        positions[4, 4:8, 2] = 0.0        # on the camera plane: not in front
        assert assert_renders_like_reference(ActionableFlow(positions)).any()
        positions[..., 2] = -positions[..., 2] - 0.1                  # all behind
        assert not assert_renders_like_reference(ActionableFlow(positions)).any()

    def test_segments_partly_and_entirely_off_image(self):
        pixels = np.array([      # (frame, keypoint, u/v); keypoints 4-6 run far past the edges
            [[320, 240], [740, 240], [1520, 1440], [-40, 240], [-5000, 239.5],
             [-9000, -7000], [639.5, -3000]],
            [[860, 300], [800, 420], [1820, 1140], [380, 300], [6000, 240.5],
             [9640, 7480], [639.5, 4000]],
            [[-220, -120], [680, 600], [2120, -960], [560, 360], [-4000, 479.5],
             [-0.5, 479.5], [-0.5, -9000]],
        ])
        depth = np.array([1.0, 1.0, 0.5])[:, None, None]
        xy = (pixels - [INTR.cx, INTR.cy]) / [INTR.fx, INTR.fy] * depth
        positions = np.concatenate([xy, np.broadcast_to(depth, xy.shape[:2] + (1,))], axis=2)
        img = assert_renders_like_reference(ActionableFlow(positions))
        assert img[:, 0].any() and img[:, 639].any()     # clipped at both edges

    def test_zero_length_and_subpixel_segments(self):
        positions = np.zeros((4, 3, 3))
        positions[:, 0] = [0.0, 0.0, 1.0]                       # stationary
        positions[:, 1] = [[0.05, 0.0, 1.0], [0.05 + 1e-6, 0.0, 1.0],
                           [0.05 + 5e-4, 1e-300, 1.0], [0.05, 0.0, 1.0]]
        positions[:, 2] = [[-0.25 / 600, 0.25 / 600, 1.0]] * 4  # dot on a half pixel
        assert assert_renders_like_reference(ActionableFlow(positions)).any()

    def test_last_sample_is_the_endpoint(self):
        # Sampled as start + (n - 1) * step these end 3e-14 past / short of a
        # half pixel (174.5 -> 175, 119.5 -> 119); np.linspace ends exactly there.
        pixels = np.array([[[0.137, 100.0], [1.416, 200.0]],
                           [[174.5, 100.0], [119.5, 200.0]]])
        xy = (pixels - [INTR.cx, INTR.cy]) / [INTR.fx, INTR.fy]
        positions = np.concatenate([xy, np.ones(xy.shape[:2] + (1,))], axis=2)
        img = assert_renders_like_reference(ActionableFlow(positions))
        assert img[100, 174].any() and not img[100, 175].any()
        assert img[200, 120].any()

    @pytest.mark.parametrize("frames", [2, 3])
    def test_two_and_three_frame_flows(self, frames, rng):
        positions = 0.05 * rng.standard_normal((frames, 10, 3))
        positions[..., 2] += 1.0
        img = assert_renders_like_reference(ActionableFlow(positions))
        assert img[..., 2].any()          # the first pair is pure blue

    def test_candidate_stamp_over_strokes(self, rng):
        positions = 0.03 * rng.standard_normal((5, 20, 3))
        positions[:, :, :2] += [-0.5, -0.38]                     # runs under the stamp
        positions[..., 2] += 1.0
        for candidate_id in (None, 0, 12):
            assert_renders_like_reference(ActionableFlow(positions),
                                          candidate_id=candidate_id)

    def test_later_pairs_repaint_earlier_ones(self):
        # Keypoint 0 sweeps row 200 right, back and half-way right again;
        # keypoint 1 runs down, up and down column 300 across it.
        pixels = np.array([[[100, 200], [300, 100]],
                           [[400, 200], [300, 300]],
                           [[100, 200], [300, 100]],
                           [[250, 200], [300, 300]]], dtype=float)
        xy = (pixels - [INTR.cx, INTR.cy]) / [INTR.fx, INTR.fy]
        positions = np.concatenate([xy, np.ones(xy.shape[:2] + (1,))], axis=2)
        img = assert_renders_like_reference(ActionableFlow(positions))
        assert img[200, 200].tolist() == [255, 0, 0]      # pair 2 over pairs 0 and 1
        assert img[200, 350].tolist() == [128, 0, 128]    # pair 1 over pair 0
        assert img[150, 300].tolist() == [255, 0, 0]      # the crossing pixels' last pair
        assert img[200, 300].tolist() == [255, 0, 0]

    def test_more_than_256_frames(self):
        # One keypoint walks along row 240 two pixels a frame, so each pair
        # paints pixels of its own; pair numbers run past 255.
        frames = 300
        u = 20.0 + 2.0 * np.arange(frames)
        positions = np.zeros((frames, 1, 3))
        positions[:, 0, 0] = (u - INTR.cx) / INTR.fx
        positions[:, 0, 2] = 1.0
        img = assert_renders_like_reference(ActionableFlow(positions))
        assert img[240, 618].tolist() == [255, 0, 0]      # the last pair is pure red
        assert img[240, 20].tolist() == [0, 0, 255]       # the first pure blue

    @pytest.mark.parametrize("seed", range(4))
    def test_every_candidate_distill_draws(self, seed, tmp_path):
        # The images `nvflow run --candidates 8` writes: the flow distilled
        # from the bundle as stored, and its noise ladder at seed * 1000 + k.
        config = SceneConfig.rigid_demo(noise=DEFAULT_SENSOR_NOISE)
        bundle = generate_scene(config, seed).write(tmp_path / "scene")
        scale = calibrate_depth(bundle.depth, bundle.depth_ref)
        tracks = TrackSet(bundle.tracks.positions * scale, bundle.tracks.visible)
        clean = distill_flow(tracks, bundle.mask, config.intrinsics)
        assert_renders_like_reference(clean, config.intrinsics, candidate_id=0)
        for k, sigma in enumerate(_candidate_sigmas(8), start=1):
            noisy = corrupt_flow(clean, sigma=sigma, seed=seed * 1000 + k)
            assert_renders_like_reference(noisy, config.intrinsics, candidate_id=k)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_endpoint_raises(self):
        positions = np.tile([0.01, 0.0, 1.0], (3, 2, 1))
        positions[1, 1, 2] = 1e-310       # projects to inf
        flow = ActionableFlow(positions)
        with pytest.raises(OverflowError):
            reference_render(flow, INTR)
        with pytest.raises(ValueError, match="endpoint"):
            render_flow_image(flow, INTR)


class TestContainers:
    def test_flow_needs_two_frames(self):
        with pytest.raises(ValueError):
            ActionableFlow(np.zeros((1, 3, 3)))

    def test_flow_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ActionableFlow(np.full((2, 3, 3), np.inf))

    def test_trackset_allows_nan_on_invisible_samples(self):
        positions = np.zeros((2, 1, 3))
        positions[1, 0] = np.nan
        visible = np.array([[True], [False]])
        tracks = TrackSet(positions, visible)
        assert tracks.frames == 2

    def test_trackset_rejects_nan_on_visible_samples(self):
        positions = np.zeros((2, 1, 3))
        positions[1, 0] = np.nan
        with pytest.raises(ValueError):
            TrackSet(positions, np.ones((2, 1), dtype=bool))

    def test_positions_are_frozen(self):
        flow = smooth_flow()
        with pytest.raises(ValueError):
            flow.positions[0, 0, 0] = 1.0
