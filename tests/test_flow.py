"""Tests for depth calibration, flow distillation, scoring, and rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvflow.flow import (
    ActionableFlow,
    DepthCalibrationError,
    FlowCandidate,
    GroundingError,
    MaskSequence,
    TrackSet,
    calibrate_depth,
    distill_flow,
    render_flow_image,
    score_flow,
    select_candidate,
)
from nvflow.geometry import CameraIntrinsics, DepthMap

INTR = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)


def sorted_median(values) -> float:
    """Brute-force median oracle: sort and take the middle element(s)."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n % 2 == 1:
        return ordered[n // 2]
    return 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])


class TestCalibrateDepth:
    def test_constant_maps(self):
        est = [DepthMap(np.full((4, 4), 2.0))]
        ref = DepthMap(np.full((4, 4), 1.0))
        calibrated, scale = calibrate_depth(est, ref)
        assert scale == 0.5
        assert np.array_equal(calibrated[0].values, np.full((4, 4), 1.0))

    def test_identity_when_estimate_matches_reference(self, rng):
        values = rng.uniform(0.5, 3.0, size=(8, 8))
        est = [DepthMap(values), DepthMap(values * 1.1)]
        calibrated, scale = calibrate_depth(est, DepthMap(values))
        assert scale == 1.0
        assert np.array_equal(calibrated[0].values, values)

    def test_outlier_robust_hand_computed_medians(self):
        est = [DepthMap(np.array([[1.0, 2.0, 3.0, 4.0, 100.0]]))]
        ref = DepthMap(np.array([[2.0, 4.0, 6.0, 0.0, 0.0]]))
        calibrated, scale = calibrate_depth(est, ref)
        med_est = sorted_median([1.0, 2.0, 3.0, 4.0, 100.0])
        med_ref = sorted_median([2.0, 4.0, 6.0])
        assert med_est == 3.0 and med_ref == 4.0
        assert np.isclose(scale, 4.0 / 3.0, rtol=1e-12)
        out = calibrated[0]
        assert abs(sorted_median(out.values[out.valid]) - med_ref) < 1e-9 * med_ref

    def test_scale_applies_to_every_frame(self, rng):
        frames = [DepthMap(rng.uniform(0.5, 2.0, size=(5, 5))) for _ in range(3)]
        ref = DepthMap(np.full((5, 5), 4.0))
        calibrated, scale = calibrate_depth(frames, ref)
        for before, after in zip(frames, calibrated):
            assert np.allclose(after.values, before.values * scale)

    def test_scale_invariant_to_added_invalid_pixels(self):
        est_small = [DepthMap(np.array([[1.0, 2.0, 3.0]]))]
        ref_small = DepthMap(np.array([[2.0, 2.0, 2.0]]))
        _, scale_small = calibrate_depth(est_small, ref_small)
        est_big = [DepthMap(np.array([[1.0, 2.0, 3.0, 0.0, 0.0]]))]
        ref_big = DepthMap(np.array([[2.0, 2.0, 2.0, 0.0, 0.0]]))
        _, scale_big = calibrate_depth(est_big, ref_big)
        assert scale_small == scale_big

    def test_empty_sequence_raises(self):
        with pytest.raises(DepthCalibrationError, match="empty depth"):
            calibrate_depth([], DepthMap(np.ones((2, 2))))

    def test_all_invalid_estimate_raises(self):
        with pytest.raises(DepthCalibrationError, match="empty depth"):
            calibrate_depth([DepthMap(np.zeros((2, 2)))], DepthMap(np.ones((2, 2))))

    def test_all_invalid_reference_raises(self):
        with pytest.raises(DepthCalibrationError, match="empty depth"):
            calibrate_depth([DepthMap(np.ones((2, 2)))], DepthMap(np.zeros((2, 2))))

    def test_shape_mismatch_raises(self):
        with pytest.raises(DepthCalibrationError, match="differ"):
            calibrate_depth([DepthMap(np.ones((2, 2)))], DepthMap(np.ones((3, 3))))

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
        calibrated, scale = calibrate_depth([DepthMap(est_values)], DepthMap(ref_values))
        out = calibrated[0]
        med_out = sorted_median(out.values[out.valid])
        med_ref = sorted_median(ref_values[ref_values > 0.0])
        assert abs(med_out - med_ref) <= 1e-9 * med_ref
        assert scale == pytest.approx(
            med_ref / sorted_median(est_values[est_values > 0.0]), rel=1e-12)


def make_mask(center_uv=(320, 240), half=60, frames=3):
    masks = np.zeros((frames, 480, 640), dtype=bool)
    u, v = center_uv
    masks[:, v - half:v + half, u - half:u + half] = True
    return MaskSequence(masks)


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
        flow = distill_flow(tracks, make_mask(frames=frames), INTR, label="box")
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
        flow = distill_flow(tracks, make_mask(frames=frames), INTR)
        assert flow.keypoints == n_obj
        assert np.allclose(flow.positions[0], obj)

    def test_behind_camera_tracks_are_dropped(self):
        positions = np.zeros((2, 2, 3))
        positions[:, 0] = [0.0, 0.0, 1.0]
        positions[:, 1] = [0.0, 0.0, -1.0]
        tracks = TrackSet(positions, np.ones((2, 2), dtype=bool))
        flow = distill_flow(tracks, make_mask(frames=2), INTR)
        assert flow.keypoints == 1

    def test_nothing_grounded_raises(self):
        positions = np.full((2, 2, 3), [0.3, 0.3, 1.0])
        tracks = TrackSet(positions, np.ones((2, 2), dtype=bool))
        with pytest.raises(GroundingError, match="not grounded"):
            distill_flow(tracks, make_mask(frames=2), INTR)

    def test_frame_count_mismatch_raises(self):
        positions = np.zeros((2, 1, 3))
        positions[..., 2] = 1.0
        tracks = TrackSet(positions, np.ones((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="frames"):
            distill_flow(tracks, make_mask(frames=3), INTR)


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

    def test_background_is_preserved_outside_strokes(self, rng):
        background = np.full((480, 640, 3), 9, dtype=np.uint8)
        img = render_flow_image(smooth_flow(), INTR, background=background)
        assert img[0, 0, 0] == 9
        assert (img != 9).any()

    def test_background_shape_validated(self):
        with pytest.raises(ValueError, match="background"):
            render_flow_image(smooth_flow(), INTR,
                              background=np.zeros((10, 10, 3), dtype=np.uint8))


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
