"""Actionable object flow: depth calibration, distillation, scoring, rendering.

The flow pipeline turns dense 3-d point tracks into an "actionable flow": the
subset of tracked keypoints that belong to the manipulated object and stay
visible for the whole clip.  Candidate flows are scored with cheap motion
heuristics (a stand-in for a learned verifier) and the best one is selected
for planning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, DepthMap, _frozen, project

__all__ = [
    "TrackSet",
    "MaskSequence",
    "ActionableFlow",
    "FlowCandidate",
    "DepthCalibrationError",
    "GroundingError",
    "calibrate_depth",
    "distill_flow",
    "score_flow",
    "select_candidate",
    "render_flow_image",
]

class DepthCalibrationError(ValueError):
    pass


class GroundingError(RuntimeError):
    """No tracked point satisfied the object-membership tests."""


@dataclass(frozen=True)
class TrackSet:
    """Dense 3-d point tracks in the camera frame.

    ``positions`` is (T, M, 3) meters; ``visible`` is (T, M) and marks the
    frames in which each track was actually observed.  Positions of invisible
    samples are carried along but never trusted.
    """

    positions: np.ndarray
    visible: np.ndarray

    def __post_init__(self) -> None:
        pos = _frozen(self.positions)
        vis = _frozen(self.visible, dtype=bool)
        if pos.ndim != 3 or pos.shape[2] != 3:
            raise ValueError(f"track positions must be (T, M, 3), got {pos.shape}")
        if vis.shape != pos.shape[:2]:
            raise ValueError(f"visibility shape {vis.shape} does not match tracks {pos.shape[:2]}")
        if pos.shape[0] < 2:
            raise ValueError("a track set needs at least two frames")
        if pos.shape[1] < 1:
            raise ValueError("a track set needs at least one track")
        if not np.isfinite(pos[vis]).all():
            raise ValueError("visible track positions must be finite")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "visible", vis)

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def count(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class MaskSequence:
    """Per-frame boolean object masks, (T, H, W)."""

    masks: np.ndarray

    def __post_init__(self) -> None:
        m = _frozen(self.masks, dtype=bool)
        if m.ndim != 3 or m.shape[0] < 1:
            raise ValueError(f"masks must be (T, H, W), got {m.shape}")
        object.__setattr__(self, "masks", m)

    @property
    def frames(self) -> int:
        return self.masks.shape[0]

    @property
    def height(self) -> int:
        return self.masks.shape[1]

    @property
    def width(self) -> int:
        return self.masks.shape[2]


@dataclass(frozen=True)
class ActionableFlow:
    """Object keypoint trajectories: (T, K, 3) camera-frame meters, all finite."""

    positions: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        pos = _frozen(self.positions)
        if pos.ndim != 3 or pos.shape[2] != 3 or pos.shape[1] < 1:
            raise ValueError(f"flow positions must be (T, K, 3) with K >= 1, got {pos.shape}")
        if pos.shape[0] < 2:
            raise ValueError("a flow needs at least two frames")
        if not np.isfinite(pos).all():
            raise ValueError("flow positions must be finite in every frame")
        object.__setattr__(self, "positions", pos)

    @property
    def frames(self) -> int:
        return self.positions.shape[0]

    @property
    def keypoints(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True)
class FlowCandidate:
    candidate_id: int
    flow: ActionableFlow
    score: float


def calibrate_depth(estimated: list[DepthMap],
                    reference_first: DepthMap) -> tuple[list[DepthMap], float]:
    """Rescale an estimated depth sequence against a metric first frame.

    A single global scale, median(reference) / median(estimated[0]) with each
    median taken over that map's own valid pixels, is applied to every frame.
    Because a positive scale commutes with the median, the calibrated first
    frame's median matches the reference median exactly; the median ratio is
    also robust to outlier pixels, which is why it is preferred over an
    affine fit here.

    Returns:
        (scaled sequence, scale factor)

    Raises:
        DepthCalibrationError: if either map has no valid pixel ("empty
            depth") or either median is non-positive.
    """
    if len(estimated) < 1:
        raise DepthCalibrationError("empty depth sequence")
    first = estimated[0]
    if first.values.shape != reference_first.values.shape:
        raise DepthCalibrationError(
            f"estimated {first.values.shape} and reference "
            f"{reference_first.values.shape} sizes differ")
    if not first.valid.any() or not reference_first.valid.any():
        raise DepthCalibrationError("empty depth (a map has no valid pixels)")
    med_est = float(np.median(first.values[first.valid]))
    med_ref = float(np.median(reference_first.values[reference_first.valid]))
    if med_est <= 0.0 or med_ref <= 0.0:
        raise DepthCalibrationError("non-positive depth median")
    scale = med_ref / med_est
    return [d.scaled(scale) for d in estimated], scale


def _inside_mask(mask: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Nearest-pixel containment; points projecting off-image are outside."""
    height, width = mask.shape
    ix = np.round(uv[:, 0]).astype(int)
    iy = np.round(uv[:, 1]).astype(int)
    ok = (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
    out = np.zeros(len(uv), dtype=bool)
    out[ok] = mask[iy[ok], ix[ok]]
    return out


def distill_flow(tracks: TrackSet, masks: MaskSequence, intrinsics: CameraIntrinsics,
                 label: str = "") -> ActionableFlow:
    """Keep tracks that start on the object and stay visible throughout.

    A track is kept when (a) its first-frame projection lands inside the
    first-frame object mask and (b) it is visible in every frame.  Later-frame
    masks are not consulted, because they are usually noisier.

    Raises:
        GroundingError: if no track survives ("object not grounded").
    """
    if masks.frames != tracks.frames:
        raise ValueError(f"track frames ({tracks.frames}) and mask frames "
                         f"({masks.frames}) differ")
    keep = tracks.visible.all(axis=0)

    pos0 = tracks.positions[0]
    front = pos0[:, 2] > 0.0
    uv0 = np.zeros((tracks.count, 2))
    if front.any():
        uv0[front] = project(intrinsics, pos0[front])
    keep &= front & _inside_mask(masks.masks[0], uv0)

    if not keep.any():
        raise GroundingError("object not grounded (no track passed the mask "
                             "and visibility tests)")
    return ActionableFlow(tracks.positions[:, keep, :], label=label)


# Heuristic flow-scorer weights (all terms are penalties) and thresholds.
_W_JUMP = 1.0
_W_SPREAD = 1.0
_W_TELEPORT = 10.0
_JUMP_CAP = 0.15           # meters per frame
_COMPACT_THRESHOLD = 0.5   # fraction of the image area


def score_flow(flow: ActionableFlow, intrinsics: CameraIntrinsics) -> float:
    """Heuristic plausibility score; higher is better, 0 is a perfect score.

    Three penalties, each a mean or an extent (never a raw sum) so that
    duplicating keypoints leaves the score unchanged:

    * jump: mean squared per-step displacement beyond 0.15 m per frame,
    * spread: first-frame projected bounding-box area as a fraction of the
      image, hinged above one half,
    * teleport: fraction of per-step displacements exceeding 0.15 m.

    The score is minus the weighted sum jump + spread + 10 * teleport.
    """
    steps = np.linalg.norm(np.diff(flow.positions, axis=0), axis=2)  # (T-1, K)
    excess = np.maximum(steps - _JUMP_CAP, 0.0)
    jump_term = float(np.mean(excess ** 2))
    teleport_term = float(np.mean(steps > _JUMP_CAP))

    pos0 = flow.positions[0]
    front = pos0[:, 2] > 0.0
    spread_term = 0.0
    if front.any():
        uv = project(intrinsics, pos0[front])
        extent = uv.max(axis=0) - uv.min(axis=0)
        area_fraction = (extent[0] * extent[1]) / (intrinsics.width * intrinsics.height)
        spread_term = max(0.0, float(area_fraction) - _COMPACT_THRESHOLD)

    return -(_W_JUMP * jump_term + _W_SPREAD * spread_term + _W_TELEPORT * teleport_term)


def select_candidate(candidates: list[FlowCandidate]) -> int:
    """Index of the highest-scoring candidate; ties go to the lowest id."""
    if not candidates:
        raise ValueError("no candidates to select from")
    best = min(range(len(candidates)),
               key=lambda i: (-candidates[i].score, candidates[i].candidate_id))
    return best


# -- rendering ----------------------------------------------------------------

# 3x5 digit glyphs for stamping candidate ids, row-major bit strings.
_DIGITS = {
    "0": "111101101101111", "1": "010110010010111", "2": "111001111100111",
    "3": "111001111001111", "4": "101101111001001", "5": "111100111001111",
    "6": "111100111101111", "7": "111001001001001", "8": "111101111101111",
    "9": "111101111001111",
}


def _segment_pixels(a: np.ndarray, b: np.ndarray, width: int, height: int) -> np.ndarray:
    """Flat indices ``row * width + col`` of the on-image pixels sampled along
    the straight segments ``a[j] -> b[j]`` ((S, 2), in pixels).

    Segment j is sampled at ``n = int(max(|du|, |dv|)) * 2 + 1`` points,
    ``start + i * step`` with ``step = (stop - start) / (n - 1)`` and the last
    sample set to ``stop``: the arithmetic of ``np.linspace(start, stop, n)``.
    Samples are rounded to the nearest pixel.
    """
    delta = b - a
    span = np.abs(delta).max(axis=1)
    # Also false for nan/inf.  Below 2**52 every sample index is exact in
    # float64; beyond it np.linspace could not allocate the samples either.
    if not np.all(span < 2.0 ** 52):
        raise ValueError("cannot rasterize a flow segment with a non-finite or "
                         "out-of-range endpoint")
    n = span.astype(np.int64) * 2 + 1
    step = delta / np.maximum(n - 1, 1)[:, None]
    ends = np.cumsum(n)
    i = np.arange(n.sum(), dtype=float) - np.repeat(ends - n, n)
    tail = n > 1
    coords = []
    for axis in (0, 1):
        y = np.repeat(step[:, axis], n)
        y *= i
        y += np.repeat(a[:, axis], n)
        y[ends[tail] - 1] = b[tail, axis]
        coords.append(np.round(y, out=y))
    u, v = coords
    ok = (u >= 0) & (u < width) & (v >= 0) & (v < height)
    return (v * width + u)[ok].astype(np.intp)


def _stamp_digits(img: np.ndarray, text: str, origin: tuple[int, int], scale: int = 3) -> None:
    x0, y0 = origin
    for ch in text:
        glyph = _DIGITS.get(ch)
        if glyph is None:
            continue
        for row in range(5):
            for col in range(3):
                if glyph[row * 3 + col] == "1":
                    img[y0 + row * scale:y0 + (row + 1) * scale,
                        x0 + col * scale:x0 + (col + 1) * scale] = 255
        x0 += 4 * scale


def render_flow_image(flow: ActionableFlow, intrinsics: CameraIntrinsics,
                      background: np.ndarray | None = None,
                      candidate_id: int | None = None) -> np.ndarray:
    """Rasterize keypoint trajectories over a background image.

    Each keypoint leaves a polyline colored from blue (first frame) to red
    (last); a stationary flow degenerates to single dots.  Only segments with
    both endpoints in front of the camera are drawn.  Paint order: frame
    pairs are drawn in frame order, each in one pass and one color, and a
    later pair overwrites the pixels of earlier ones.  When given,
    ``candidate_id`` is stamped in the top-left corner so a downstream
    verifier can tell candidates apart.  Returns (H, W, 3) uint8.
    """
    if background is None:
        img = np.zeros((intrinsics.height, intrinsics.width, 3), dtype=np.uint8)
    else:
        img = np.asarray(background)
        if img.shape != (intrinsics.height, intrinsics.width, 3) or img.dtype != np.uint8:
            raise ValueError(f"background must be ({intrinsics.height}, "
                             f"{intrinsics.width}, 3) uint8, got {img.shape} {img.dtype}")
        img = img.copy()

    frames = flow.frames
    pos = flow.positions
    front = pos[:, :, 2] > 0.0
    uv = np.zeros((frames, flow.keypoints, 2))
    if front.any():
        uv[front] = project(intrinsics, pos[front])

    pixels = img.reshape(-1, 3)
    for t in range(frames - 1):
        frac = t / max(frames - 2, 1)
        color = np.array([round(255 * frac), 0, round(255 * (1.0 - frac))], dtype=np.uint8)
        key = front[t] & front[t + 1]
        pixels[_segment_pixels(uv[t, key], uv[t + 1, key],
                               intrinsics.width, intrinsics.height)] = color
    if candidate_id is not None:
        _stamp_digits(img, str(int(candidate_id)), origin=(4, 4))
    return img
