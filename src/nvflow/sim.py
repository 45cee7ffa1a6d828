"""Synthetic tabletop scenes with exact ground truth.

Scenes are rendered from a fixed overhead camera looking down at a table
(world z up, table at z = 0).  A rigid scene moves a box through
screw-interpolated waypoints; a rope scene deforms a constant-length
circular-arc centerline through scripted bend/turn keyframes.  Each scene
yields the observations the planning pipeline consumes (3-d tracks, the
first-frame object mask and depth map, a metric first-frame reference depth)
plus the ground truth to grade it against (keypoint flow, relative object
poses, rope dynamics).

All randomness is drawn from one generator seeded per scene, so a given
config-and-seed pair reproduces byte-identical bundles.  On disk a bundle
keeps the tracks as binary ``tracks.npy`` and ``visible.npy`` arrays, the
images as PGM, the flow as ``.nvfl`` and everything else as JSON (formats
in ``fileio``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .deformable import (
    Correspondence,
    MassSpringModel,
    ParticleState,
    chamfer_cost,
    flow_cost,
)
from .fileio import (
    depth_from_pgm,
    depth_to_pgm,
    mask_from_pgm,
    mask_to_pgm,
    read_flow,
    read_json,
    read_named,
    sha256_file,
    write_flow,
    write_json,
)
from .flow import ActionableFlow, TrackSet
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    SE3Pose,
    _bool,
    _doc_fields,
    _doc_list,
    _float,
    _floats,
    _frozen,
    _int,
    _store_millimeters,
    _str,
    project,
    rotation_from_axis_angle,
    rotation_geodesic_angle,
    se3_exp,
    se3_log,
)
from .rigid import ObjectPoseTrajectory

__all__ = [
    "CAMERA_IN_WORLD",
    "ObjectSpec",
    "Waypoint",
    "RopeSpec",
    "NoiseConfig",
    "SceneConfig",
    "SceneBundle",
    "Metrics",
    "generate_scene",
    "corrupt_flow",
    "evaluate_rigid",
    "evaluate_deformable",
]

# Default overhead camera: x aligned with world x, looking straight down.
CAMERA_IN_WORLD = SE3Pose(
    rotation=np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]),
    translation=np.array([0.45, 0.0, 0.9]),
)


# -- configuration ---------------------------------------------------------------

def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass(frozen=True)
class ObjectSpec:
    """A box of (x, y, z) extents ``size``, with keypoints sampled uniformly
    over its surface.  ``shape`` is always "box", as scene configs write it."""

    shape: str = "box"
    size: tuple[float, ...] = (0.08, 0.06, 0.05)
    surface_samples: int = 40
    label: str = "box"

    def __post_init__(self) -> None:
        if self.shape != "box":
            raise ValueError(f"unknown object shape {self.shape!r}: the one shape is 'box'")
        size = tuple(float(s) for s in self.size)
        if len(size) != 3 or not _finite(*size) or any(s <= 0.0 for s in size):
            raise ValueError("a box needs 3 positive finite dimensions")
        if self.surface_samples < 4:
            raise ValueError("need at least four surface samples for pose estimation")
        object.__setattr__(self, "size", size)


@dataclass(frozen=True)
class Waypoint:
    """Object pose keyframe: normalized time, world position, yaw about z."""

    time: float
    position: tuple[float, float, float]
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.time <= 1.0:
            raise ValueError("waypoint time must be in [0, 1]")
        position = tuple(float(x) for x in self.position)
        if len(position) != 3:
            raise ValueError("waypoint position must be (x, y, z)")
        if not _finite(*position, self.yaw):
            raise ValueError("waypoint position and yaw must be finite")
        object.__setattr__(self, "position", position)

    def pose(self) -> SE3Pose:
        rot = rotation_from_axis_angle(np.array([0.0, 0.0, self.yaw]))
        return SE3Pose(rot, np.asarray(self.position, dtype=float))


@dataclass(frozen=True)
class RopeSpec:
    """A planar rope whose centerline is a constant-length circular arc.

    The script keyframes ``(time, bend, turn, dx, dy)`` deform the arc:
    ``bend`` is the total subtended angle (0 = straight, pi = semicircle),
    ``turn`` rotates the arc in the table plane, and ``dx, dy`` slide the
    whole shape relative to ``center``.
    ``pinned`` clamps the far endpoint in place, modelling a fixture (the
    slide is then absorbed by the anchoring); the gripper always holds
    particle 0.
    """

    length: float = 0.3
    particles: int = 20
    flow_keypoints: int = 20
    center: tuple[float, float] = (0.45, 0.0)
    height: float = 0.02
    pinned: bool = True
    script: tuple[tuple[float, ...], ...] = ((0.0, math.pi, 0.0, 0.0, 0.0),
                                             (1.0, 0.0, 0.0, 0.0, 0.0))

    def __post_init__(self) -> None:
        center = tuple(float(c) for c in self.center)
        if len(center) != 2:
            raise ValueError("rope center must be (x, y)")
        if not _finite(self.length, self.height, *center):
            raise ValueError("rope length, height and center must be finite")
        if self.length <= 0.0 or self.height < 0.0:
            raise ValueError("rope length must be positive and height non-negative")
        if self.particles < 4:
            raise ValueError("need at least four rope particles")
        if not 2 <= self.flow_keypoints <= self.particles:
            raise ValueError("flow keypoints must be in [2, particles]")
        script = tuple(tuple(float(x) for x in key) for key in self.script)
        if any(len(key) != 5 for key in script):
            raise ValueError("script keyframes must be (time, bend, turn, dx, dy)")
        if not _finite(*(x for key in script for x in key)):
            raise ValueError("script keyframes must be finite")
        if len(script) < 2 or script[0][0] != 0.0 or script[-1][0] != 1.0:
            raise ValueError("script must start at time 0 and end at time 1")
        times = [k[0] for k in script]
        if any(t1 <= t0 for t0, t1 in zip(times[:-1], times[1:])):
            raise ValueError("script keyframe times must increase strictly")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "script", script)


@dataclass(frozen=True)
class NoiseConfig:
    """Observation noise; all defaults are zero (a perfect sensor)."""

    track_sigma: float = 0.0      # m, isotropic jitter on 3-d track positions
    depth_sigma: float = 0.0      # relative per-pixel depth jitter
    dropout_prob: float = 0.0     # per-(frame, track) invisibility probability
    depth_scale: float = 1.0      # sensor depth miscalibration factor

    def __post_init__(self) -> None:
        if not _finite(self.track_sigma, self.depth_sigma, self.dropout_prob,
                       self.depth_scale):
            raise ValueError("noise values must be finite")
        if self.track_sigma < 0.0 or self.depth_sigma < 0.0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        if self.depth_scale <= 0.0:
            raise ValueError("depth scale must be positive")


@dataclass(frozen=True, eq=False)
class SceneConfig:
    scene: str = "rigid"          # "rigid" or "rope"
    seed: int = 0
    frames: int = 21
    width: int = 640
    height: int = 480
    focal: float = 600.0
    camera: SE3Pose = field(default_factory=lambda: CAMERA_IN_WORLD)
    object: ObjectSpec = field(default_factory=ObjectSpec)
    waypoints: tuple[Waypoint, ...] = ()
    rope: RopeSpec = field(default_factory=RopeSpec)
    distractor_points: int = 300
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self) -> None:
        if self.scene not in ("rigid", "rope"):
            raise ValueError(f"unknown scene kind {self.scene!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.frames < 2:
            raise ValueError("a scene needs at least two frames")
        if (not _finite(self.focal) or self.focal <= 0.0
                or self.width < 16 or self.height < 16):
            raise ValueError("image geometry is degenerate")
        if self.distractor_points < 0:
            raise ValueError("distractor count must be non-negative")
        if self.scene == "rigid":
            wps = tuple(self.waypoints)
            if not wps:
                raise ValueError("a rigid scene needs a motion_script")
            times = [w.time for w in wps]
            if len(wps) < 2 or times[0] != 0.0 or times[-1] != 1.0:
                raise ValueError("waypoints must start at time 0 and end at time 1")
            if any(t1 <= t0 for t0, t1 in zip(times[:-1], times[1:])):
                raise ValueError("waypoint times must increase strictly")
            object.__setattr__(self, "waypoints", wps)

    @property
    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(fx=self.focal, fy=self.focal,
                                cx=self.width / 2.0, cy=self.height / 2.0,
                                width=self.width, height=self.height)

    def to_doc(self) -> dict:
        doc = {
            "scene": self.scene,
            "seed": self.seed,
            "frames": self.frames,
            "image": {"width": self.width, "height": self.height, "focal": self.focal},
            "camera": self.camera.to_doc(),
            "distractor_points": self.distractor_points,
            "noise": asdict(self.noise),
        }
        if self.scene == "rigid":
            doc["object"] = asdict(self.object)
            doc["motion_script"] = [asdict(w) for w in self.waypoints]
        else:
            doc["rope"] = asdict(self.rope)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "SceneConfig":
        """Inverse of ``to_doc``; a left-out key takes the default its type declares."""
        def numbers(values) -> tuple:
            return tuple(_floats(values).tolist())

        kwargs = _doc_fields(doc, {
            "scene": _str, "seed": _int, "frames": _int, "distractor_points": _int,
            "camera": SE3Pose.from_doc,
            "noise": lambda noise: NoiseConfig(**_doc_fields(noise, dict.fromkeys(
                ("track_sigma", "depth_sigma", "dropout_prob", "depth_scale"), _float))),
            "object": lambda obj: ObjectSpec(**_doc_fields(obj, {
                "shape": _str, "size": numbers, "surface_samples": _int, "label": _str})),
            "motion_script": lambda script: tuple(
                Waypoint(**_doc_fields(w, {"time": _float, "position": numbers,
                                           "yaw": _float}))
                for w in _doc_list(script)),
            "rope": lambda rope: RopeSpec(**_doc_fields(rope, {
                "length": _float, "particles": _int, "flow_keypoints": _int,
                "center": numbers, "height": _float, "pinned": _bool,
                "script": lambda keys: tuple(numbers(key) for key in _doc_list(keys))})),
        }, extra=("image",))
        if "motion_script" in kwargs:
            kwargs["waypoints"] = kwargs.pop("motion_script")
        if "image" in doc:
            kwargs.update(_doc_fields(doc["image"], {"width": _int, "height": _int,
                                                     "focal": _float}))
        return cls(**kwargs)

    def save(self, path) -> None:
        write_json(path, self.to_doc())


# -- camera and rasterization ----------------------------------------------------

_GROUND_ROWS = 32      # image rows per block of rays in _ground_depth


def _ground_depth(intrinsics: CameraIntrinsics, extrinsic: SE3Pose):
    """Per-pixel camera-frame depth of the table, the world plane z = 0.

    Yields the map top to bottom in blocks of ``_GROUND_ROWS`` rows, each a
    fresh (rows, W) float array, so no full-frame map is made.
    ``extrinsic`` maps world to camera coordinates.  Pixels whose rays miss
    the plane (or hit it behind the camera) are 0, i.e. invalid.  The rays
    ((u - cx) / fx, (v - cy) / fy, 1) are built and dotted with the plane
    normal a block at a time, not as one (H, W, 3) array.  The bits are
    the same: numpy's matmul of a stack of (W, 3) rows with a (3,) vector
    makes one BLAS gemv call per image row either way, on the same row of
    rays, so no sum is accumulated in another order.
    """
    normal = extrinsic.rotation @ np.array([0.0, 0.0, 1.0])
    on_plane = extrinsic.apply(np.zeros(3))
    offset = float(normal @ on_plane)
    height, width = intrinsics.height, intrinsics.width
    ys = (np.arange(height) - intrinsics.cy) / intrinsics.fy
    block = np.empty((min(height, _GROUND_ROWS), width, 3))
    block[..., 0] = (np.arange(width) - intrinsics.cx) / intrinsics.fx
    block[..., 2] = 1.0
    for start in range(0, height, _GROUND_ROWS):
        rows = block[:min(_GROUND_ROWS, height - start)]
        rows[..., 1] = ys[start:start + len(rows), None]
        denom = rows @ normal
        out = np.zeros((len(rows), width))
        np.divide(offset, denom, out=out, where=np.abs(denom) > 1e-9)
        np.copyto(out, 0.0, where=out < 0.0)
        yield out


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """``pts`` without the points strictly inside the polygon of its extremes.

    The polygon joins, counterclockwise, the points extreme along x, x + y,
    y, y - x and their opposites, with repeats removed (a zero-length edge
    would keep every point).  Each extreme is the first point that attains
    it.  A point inside it by more than 1e-6 on every edge is no hull
    vertex.  Order is kept.
    """
    x, y = pts[:, 0], pts[:, 1]
    extremes = np.stack((x, x + y, y, y - x))
    ring = np.concatenate((extremes.argmax(axis=1), extremes.argmin(axis=1)))
    ring = ring[ring != ring[_RING_BEFORE]]
    if len(ring) < 3:
        return pts
    a = pts[ring][:, :, None]
    b = pts[np.concatenate((ring[1:], ring[:1]))][:, :, None]
    side = (b[:, 0] - a[:, 0]) * (y - a[:, 1]) - (b[:, 1] - a[:, 1]) * (x - a[:, 0])
    return pts[~(side > 1e-6).all(axis=0)]


_RING_BEFORE = np.arange(-1, 7)     # each of the 8 extremes' predecessor in the ring


def _half_hull(points) -> list:
    """One half of the monotone chain: the points kept, in order, while each
    new point turns strictly left of the last two kept."""
    out: list = []
    for p in points:
        px, py = p
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if not (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0.0:
                break
            out.pop()
        out.append(p)
    return out


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull of 2-d points; collinear inputs collapse.

    The points are rounded to 1e-6, sorted by (x, y) and made distinct;
    :func:`_drop_interior` then thins them before the chain.  The vertices
    run counterclockwise, the lower hull left to right and then the upper
    hull right to left, so the hull's signed area is never negative.
    """
    pts = np.round(np.asarray(points, dtype=float).reshape(-1, 2), 6)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    if len(pts) <= 2:
        return pts
    pts = _drop_interior(pts).tolist()
    return np.asarray(_half_hull(pts)[:-1] + _half_hull(reversed(pts))[:-1], dtype=float)


def _render_mask(intrinsics: CameraIntrinsics, pixels: np.ndarray,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Filled convex hull of each frame's in-image projections plus a 3x3
    stamp per point, ORed into ``mask`` if given, else drawn on a new (H, W)
    image; ``pixels`` is one frame's (K, 2) or a stack of frames (T, K, 2).

    A pixel is inside a hull when it lies left of every edge (the hull is
    counterclockwise), by the test (b_x - a_x)(v - a_y) - (b_y - a_y)(u - a_x)
    >= -1e-9 on edge a -> b.  Each edge's row and column factors are formed
    for all edges at once and then subtracted and compared over the hull's
    box one edge at a time, so each pixel goes through the same float
    operations as when each edge formed its own.  The stamps of all frames
    are drawn together after the hulls, three assignments of one row offset
    each; since OR does not depend on order, that sets the same pixels as
    drawing each frame's hull and stamps in turn.
    """
    height, width = intrinsics.height, intrinsics.width
    if mask is None:
        mask = np.zeros((height, width), dtype=bool)
    for frame in pixels.reshape((-1,) + pixels.shape[-2:]):
        hull = _convex_hull(frame)
        if len(hull) < 3:
            continue
        (left, top), (right, bottom) = hull.min(axis=0), hull.max(axis=0)
        x0, x1 = max(math.floor(left), 0), min(math.ceil(right), width - 1)
        y0, y1 = max(math.floor(top), 0), min(math.ceil(bottom), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        a, b = hull, np.concatenate((hull[1:], hull[:1]))
        rows = (b[:, :1] - a[:, :1]) * (np.arange(y0, y1 + 1) - a[:, 1:])    # (edges, h)
        cols = (b[:, 1:] - a[:, 1:]) * (np.arange(x0, x1 + 1) - a[:, :1])    # (edges, w)
        inside = rows[0, :, None] - cols[0] >= -1e-9
        for row, col in zip(rows[1:, :, None], cols[1:]):
            inside &= row - col >= -1e-9
        mask[y0:y1 + 1, x0:x1 + 1] |= inside
    u, v = np.round(pixels.reshape(-1, 2)).astype(int).T
    step = np.arange(-1, 2)[:, None]
    stamp_cols = np.clip(u + step, 0, width - 1)         # (3, points)
    for stamp_row in np.clip(v + step, 0, height - 1):
        mask[stamp_row, stamp_cols] = True
    return mask


_NEAR_CHUNK = 1 << 15   # (candidate, keypoint) distances per block in _place_distractors


def _place_distractors(config: SceneConfig, rng: np.random.Generator,
                       object_pixels: np.ndarray, union: np.ndarray) -> np.ndarray:
    """World ground points whose projections stay clear of the object.

    A candidate is rejected when the 5x5 window around its rounded projection
    touches ``union``, the OR of every frame's object mask, or when it lies
    within 4 px of any object keypoint projection in any frame, which keeps
    object and distractor tracks apart.  Each round draws one
    (x, y) pair per point still missing and accepts the passing pairs in draw
    order, so the stream is consumed as by testing one pair at a time.  A
    point that meets 500 rejections in a row is an error.  The keypoint test
    runs on blocks of whole candidates, each candidate's minimum its own, in
    two buffers that every block of a round reuses.  Worked in place there,
    each distance still goes through the same float operations, du * du +
    dv * dv and its square root, so the bits are those of fresh arrays.
    """
    intr = config.intrinsics
    cx, cy = float(config.camera.translation[0]), float(config.camera.translation[1])
    low, high = np.array([cx - 0.4, cy - 0.3]), np.array([cx + 0.4, cy + 0.3])
    flat = object_pixels.reshape(-1, 2)
    near_low, near_high = flat.min(axis=0) - 5.0, flat.max(axis=0) + 5.0
    # The 5x5 dilation of union, worked out on union's bounding box grown by
    # 2 px: every pixel whose window meets union lies in it, and the zeros
    # padded around it stand for pixels that are not in union.
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
        # One point per matmul row, the product a single (3,) point gets.
        cam = config.camera.inverse().apply(np.insert(xy, 2, 0.0, axis=1)[:, None])[:, 0]
        ok = cam[:, 2] > 0.0
        uv = np.full(xy.shape, -1.0)
        uv[ok] = project(intr, cam[ok])
        ok &= ((4.0 <= uv[:, 0]) & (uv[:, 0] <= intr.width - 5)
               & (4.0 <= uv[:, 1]) & (uv[:, 1] <= intr.height - 5))
        iu, iv = np.rint(uv[ok]).astype(int).T
        ok[ok] = ~blocked[iv, iu]
        # Outside the keypoints' box grown by 5 px, every keypoint is > 4 px away.
        near = np.flatnonzero(ok & np.all((uv >= near_low) & (uv <= near_high), axis=1))
        step = max(1, _NEAR_CHUNK // len(flat))
        du_block, dv_block = np.empty((2, min(step, len(near)), len(flat)))
        for start in range(0, len(near), step):
            chunk = near[start:start + step]
            du, dv = du_block[:len(chunk)], dv_block[:len(chunk)]
            np.subtract(flat[:, 0], uv[chunk, :1], out=du)
            np.subtract(flat[:, 1], uv[chunk, 1:], out=dv)
            # The sum np.linalg.norm forms over a length-2 axis.
            du *= du
            dv *= dv
            du += dv
            ok[chunk] = np.sqrt(du, out=du).min(axis=1) >= 4.0
        taken = np.flatnonzero(ok)
        # Rejections in a row before each acceptance, and after the last one.
        runs = np.diff(taken, prepend=-1 - misses, append=len(xy)) - 1
        if runs.max() >= 500:
            raise ValueError("could not place distractors clear of the object")
        misses = runs[-1]
        out[filled:filled + len(taken), :2] = xy[taken]
        filled += len(taken)
    return out


def _observe_tracks(config: SceneConfig, rng: np.random.Generator,
                    true_camera: np.ndarray) -> TrackSet:
    """Apply sensor noise to true camera-frame points.

    Track jitter is isotropic 3-d Gaussian in metric units, then the whole
    cloud is multiplied by the depth miscalibration factor (the tracker's 3-d
    output inherits the depth sensor's scale error).
    """
    noise = config.noise
    frames, count = true_camera.shape[:2]
    positions = true_camera.copy()
    if noise.track_sigma > 0.0:
        positions = positions + noise.track_sigma * rng.standard_normal(positions.shape)
    positions[..., 2] = np.maximum(positions[..., 2], 1e-6)
    positions = positions * noise.depth_scale
    if noise.dropout_prob > 0.0:
        visible = rng.random((frames, count)) >= noise.dropout_prob
    else:
        visible = np.ones((frames, count), dtype=bool)
    return TrackSet(positions, visible)


def _first_object_depth(points: np.ndarray) -> float:
    """Mean camera z of the object's keypoints in frame 0, from (T, K, 3) points.

    Taken as row 0 of the per-frame means: numpy sums a row of the (T, K)
    array in another order than the 1-d slice ``points[0, :, 2]``, and for
    the rope's 20 keypoints the two means differ in the last bit.
    """
    return float(points[..., 2].mean(axis=1)[0])


def _render_depth(config: SceneConfig, rng: np.random.Generator,
                  mask: np.ndarray, object_depth: float) -> tuple[DepthMap, DepthMap]:
    """First-frame sensor depth map plus the metric first-frame reference.

    Depth noise is relative (multiplicative 1 + sigma * N); the reference map
    is the same frame, unscaled and noise-free.  The sensor reports whole
    millimeters, and both maps hold them as uint16 samples, as the bundle's
    16-bit PGMs store them, so ``SceneBundle.read`` decodes the maps
    generated here bit for bit.  Each block of rows is rendered, noised,
    scaled and rounded on its own; the noise rows come from the stream in
    order, the same values one full-frame draw takes.  Only the first frame
    is rendered, because no stage reads a later one.

    Raises:
        ValueError: a sample lies beyond the 65.535 m range of 16-bit millimeters.
    """
    noise = config.noise
    shape = (config.height, config.width)
    sensor = np.empty(shape, dtype=np.uint16)
    reference = np.empty(shape, dtype=np.uint16)
    blocks = _ground_depth(config.intrinsics, config.camera.inverse())
    for start, rows in zip(range(0, config.height, _GROUND_ROWS), blocks):
        stop = start + len(rows)
        rows[mask[start:stop]] = object_depth
        if noise.depth_sigma > 0.0:
            # rows * (1 + sigma * N), computed in place on the draws, then
            # clipped to +0.0 (-0.0 too, as a stored 0 decodes).
            seen = rng.standard_normal(rows.shape)
            seen *= noise.depth_sigma
            seen += 1.0
            seen *= rows
            np.copyto(seen, 0.0, where=seen <= 0.0)
        else:
            seen = rows.copy()
        seen *= noise.depth_scale
        _store_millimeters(seen, sensor[start:stop])
        _store_millimeters(rows, reference[start:stop])
    sensor.flags.writeable = False       # handed over to the DepthMaps, not copied
    reference.flags.writeable = False
    return DepthMap(sensor), DepthMap(reference)


def _observe(config: SceneConfig, rng: np.random.Generator, gt_points: np.ndarray) -> dict:
    """What the sensors see of true camera-frame object keypoints (T, K, 3).

    Returns the ``SceneBundle`` fields ``tracks`` (the K object tracks, then
    the distractors), ``mask``, ``depth`` and ``depth_ref``; ``rng`` draws
    distractors, then track and depth noise.  Each working array is let go
    once its last reader is done, so that the depth maps, rendered last,
    are not drawn beside the union of the object masks, the keypoints'
    projections or the noise-free tracks.
    """
    intr = config.intrinsics
    pixels = project(intr, gt_points.reshape(-1, 3)).reshape(gt_points.shape[:2] + (2,))
    if (pixels[..., 0].min() < 0.0 or pixels[..., 0].max() > intr.width - 1
            or pixels[..., 1].min() < 0.0 or pixels[..., 1].max() > intr.height - 1):
        raise ValueError("object leaves view: keypoints project outside the image")
    mask = _render_mask(intr, pixels[0])
    union = _render_mask(intr, pixels[1:], mask.copy())
    mask.flags.writeable = False      # handed over to the SceneBundle, not copied
    distractors = config.camera.inverse().apply(_place_distractors(config, rng, pixels, union))
    del union, pixels
    true_camera = np.concatenate(
        [gt_points, np.broadcast_to(distractors, (config.frames,) + distractors.shape)], axis=1)
    tracks = _observe_tracks(config, rng, true_camera)
    del true_camera
    depth, depth_ref = _render_depth(config, rng, mask, _first_object_depth(gt_points))
    return {"tracks": tracks, "mask": mask, "depth": depth, "depth_ref": depth_ref}


# -- rigid scenes -----------------------------------------------------------------

def _sample_surface_points(spec: ObjectSpec, rng: np.random.Generator) -> np.ndarray:
    """Keypoints on the box's faces, each face picked uniformly, in the object frame."""
    n = spec.surface_samples
    half = np.asarray(spec.size) / 2.0
    faces = rng.integers(0, 6, size=n)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
    for i, face in enumerate(faces):
        axis, side = divmod(int(face), 2)
        pts[i, axis] = half[axis] if side == 0 else -half[axis]
    return pts


def _waypoint_poses(waypoints: tuple[Waypoint, ...], frames: int) -> list[SE3Pose]:
    """Each frame's pose, interpolated at constant twist (a screw motion)
    between the waypoints around it, each segment's twist taken once."""
    times = np.array([w.time for w in waypoints])
    poses = [w.pose() for w in waypoints]
    twists = [se3_log(a.inverse().compose(b)) for a, b in zip(poses[:-1], poses[1:])]
    out = []
    for t in range(frames):
        frac = t / (frames - 1)
        seg = int(np.clip(np.searchsorted(times, frac, side="right") - 1, 0, len(poses) - 2))
        t0, t1 = times[seg], times[seg + 1]
        tau = 0.0 if t1 == t0 else (frac - t0) / (t1 - t0)
        out.append(poses[seg].compose(se3_exp(float(np.clip(tau, 0.0, 1.0)) * twists[seg])))
    return out


def _rigid_scene(config: SceneConfig, seed: int, rng: np.random.Generator) -> "SceneBundle":
    """A rigid-object scene with exact pose and flow ground truth."""
    extr = config.camera.inverse()

    obj_pts = _sample_surface_points(config.object, rng)
    world_poses = _waypoint_poses(config.waypoints, config.frames)
    cam_poses = [extr.compose(p) for p in world_poses]

    gt_points = np.stack([p.apply(obj_pts) for p in cam_poses])  # (T, K, 3)

    rel = [SE3Pose.identity()]
    base_inv = cam_poses[0].inverse()
    for pose in cam_poses[1:]:
        rel.append(pose.compose(base_inv))
    gt_poses = ObjectPoseTrajectory(tuple(rel))

    gt_flow = ActionableFlow(gt_points, label=config.object.label)
    return SceneBundle(config=config, seed=seed, gt_flow=gt_flow, gt_poses=gt_poses,
                       **_observe(config, rng, gt_points))


# -- rope scenes ------------------------------------------------------------------

def _arc_points(arclengths: np.ndarray, length: float, bend: float, turn: float) -> np.ndarray:
    """Planar constant-length arc sampled at normalized arclengths in [-1/2, 1/2].

    For bend angle phi the centerline is a circular arc of radius L/phi through
    the origin at s = 0; bend 0 is the straight-line limit.  ``turn`` rotates
    the curve about the origin.
    """
    s = np.asarray(arclengths, dtype=float)
    if abs(bend) < 1e-9:
        xy = np.stack([length * s, np.zeros_like(s)], axis=-1)
    else:
        radius = length / bend
        xy = np.stack([radius * np.sin(s * bend), radius * (np.cos(s * bend) - 1.0)], axis=-1)
    c, w = math.cos(turn), math.sin(turn)
    rot = np.array([[c, -w], [w, c]])
    return xy @ rot.T


def _rope_world_frames(spec: RopeSpec, frames: int) -> np.ndarray:
    """World-frame rope particle positions (T, N, 3) following the script.

    Raises:
        ValueError: "self-intersecting spline" if any frame folds the
            centerline onto itself.
    """
    s = np.linspace(-0.5, 0.5, spec.particles)
    times = np.array([k[0] for k in spec.script])
    bends = np.array([k[1] for k in spec.script])
    turns = np.array([k[2] for k in spec.script])
    shifts_x = np.array([k[3] for k in spec.script])
    shifts_y = np.array([k[4] for k in spec.script])
    center = np.array([spec.center[0], spec.center[1]])

    first = _arc_points(s, spec.length, bends[0], turns[0])
    anchor0 = first[-1] + np.array([shifts_x[0], shifts_y[0]])
    out = np.zeros((frames, spec.particles, 3))
    spacing = spec.length / (spec.particles - 1)
    idx_i, idx_j = np.triu_indices(spec.particles, k=3)
    for t in range(frames):
        frac = t / (frames - 1)
        bend = float(np.interp(frac, times, bends))
        turn = float(np.interp(frac, times, turns))
        xy = _arc_points(s, spec.length, bend, turn)
        xy = xy + np.array([np.interp(frac, times, shifts_x),
                            np.interp(frac, times, shifts_y)])
        if spec.pinned:
            xy = xy - xy[-1] + anchor0
        out[t, :, 0] = xy[:, 0] + center[0]
        out[t, :, 1] = xy[:, 1] + center[1]
        out[t, :, 2] = spec.height
        gaps = np.linalg.norm(out[t, idx_i] - out[t, idx_j], axis=1)
        if gaps.min() < 0.5 * spacing:
            raise ValueError("self-intersecting spline: rope script folds the "
                             "centerline onto itself")
    return out


def _rope_model(spec: RopeSpec) -> MassSpringModel:
    """Structural plus flexion springs along the chain, in the camera frame."""
    n = spec.particles
    spacing = spec.length / (n - 1)
    edges = [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)]
    rest = [spacing] * (n - 1) + [2.0 * spacing] * (n - 2)
    return MassSpringModel(
        n_particles=n,
        edges=np.asarray(edges, dtype=int),
        rest_lengths=np.asarray(rest, dtype=float),
        attachment=(0,),
        pinned=(n - 1,) if spec.pinned else (),
    )


def _rope_scene(config: SceneConfig, seed: int, rng: np.random.Generator) -> "SceneBundle":
    """A rope scene; ground truth includes dynamics and initial state.

    The flow, dynamics and particle states all live in the camera frame (the
    frame the planner works in), as ``MassSpringModel`` requires.
    """
    spec = config.rope
    extr = config.camera.inverse()

    world = _rope_world_frames(spec, config.frames)            # (T, N, 3)
    cam = extr.apply(world.reshape(-1, 3)).reshape(world.shape)
    kp_idx = np.round(np.linspace(0, spec.particles - 1, spec.flow_keypoints)).astype(int)
    gt_points = cam[:, kp_idx, :]                              # (T, K, 3)
    return SceneBundle(config=config, seed=seed, gt_flow=ActionableFlow(gt_points, label="rope"),
                       dynamics=_rope_model(spec), initial_state=ParticleState.at_rest(cam[0]),
                       **_observe(config, rng, gt_points))


def generate_scene(config: SceneConfig, seed: int | None = None) -> "SceneBundle":
    """Render the scene ``config`` describes, rigid or rope, with its ground truth.

    ``seed`` overrides ``config.seed`` when given.  One generator seeded with
    it draws everything: a rigid scene's surface points first, then what the
    sensors see (distractors, track noise, depth noise).

    Raises:
        ValueError: "object leaves view" if the motion exits the camera
            frustum, "self-intersecting spline" for rope scripts that fold
            the rope onto itself.
    """
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    build = _rigid_scene if config.scene == "rigid" else _rope_scene
    return build(config, seed, rng)


# -- flow corruption (candidate ladders) -------------------------------------------

def corrupt_flow(flow: ActionableFlow, sigma: float = 0.0,
                 seed: int = 0) -> ActionableFlow:
    """Degrade a flow with i.i.d. Gaussian offsets of standard deviation ``sigma``."""
    if sigma < 0.0:
        raise ValueError("sigma must be non-negative")
    rng = np.random.default_rng(seed)
    positions = flow.positions.copy()
    if sigma > 0.0:
        positions = positions + sigma * rng.standard_normal(positions.shape)
    return ActionableFlow(positions, label=flow.label)


# -- evaluation --------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Metrics:
    """Task-level grades; rigid runs fill the pose fields, rope runs the rest."""

    rotation_error_deg: np.ndarray | None = None    # per frame
    translation_error_mm: np.ndarray | None = None  # per frame
    final_chamfer_mm: float | None = None
    final_correspondence_rmse_mm: float | None = None
    success: bool = False

    def __post_init__(self) -> None:
        if self.rotation_error_deg is not None:
            object.__setattr__(self, "rotation_error_deg", _frozen(self.rotation_error_deg))
        if self.translation_error_mm is not None:
            object.__setattr__(self, "translation_error_mm", _frozen(self.translation_error_mm))

    def to_doc(self) -> dict:
        doc: dict = {"success": self.success}
        if self.rotation_error_deg is not None:
            doc["rotation_error_deg"] = [float(x) for x in self.rotation_error_deg]
            doc["translation_error_mm"] = [float(x) for x in self.translation_error_mm]
        if self.final_chamfer_mm is not None:
            doc["final_chamfer_mm"] = self.final_chamfer_mm
            doc["final_correspondence_rmse_mm"] = self.final_correspondence_rmse_mm
        return doc


# Success tolerances: a rigid plan's final-frame rotation and translation
# errors, and a rope plan's corresponded RMSE.
_ROT_TOL_DEG = 2.0
_TRANS_TOL_MM = 5.0
_RMSE_TOL_MM = 50.0


def evaluate_rigid(executed: ObjectPoseTrajectory, gt: ObjectPoseTrajectory) -> Metrics:
    """Per-frame pose errors; success iff the final frame is within
    ``_ROT_TOL_DEG`` and ``_TRANS_TOL_MM``."""
    if len(executed) != len(gt):
        raise ValueError(f"trajectory lengths differ: {len(executed)} vs {len(gt)}")
    rot = np.zeros(len(executed))
    trans = np.zeros(len(executed))
    for t, (a, b) in enumerate(zip(executed.poses, gt.poses)):
        rot[t] = math.degrees(rotation_geodesic_angle(a.rotation, b.rotation))
        trans[t] = 1000.0 * float(np.linalg.norm(a.translation - b.translation))
    return Metrics(
        rotation_error_deg=rot,
        translation_error_mm=trans,
        success=bool(rot[-1] <= _ROT_TOL_DEG and trans[-1] <= _TRANS_TOL_MM),
    )


def evaluate_deformable(final: ParticleState, flow: ActionableFlow,
                        correspondence: Correspondence) -> Metrics:
    """Grade a final particle state against the last flow frame; success iff
    the corresponded RMSE is within ``_RMSE_TOL_MM``.

    final_correspondence_rmse_mm is sqrt(flow_cost / N) * 1000; the Chamfer
    grade is reported as an RMS distance in mm (sqrt of half the symmetric
    squared cost), which never exceeds the corresponded RMSE when the
    correspondence is a bijection.
    """
    goal = flow.positions[-1]
    cost = flow_cost(final, goal, correspondence.indices)
    rmse_mm = 1000.0 * math.sqrt(cost / final.count)
    chamfer_mm = 1000.0 * math.sqrt(chamfer_cost(final.positions, goal) / 2.0)
    return Metrics(
        final_chamfer_mm=chamfer_mm,
        final_correspondence_rmse_mm=rmse_mm,
        success=bool(rmse_mm <= _RMSE_TOL_MM),
    )


# -- bundle I/O --------------------------------------------------------------------

def _load_array(path: Path, dtype) -> np.ndarray:
    """The array a ``.npy`` file holds, which must be of ``dtype``; whatever
    ``np.load`` raises on bytes it cannot parse is a ValueError."""
    with open(path, "rb") as file:
        try:
            array = np.load(file, allow_pickle=False)
        except Exception as exc:
            raise ValueError(exc) from None
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise ValueError(f"must hold a {np.dtype(dtype)} array")
    return array


def _check_frames(config: SceneConfig, name: str, count: int) -> None:
    if count != config.frames:
        raise ValueError(f"{name}: {count} frames, the config has {config.frames}")


def _check_image(config: SceneConfig, name: str, image: np.ndarray) -> None:
    size = (config.height, config.width)
    if image.shape != size:
        raise ValueError(f"{name} is {image.shape}, the config's image is {size}")


@dataclass(frozen=True, eq=False)
class SceneBundle:
    """Everything a scene provides: observations, ground truth, provenance.

    Of the rendered images the bundle keeps only what a stage reads: the
    first-frame object mask, the first-frame sensor depth map and the metric
    reference for that frame, each at the config's image size.  The track
    layout is fixed: the K object tracks (those of ``gt_flow``, in its
    keypoint order) come first, then the distractors.  The scene's kind
    decides the rest of its ground truth: a rigid scene has ``gt_poses``,
    a rope scene ``dynamics`` and ``initial_state``, and neither has the
    other's.
    """

    config: SceneConfig
    seed: int
    tracks: TrackSet
    mask: np.ndarray                         # (H, W) bool, first frame
    depth: DepthMap                          # first frame, sensor scale
    depth_ref: DepthMap                      # first frame, metric
    gt_flow: ActionableFlow
    gt_poses: ObjectPoseTrajectory | None = None
    dynamics: MassSpringModel | None = None
    initial_state: ParticleState | None = None

    def __post_init__(self) -> None:
        rigid = self.config.scene == "rigid"
        for name, value, wanted in (("gt_poses.json", self.gt_poses, rigid),
                                    ("dynamics.json", self.dynamics, not rigid),
                                    ("initial_state.json", self.initial_state, not rigid)):
            if (value is not None) != wanted:
                raise ValueError(f"a {self.config.scene} scene "
                                 f"{'needs' if wanted else 'has no'} {name}")
        frames = {"tracks": self.tracks.frames, "ground-truth flow": self.gt_flow.frames}
        if rigid:
            frames["ground-truth poses"] = len(self.gt_poses)
        for name, count in frames.items():
            _check_frames(self.config, name, count)
        mask = _frozen(self.mask, dtype=bool)
        for name, image in (("mask", mask), ("depth map", self.depth.samples),
                            ("reference depth map", self.depth_ref.samples)):
            _check_image(self.config, name, image)
        object.__setattr__(self, "mask", mask)

    def write(self, out_dir) -> tuple["SceneBundle", dict[str, str]]:
        """Write the bundle; the manifest hashes every file and is written last.

        Returns the bundle :meth:`read` gives back, its ground-truth flow at
        float32 precision as ``gt_flow.nvfl`` stores it, and the manifest's
        file digests.  Every other field round-trips bit for bit, the depth
        maps too when they hold whole millimeters, as generated depth maps
        do: they come back as the same uint16 samples.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "masks").mkdir(exist_ok=True)
        (out / "depth").mkdir(exist_ok=True)
        files: list[str] = []

        self.config.save(out / "scene_config.json")
        files.append("scene_config.json")

        np.save(out / "tracks.npy", self.tracks.positions)
        np.save(out / "visible.npy", self.tracks.visible)
        files += ["tracks.npy", "visible.npy"]

        mask_to_pgm(out / "masks/0000.pgm", self.mask)
        depth_to_pgm(out / "depth/0000.pgm", self.depth)
        depth_to_pgm(out / "depth_ref.pgm", self.depth_ref)
        files += ["masks/0000.pgm", "depth/0000.pgm", "depth_ref.pgm"]

        gt_flow = write_flow(out / "gt_flow.nvfl", self.gt_flow.positions)
        files.append("gt_flow.nvfl")

        if self.gt_poses is not None:
            self.gt_poses.to_json(out / "gt_poses.json")
            files.append("gt_poses.json")

        if self.dynamics is not None:
            write_json(out / "dynamics.json", self.dynamics.to_doc())
            files.append("dynamics.json")
        if self.initial_state is not None:
            write_json(out / "initial_state.json", self.initial_state.to_doc())
            files.append("initial_state.json")

        digests = {rel: sha256_file(out / rel) for rel in sorted(files)}
        write_json(out / "manifest.json", {
            **self._facts(), "seed": self.seed, "label": self.gt_flow.label,
            "files": digests})
        return replace(self, gt_flow=ActionableFlow(gt_flow, label=self.gt_flow.label)), digests

    def _facts(self) -> dict:
        """The manifest fields that the bundle's other files determine."""
        return {"version": 1, "scene": self.config.scene, "frames": self.config.frames,
                "tracks": self.tracks.count, "keypoints": self.gt_flow.keypoints}

    @classmethod
    def read(cls, bundle_dir) -> "SceneBundle":
        """The bundle in ``bundle_dir``; a file that :meth:`write` would not
        write, or a manifest fact the other files contradict, is a
        ValueError naming that file."""
        read = functools.partial(read_named, bundle_dir)

        def read_doc(name, build):
            return read(name, lambda path: build(read_json(path)))

        def manifest_fields(doc):
            fields = _doc_fields(doc, {
                "version": _int, "scene": _str, "seed": _int, "frames": _int,
                "tracks": _int, "keypoints": _int, "label": _str,
                # an object of strings: a cast per key it has, if it is one
                "files": lambda files: _doc_fields(files, dict.fromkeys(
                    files if isinstance(files, dict) else (), _str))})
            return fields, fields["seed"], fields["files"]    # seed and files are required

        manifest, seed, listed = read_doc("manifest.json", manifest_fields)
        config = read_doc("scene_config.json", SceneConfig.from_doc)

        # Each array is checked against the config as it is read, so that a
        # mismatch names its file.
        def read_tracks(path):
            positions = _load_array(path, np.float64)
            _check_frames(config, "tracks", len(positions) if positions.ndim else 0)
            return positions

        def read_visible(path):
            visible = _load_array(path, np.bool_)
            if visible.shape != positions.shape[:2]:
                raise ValueError(f"visibility is {visible.shape}, "
                                 f"the tracks are {positions.shape[:2]}")
            return visible

        def read_image(name, what, load):
            def checked(path):
                image = load(path)
                _check_image(config, what, getattr(image, "samples", image))
                return image
            return read(name, checked)

        positions = read("tracks.npy", read_tracks)
        tracks = TrackSet(positions, read("visible.npy", read_visible))

        mask = read_image("masks/0000.pgm", "mask", mask_from_pgm)
        depth = read_image("depth/0000.pgm", "depth map", depth_from_pgm)
        depth_ref = read_image("depth_ref.pgm", "reference depth map", depth_from_pgm)

        flow_positions, _ = read("gt_flow.nvfl", read_flow)
        gt_flow = ActionableFlow(flow_positions, label=manifest.get("label", ""))

        # Optional files count only when listed: a file an earlier bundle
        # left in the directory is not part of this one.
        gt_poses = dynamics = initial_state = None
        if "gt_poses.json" in listed:
            gt_poses = read("gt_poses.json", ObjectPoseTrajectory.from_json)
        if "dynamics.json" in listed:
            dynamics = read_doc("dynamics.json", MassSpringModel.from_doc)
        if "initial_state.json" in listed:
            initial_state = read_doc("initial_state.json", ParticleState.from_doc)

        bundle = cls(config=config, seed=seed, tracks=tracks,
                     mask=mask, depth=depth, depth_ref=depth_ref,
                     gt_flow=gt_flow, gt_poses=gt_poses,
                     dynamics=dynamics, initial_state=initial_state)
        for key, value in bundle._facts().items():
            if manifest.get(key) != value:
                raise ValueError(f"manifest.json says {key} {manifest.get(key)!r}, not {value!r}")
        return bundle
