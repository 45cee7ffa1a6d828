"""Synthetic tabletop scenes with exact ground truth.

Scenes are rendered from a fixed overhead camera looking down at a table
(world z up, table at z = 0).  A rigid scene moves a box or cylinder through
screw-interpolated waypoints; a rope scene deforms a constant-length
circular-arc centerline through scripted bend/turn keyframes.  Each scene
yields the observations the planning pipeline consumes (3-d tracks, the
first-frame object mask and depth map, a metric first-frame reference depth)
plus the ground truth to grade it against (keypoint flow, relative object
poses, track membership, rope dynamics).

All randomness is drawn from one generator seeded per scene, so a given
config-and-seed pair reproduces byte-identical bundles.  On disk a bundle
keeps the tracks as binary ``tracks.npy`` and ``visible.npy`` arrays, the
images as PGM, the flow as ``.nvfl`` and everything else as JSON (formats
in ``fileio``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .deformable import (
    Correspondence,
    MassSpringModel,
    ParticleState,
    build_correspondence,
    chamfer_cost,
    flow_cost,
    save_dynamics,
    load_dynamics,
)
from .fileio import (
    depth_from_pgm,
    depth_to_pgm,
    mask_from_pgm,
    mask_to_pgm,
    read_flow,
    sha256_file,
    write_flow,
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
    project,
    rotation_from_axis_angle,
    rotation_geodesic_angle,
    screw_interpolate,
)
from .rigid import ObjectPoseTrajectory

__all__ = [
    "CAMERA_IN_WORLD",
    "ObjectSpec",
    "Waypoint",
    "RopeSpec",
    "NoiseConfig",
    "DEFAULT_SENSOR_NOISE",
    "SceneConfig",
    "SceneBundle",
    "Metrics",
    "generate_rigid_scene",
    "generate_rope_scene",
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
    """A rigid solid with keypoints sampled uniformly over its surface.

    ``size`` is (x, y, z) extents for a box and (radius, height) for a
    cylinder.
    """

    shape: str = "box"            # "box" or "cylinder"
    size: tuple[float, ...] = (0.08, 0.06, 0.05)
    surface_samples: int = 40
    label: str = "box"

    def __post_init__(self) -> None:
        if self.shape not in ("box", "cylinder"):
            raise ValueError(f"unknown object shape {self.shape!r}")
        wanted = 3 if self.shape == "box" else 2
        size = tuple(float(s) for s in self.size)
        if len(size) != wanted or not _finite(*size) or any(s <= 0.0 for s in size):
            raise ValueError(f"a {self.shape} needs {wanted} positive finite dimensions")
        if self.surface_samples < 4:
            raise ValueError("need at least four surface samples for pose estimation")
        object.__setattr__(self, "size", size)

    @property
    def rest_height(self) -> float:
        """z of the object center when resting on the table."""
        return (self.size[2] if self.shape == "box" else self.size[1]) / 2.0


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

    The script keyframes ``(time, bend, turn)`` or ``(time, bend, turn, dx,
    dy)`` deform the arc: ``bend`` is the total subtended angle (0 = straight,
    pi = semicircle), ``turn`` rotates the arc in the table plane, and the
    optional ``dx, dy`` slide the whole shape relative to ``center``.
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
    script: tuple[tuple[float, ...], ...] = ((0.0, math.pi, 0.0), (1.0, 0.0, 0.0))

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
        script = []
        for key in self.script:
            if len(key) == 3:
                t, b, w = key
                dx = dy = 0.0
            elif len(key) == 5:
                t, b, w, dx, dy = key
            else:
                raise ValueError("script keyframes must be (time, bend, turn) "
                                 "or (time, bend, turn, dx, dy)")
            script.append((float(t), float(b), float(w), float(dx), float(dy)))
        script = tuple(script)
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


# Canonical "realistic sensor" preset: half-millimeter track jitter (about a
# third of a pixel at the default focal length and range), 1% depth noise, 3%
# per-frame track dropout, and a 25% depth miscalibration for the calibration
# stage to undo.
DEFAULT_SENSOR_NOISE = NoiseConfig(track_sigma=0.0005, depth_sigma=0.01,
                                   dropout_prob=0.03, depth_scale=1.25)


@dataclass(frozen=True)
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
            wps = tuple(self.waypoints) or _default_waypoints(self.object)
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
            "scene": str, "seed": _int, "frames": _int, "distractor_points": _int,
            "camera": SE3Pose.from_doc,
            "noise": lambda noise: NoiseConfig(**_doc_fields(noise, dict.fromkeys(
                ("track_sigma", "depth_sigma", "dropout_prob", "depth_scale"), _float))),
            "object": lambda obj: ObjectSpec(**_doc_fields(obj, {
                "shape": str, "size": numbers, "surface_samples": _int, "label": str})),
            "motion_script": lambda script: tuple(
                Waypoint(**_doc_fields(w, {"time": _float, "position": numbers,
                                           "yaw": _float}))
                for w in _doc_list(script)),
            "rope": lambda rope: RopeSpec(**_doc_fields(rope, {
                "length": _float, "particles": _int, "flow_keypoints": _int,
                "center": numbers, "height": _float, "pinned": _bool,
                "script": lambda keys: tuple(numbers(key) for key in _doc_list(keys))})),
        })
        if "motion_script" in kwargs:
            kwargs["waypoints"] = kwargs.pop("motion_script")
        if "image" in doc:
            kwargs.update(_doc_fields(doc["image"], {"width": _int, "height": _int,
                                                     "focal": _float}))
        return cls(**kwargs)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "SceneConfig":
        return cls.from_doc(json.loads(Path(path).read_text()))

    @classmethod
    def rigid_demo(cls, seed: int = 0, noise: NoiseConfig | None = None) -> "SceneConfig":
        """Pick, lift, carry and place a box; zero noise unless given.

        The demo tracks the object densely (240 surface samples, the scale of
        a tracker's query grid): pose translation error grows with camera
        distance times rotation error, so a sparse flow cannot deliver
        millimeter placements from a meter away.
        """
        return cls(scene="rigid", seed=seed,
                   object=ObjectSpec(surface_samples=240),
                   noise=noise or NoiseConfig())

    @classmethod
    def rope_demo(cls, mirrored: bool = False, seed: int = 0,
                  noise: NoiseConfig | None = None) -> "SceneConfig":
        """Rope straightening.

        The plain variant pins the far end (a fixture) and straightens the
        semicircle.  The mirrored variant is unpinned and straightens while
        turning by pi, so the final centerline occupies the same line segment
        as an in-place flattening but with the particle order reversed:
        shape-matching objectives cannot tell the two apart, while
        corresponded flow tracking can.  Its script straightens and turns
        during the first half, then drags the rope along its own axis back to
        center; an end-attached gripper can track an axial drag exactly, and
        the detour leaves the goal segment (and so the shape-matching trap)
        unchanged.
        """
        if mirrored:
            rope = RopeSpec(pinned=False,
                            script=((0.0, math.pi, 0.0, 0.0, 0.0),
                                    (0.5, 0.0, math.pi, -0.30, 0.0),
                                    (1.0, 0.0, math.pi, 0.0, 0.0)))
            frames = 40
        else:
            rope = RopeSpec(pinned=True,
                            script=((0.0, math.pi, 0.0), (1.0, 0.0, 0.0)))
            frames = 24
        return cls(scene="rope", seed=seed, frames=frames, rope=rope,
                   distractor_points=60, noise=noise or NoiseConfig())


def _default_waypoints(spec: ObjectSpec) -> tuple[Waypoint, ...]:
    rest_z = spec.rest_height
    lift_z = rest_z + 0.12
    return (
        Waypoint(0.0, (0.34, -0.115, rest_z), 0.0),
        Waypoint(0.35, (0.34, -0.115, lift_z), 0.0),
        Waypoint(0.7, (0.56, 0.105, lift_z), 0.5),
        Waypoint(1.0, (0.56, 0.105, rest_z), 0.5),
    )


# -- camera and rasterization ----------------------------------------------------

def _ground_depth(intrinsics: CameraIntrinsics, extrinsic: SE3Pose,
                  plane_z: float = 0.0) -> np.ndarray:
    """Per-pixel camera-frame depth of the world plane z = plane_z.

    ``extrinsic`` maps world to camera coordinates.  Pixels whose rays miss
    the plane (or hit it behind the camera) are left at 0, i.e. invalid.
    """
    normal = extrinsic.rotation @ np.array([0.0, 0.0, 1.0])
    on_plane = extrinsic.apply(np.array([0.0, 0.0, plane_z]))
    offset = float(normal @ on_plane)
    # Each ray (u - cx) / fx, (v - cy) / fy, 1 broadcast along its row or column.
    rays = np.empty((intrinsics.height, intrinsics.width, 3))
    rays[..., 0] = (np.arange(intrinsics.width) - intrinsics.cx) / intrinsics.fx
    rays[..., 1] = ((np.arange(intrinsics.height) - intrinsics.cy) / intrinsics.fy)[:, None]
    rays[..., 2] = 1.0
    denom = rays @ normal
    depth = np.zeros((intrinsics.height, intrinsics.width))
    np.divide(offset, denom, out=depth, where=np.abs(denom) > 1e-9)
    np.copyto(depth, 0.0, where=depth < 0.0)
    return depth


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """``pts`` without the points strictly inside the polygon of its extremes.

    The polygon joins, counterclockwise, the points extreme along x, x + y,
    y, y - x and their opposites, with repeats removed (a zero-length edge
    would keep every point).  A point inside it by more than 1e-6 on every
    edge is no hull vertex.  Order is kept.
    """
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    ring = np.array([x.argmax(), s.argmax(), y.argmax(), d.argmin(),
                     x.argmin(), s.argmin(), y.argmin(), d.argmax()])
    ring = ring[ring != np.roll(ring, 1)]
    if len(ring) < 3:
        return pts
    a, b = pts[ring][:, :, None], pts[np.roll(ring, -1)][:, :, None]
    side = (b[:, 0] - a[:, 0]) * (y - a[:, 1]) - (b[:, 1] - a[:, 1]) * (x - a[:, 0])
    return pts[~(side > 1e-6).all(axis=0)]


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull of 2-d points; collinear inputs collapse.

    The points are rounded to 1e-6, sorted by (x, y) and made distinct;
    :func:`_drop_interior` then thins them before the chain.
    """
    pts = np.round(np.asarray(points, dtype=float).reshape(-1, 2), 6)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    if len(pts) <= 2:
        return pts
    pts = _drop_interior(pts).tolist()

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


def _render_mask(intrinsics: CameraIntrinsics, pixels: np.ndarray,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Filled convex hull of in-image projections plus a 3x3 stamp per point,
    ORed into ``mask`` if given, else drawn on a new (H, W) image."""
    height, width = intrinsics.height, intrinsics.width
    if mask is None:
        mask = np.zeros((height, width), dtype=bool)
    hull = _convex_hull(pixels)
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
            # Every edge's half-plane test in one (edges, rows, cols) broadcast.
            a, b = hull[:, :, None, None], np.roll(hull, -1, axis=0)[:, :, None, None]
            u, v = np.arange(x0, x1 + 1), np.arange(y0, y1 + 1)[:, None]
            side = (b[:, 0] - a[:, 0]) * (v - a[:, 1]) - (b[:, 1] - a[:, 1]) * (u - a[:, 0])
            mask[y0:y1 + 1, x0:x1 + 1] |= (side >= -1e-9).all(axis=0)
    u, v = np.round(pixels).astype(int).T
    step = np.arange(-1, 2)
    mask[np.clip(v[:, None, None] + step[:, None], 0, height - 1),
         np.clip(u[:, None, None] + step, 0, width - 1)] = True
    return mask


def _place_distractors(config: SceneConfig, rng: np.random.Generator,
                       object_pixels: np.ndarray, union: np.ndarray) -> np.ndarray:
    """World ground points whose projections stay clear of the object.

    A candidate is rejected when the 5x5 window around its rounded projection
    touches ``union``, the OR of every frame's object mask, or when it lies
    within 4 px of any object keypoint projection in any frame, which keeps
    the ground-truth track membership unambiguous.  Each round draws one
    (x, y) pair per point still missing and accepts the passing pairs in draw
    order, so the stream is consumed as by testing one pair at a time.  A
    point that meets 500 rejections in a row is an error.
    """
    intr = config.intrinsics
    cx, cy = float(config.camera.translation[0]), float(config.camera.translation[1])
    low, high = np.array([cx - 0.4, cy - 0.3]), np.array([cx + 0.4, cy + 0.3])
    flat = object_pixels.reshape(-1, 2)
    near_low, near_high = flat.min(axis=0) - 5.0, flat.max(axis=0) + 5.0
    padded = np.pad(union, 2)   # windows of in-bounds centers are never clipped
    rows = padded[:-4] | padded[1:-3] | padded[2:-2] | padded[3:-1] | padded[4:]
    blocked = rows[:, :-4] | rows[:, 1:-3] | rows[:, 2:-2] | rows[:, 3:-1] | rows[:, 4:]
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
        for chunk in np.array_split(near, max(1, len(near) * len(flat) >> 18)):
            du, dv = flat[:, 0] - uv[chunk, :1], flat[:, 1] - uv[chunk, 1:]
            # The sum np.linalg.norm forms over a length-2 axis.
            ok[chunk] = np.sqrt(du * du + dv * dv).min(axis=1) >= 4.0
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
    is the same frame, unscaled and noise-free.  Only the first frame is
    rendered, because no stage reads a later one.
    """
    noise = config.noise
    depth = _ground_depth(config.intrinsics, config.camera.inverse())
    depth[mask] = object_depth
    reference = DepthMap(depth)
    if noise.depth_sigma > 0.0:
        depth = np.maximum(depth * (1.0 + noise.depth_sigma * rng.standard_normal(depth.shape)), 0.0)
    return DepthMap(depth * noise.depth_scale), reference


def _observe(config: SceneConfig, rng: np.random.Generator, gt_points: np.ndarray) -> dict:
    """What the sensors see of true camera-frame object keypoints (T, K, 3).

    Returns the ``SceneBundle`` fields ``tracks``, ``mask``, ``depth``, ``depth_ref``
    and ``membership``; ``rng`` draws distractors, then track and depth noise.
    """
    intr = config.intrinsics
    pixels = project(intr, gt_points.reshape(-1, 3)).reshape(gt_points.shape[:2] + (2,))
    if (pixels[..., 0].min() < 0.0 or pixels[..., 0].max() > intr.width - 1
            or pixels[..., 1].min() < 0.0 or pixels[..., 1].max() > intr.height - 1):
        raise ValueError("object leaves view: keypoints project outside the image")
    mask = _render_mask(intr, pixels[0])
    union = mask.copy()
    for frame in pixels[1:]:
        _render_mask(intr, frame, union)
    distractors = config.camera.inverse().apply(_place_distractors(config, rng, pixels, union))
    true_camera = np.concatenate(
        [gt_points, np.broadcast_to(distractors, (config.frames,) + distractors.shape)], axis=1)
    tracks = _observe_tracks(config, rng, true_camera)
    depth, depth_ref = _render_depth(config, rng, mask, _first_object_depth(gt_points))
    n_object = gt_points.shape[1]
    return {"tracks": tracks, "mask": mask, "depth": depth, "depth_ref": depth_ref,
            "membership": {"object": list(range(n_object)),
                           "distractors": list(range(n_object, true_camera.shape[1]))}}


# -- rigid scenes -----------------------------------------------------------------

def _sample_surface_points(spec: ObjectSpec, rng: np.random.Generator) -> np.ndarray:
    """Keypoints uniform over the solid's surface, in the object frame."""
    n = spec.surface_samples
    if spec.shape == "box":
        half = np.asarray(spec.size) / 2.0
        faces = rng.integers(0, 6, size=n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
        for i, face in enumerate(faces):
            axis, side = divmod(int(face), 2)
            pts[i, axis] = half[axis] if side == 0 else -half[axis]
        return pts
    radius, height = spec.size
    side_area = 2.0 * math.pi * radius * height
    cap_area = math.pi * radius ** 2
    total = side_area + 2.0 * cap_area
    pts = np.zeros((n, 3))
    for i in range(n):
        pick = rng.uniform(0.0, total)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if pick < side_area:
            z = rng.uniform(-height / 2.0, height / 2.0)
            pts[i] = (radius * math.cos(theta), radius * math.sin(theta), z)
        else:
            rho = radius * math.sqrt(rng.uniform(0.0, 1.0))
            z = height / 2.0 if pick < side_area + cap_area else -height / 2.0
            pts[i] = (rho * math.cos(theta), rho * math.sin(theta), z)
    return pts


def _waypoint_poses(waypoints: tuple[Waypoint, ...], frames: int) -> list[SE3Pose]:
    times = np.array([w.time for w in waypoints])
    poses = [w.pose() for w in waypoints]
    out = []
    for t in range(frames):
        frac = t / (frames - 1)
        seg = int(np.clip(np.searchsorted(times, frac, side="right") - 1, 0, len(poses) - 2))
        t0, t1 = times[seg], times[seg + 1]
        tau = 0.0 if t1 == t0 else (frac - t0) / (t1 - t0)
        out.append(screw_interpolate(poses[seg], poses[seg + 1], float(np.clip(tau, 0.0, 1.0))))
    return out


def generate_rigid_scene(config: SceneConfig, seed: int | None = None) -> "SceneBundle":
    """Render a rigid-object scene with exact pose and flow ground truth.

    ``seed`` overrides ``config.seed`` when given.

    Raises:
        ValueError: "object leaves view" if the motion exits the camera frustum.
    """
    if config.scene != "rigid":
        raise ValueError(f"config is for a {config.scene!r} scene")
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    extr = config.camera.inverse()

    obj_pts = _sample_surface_points(config.object, rng)
    world_poses = _waypoint_poses(config.waypoints, config.frames)
    cam_poses = [extr.compose(p) for p in world_poses]

    gt_points = np.stack([p.apply(obj_pts) for p in cam_poses])  # (T, K, 3)

    rel = [SE3Pose.identity()]
    base_inv = cam_poses[0].inverse()
    for pose in cam_poses[1:]:
        rel.append(pose.compose(base_inv))
    gt_poses = ObjectPoseTrajectory(tuple(rel), frame="camera")

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
    """Structural plus flexion springs along the chain; gravity off (planar)."""
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


def _spurious_shape_audit(spec: RopeSpec, cam_points: np.ndarray,
                          kp_idx: np.ndarray, extr: SE3Pose) -> dict:
    """Grid-evaluate the Chamfer-to-goal landscape over flattened shapes.

    Scans in-plane rotations of the final centerline shape (5 degree grid)
    and records the one minimizing Chamfer distance to the goal among shapes
    that are genuinely wrong under point correspondence (corresponded cost at
    least half the worst over the grid).  A near-zero spurious Chamfer cost
    next to a large corresponded cost certifies the local minimum that
    shape-matching objectives fall into on mirrored scripts.
    """
    s = np.linspace(-0.5, 0.5, spec.particles)
    _, bend0, turn0, dx0, dy0 = spec.script[0]
    _, bend1, _, dx1, dy1 = spec.script[-1]
    first = _arc_points(s, spec.length, bend0, turn0) + np.array([dx0, dy0])
    goal = cam_points[-1]
    turns = np.linspace(0.0, 2.0 * math.pi, 73)[:-1]
    chamfers = np.empty(turns.size)
    flows = np.empty(turns.size)
    for i, turn in enumerate(turns):
        xy = _arc_points(s, spec.length, bend1, turn) + np.array([dx1, dy1])
        if spec.pinned:
            xy = xy - xy[-1] + first[-1]
        world = np.zeros((spec.particles, 3))
        world[:, 0] = xy[:, 0] + spec.center[0]
        world[:, 1] = xy[:, 1] + spec.center[1]
        world[:, 2] = spec.height
        candidate = extr.apply(world)[kp_idx]
        chamfers[i] = chamfer_cost(candidate, goal)
        flows[i] = float(np.sum((candidate - goal) ** 2))
    wrong = flows >= 0.5 * flows.max()
    best = int(np.flatnonzero(wrong)[np.argmin(chamfers[wrong])])
    return {
        "spurious_turn": float(turns[best]),
        "spurious_chamfer_cost": float(chamfers[best]),
        "spurious_flow_cost": float(flows[best]),
    }


def generate_rope_scene(config: SceneConfig, seed: int | None = None) -> "SceneBundle":
    """Render a rope scene; ground truth includes dynamics and initial state.

    The flow, dynamics and particle states all live in the camera frame (the
    frame the planner works in); gravity is off because the motion is planar.
    The bundle's audit records how deep the shape-matching local minimum is
    for this script (Chamfer cost vs corresponded cost of the in-place
    flattening).

    Raises:
        ValueError: "self-intersecting spline" for scripts that fold the rope
            onto itself, "object leaves view" if it exits the frustum.
    """
    if config.scene != "rope":
        raise ValueError(f"config is for a {config.scene!r} scene")
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    spec = config.rope
    extr = config.camera.inverse()

    world = _rope_world_frames(spec, config.frames)            # (T, N, 3)
    cam = extr.apply(world.reshape(-1, 3)).reshape(world.shape)
    kp_idx = np.round(np.linspace(0, spec.particles - 1, spec.flow_keypoints)).astype(int)
    gt_points = cam[:, kp_idx, :]                              # (T, K, 3)
    return SceneBundle(config=config, seed=seed, gt_flow=ActionableFlow(gt_points, label="rope"),
                       dynamics=_rope_model(spec), initial_state=ParticleState.at_rest(cam[0]),
                       audit=_spurious_shape_audit(spec, gt_points, kp_idx, extr),
                       **_observe(config, rng, gt_points))


def generate_scene(config: SceneConfig, seed: int | None = None) -> "SceneBundle":
    if config.scene == "rigid":
        return generate_rigid_scene(config, seed)
    return generate_rope_scene(config, seed)


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

@dataclass(frozen=True)
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


def evaluate_rigid(executed: ObjectPoseTrajectory, gt: ObjectPoseTrajectory,
                   rot_tol_deg: float = 2.0, trans_tol_mm: float = 5.0) -> Metrics:
    """Per-frame pose errors; success iff the final frame is within tolerance."""
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
        success=bool(rot[-1] <= rot_tol_deg and trans[-1] <= trans_tol_mm),
    )


def evaluate_deformable(final: ParticleState, flow: ActionableFlow,
                        correspondence: Correspondence | np.ndarray | None = None,
                        rmse_tol_mm: float = 50.0) -> Metrics:
    """Grade a final particle state against the last flow frame.

    final_correspondence_rmse_mm is sqrt(flow_cost / N) * 1000; the Chamfer
    grade is reported as an RMS distance in mm (sqrt of half the symmetric
    squared cost), which never exceeds the corresponded RMSE when the
    correspondence is a bijection.
    """
    if correspondence is None:
        correspondence = build_correspondence(flow, final.positions)
    indices = correspondence.indices if isinstance(correspondence, Correspondence) else correspondence
    goal = flow.positions[-1]
    cost = flow_cost(final, goal, indices)
    rmse_mm = 1000.0 * math.sqrt(cost / final.count)
    chamfer_mm = 1000.0 * math.sqrt(chamfer_cost(final.positions, goal) / 2.0)
    return Metrics(
        final_chamfer_mm=chamfer_mm,
        final_correspondence_rmse_mm=rmse_mm,
        success=bool(rmse_mm <= rmse_tol_mm),
    )


# -- bundle I/O --------------------------------------------------------------------

def _load_array(path: Path, dtype) -> np.ndarray:
    """The array a ``.npy`` file holds, which must be of ``dtype``."""
    try:
        with open(path, "rb") as file:
            array = np.load(file, allow_pickle=False)
    except (EOFError, ValueError) as exc:     # empty, cut short, or pickled objects
        raise ValueError(f"{path.name}: {exc}") from None
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise ValueError(f"{path.name} must hold a {np.dtype(dtype)} array")
    return array


@dataclass(frozen=True)
class SceneBundle:
    """Everything a scene provides: observations, ground truth, provenance.

    Of the rendered images the bundle keeps only what a stage reads: the
    first-frame object mask, the first-frame sensor depth map and the metric
    reference for that frame, each at the config's image size.
    """

    config: SceneConfig
    seed: int
    tracks: TrackSet
    mask: np.ndarray                         # (H, W) bool, first frame
    depth: DepthMap                          # first frame, sensor scale
    depth_ref: DepthMap                      # first frame, metric
    gt_flow: ActionableFlow
    gt_poses: ObjectPoseTrajectory | None = None
    membership: dict = field(default_factory=dict)
    dynamics: MassSpringModel | None = None
    initial_state: ParticleState | None = None
    audit: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        frames = {"tracks": self.tracks.frames, "ground-truth flow": self.gt_flow.frames}
        if self.gt_poses is not None:
            frames["ground-truth poses"] = len(self.gt_poses)
        for name, count in frames.items():
            if count != self.config.frames:
                raise ValueError(f"{name}: {count} frames, the config has {self.config.frames}")
        mask = _frozen(self.mask, dtype=bool)
        size = (self.config.height, self.config.width)
        for name, shape in (("mask", mask.shape), ("depth map", self.depth.values.shape),
                            ("reference depth map", self.depth_ref.values.shape)):
            if shape != size:
                raise ValueError(f"{name} is {shape}, the config's image is {size}")
        object.__setattr__(self, "mask", mask)

    def write(self, out_dir) -> "SceneBundle":
        """Write the bundle; the manifest hashes every file and is written last.

        Returns the bundle :meth:`read` gives back: the depth maps in whole
        millimeters and the ground-truth flow at float32 precision, as the
        files store them.  Every other field round-trips bit for bit.
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
        depth = depth_to_pgm(out / "depth/0000.pgm", self.depth)
        depth_ref = depth_to_pgm(out / "depth_ref.pgm", self.depth_ref)
        files += ["masks/0000.pgm", "depth/0000.pgm", "depth_ref.pgm"]

        gt_flow = write_flow(out / "gt_flow.nvfl", self.gt_flow.positions)
        files.append("gt_flow.nvfl")

        if self.gt_poses is not None:
            self.gt_poses.to_json(out / "gt_poses.json")
            files.append("gt_poses.json")

        (out / "gt_membership.json").write_text(
            json.dumps({"version": 1, **self.membership}, sort_keys=True) + "\n")
        files.append("gt_membership.json")

        if self.dynamics is not None:
            save_dynamics(self.dynamics, out / "dynamics.json")
            files.append("dynamics.json")
        if self.initial_state is not None:
            (out / "initial_state.json").write_text(
                json.dumps(self.initial_state.to_doc(), sort_keys=True) + "\n")
            files.append("initial_state.json")

        manifest = {
            "version": 1,
            "scene": self.config.scene,
            "seed": self.seed,
            "frames": self.config.frames,
            "tracks": self.tracks.count,
            "keypoints": self.gt_flow.keypoints,
            "label": self.gt_flow.label,
            "audit": self.audit,
            "files": {rel: sha256_file(out / rel) for rel in sorted(files)},
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return replace(self, depth=depth, depth_ref=depth_ref,
                       gt_flow=ActionableFlow(gt_flow, label=self.gt_flow.label))

    @classmethod
    def read(cls, bundle_dir) -> "SceneBundle":
        root = Path(bundle_dir)
        manifest = json.loads((root / "manifest.json").read_text())
        config = SceneConfig.load(root / "scene_config.json")

        tracks = TrackSet(_load_array(root / "tracks.npy", np.float64),
                          _load_array(root / "visible.npy", np.bool_))

        mask = mask_from_pgm(root / "masks/0000.pgm")
        depth = depth_from_pgm(root / "depth/0000.pgm")
        depth_ref = depth_from_pgm(root / "depth_ref.pgm")

        flow_positions, _ = read_flow(root / "gt_flow.nvfl")
        gt_flow = ActionableFlow(flow_positions, label=manifest.get("label", ""))

        # Optional files count only when listed: a file an earlier bundle
        # left in the directory is not part of this one.
        listed = manifest["files"]
        gt_poses = None
        if "gt_poses.json" in listed:
            gt_poses = ObjectPoseTrajectory.from_json(root / "gt_poses.json")

        membership_doc = json.loads((root / "gt_membership.json").read_text())
        membership = {"object": list(membership_doc.get("object", [])),
                      "distractors": list(membership_doc.get("distractors", []))}

        dynamics = None
        initial_state = None
        if "dynamics.json" in listed:
            dynamics = load_dynamics(root / "dynamics.json")
        if "initial_state.json" in listed:
            initial_state = ParticleState.from_doc(
                json.loads((root / "initial_state.json").read_text()))

        return cls(config=config, seed=int(manifest["seed"]), tracks=tracks,
                   mask=mask, depth=depth, depth_ref=depth_ref,
                   gt_flow=gt_flow, gt_poses=gt_poses,
                   membership=membership, dynamics=dynamics, initial_state=initial_state,
                   audit=dict(manifest.get("audit", {})))
