"""Rigid-object planning: pose estimation from flow and grasp composition.

Per-frame object poses are recovered from keypoint flow with the Kabsch
algorithm (SVD of the cross-covariance between keypoint clouds, with the
determinant-sign correction so a proper rotation is always returned), then
composed with a grasp transform to produce end-effector pose targets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fileio import read_json
from .flow import ActionableFlow
from .geometry import SE3Pose, _doc_fields

__all__ = [
    "DegenerateCloudError",
    "GraspProposal",
    "ObjectPoseTrajectory",
    "estimate_rigid_transform",
    "flow_to_pose_trajectory",
    "compose_ee_trajectory",
    "propose_grasp",
]


class DegenerateCloudError(ValueError):
    """Point clouds do not determine a unique rigid transform."""


def estimate_rigid_transform(source: np.ndarray, target: np.ndarray) -> SE3Pose:
    """Best-fit rotation and translation mapping ``source`` onto ``target``.

    Minimizes sum ||R (p_i - c_src) - (q_i - c_tgt)||^2 over proper rotations,
    with c_* the keypoint centroids, and sets t = c_tgt - R c_src.  Reflections
    are never returned: when the SVD solution would mirror, the smallest
    singular direction is flipped instead.

    Raises:
        DegenerateCloudError: fewer than 3 points ("underdetermined"), or a
            rank-deficient cross-covariance (for example collinear points), so
            the rotation is not unique ("degenerate configuration").
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape != tgt.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError(f"point clouds must share shape (K, 3), got {src.shape} and {tgt.shape}")
    if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
        raise ValueError("point clouds contain non-finite values")
    if src.shape[0] < 3:
        raise DegenerateCloudError(f"underdetermined: need at least 3 points, got {src.shape[0]}")

    centroid_src = src.mean(axis=0)
    centroid_tgt = tgt.mean(axis=0)
    a = src - centroid_src
    b = tgt - centroid_tgt
    cov = a.T @ b
    u, s, vt = np.linalg.svd(cov)
    if s[1] <= max(s[0] * 1e-9, 1e-15):
        raise DegenerateCloudError(
            "degenerate configuration: cross-covariance rank < 2 "
            "(collinear or coincident points)")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rotation = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    translation = centroid_tgt - rotation @ centroid_src
    return SE3Pose(rotation, translation)


@dataclass(frozen=True, eq=False)
class ObjectPoseTrajectory:
    """Per-frame object poses, all expressed in the camera frame."""

    poses: tuple[SE3Pose, ...]

    def __post_init__(self) -> None:
        if len(self.poses) < 1:
            raise ValueError("a pose trajectory needs at least one pose")
        object.__setattr__(self, "poses", tuple(self.poses))

    def __len__(self) -> int:
        return len(self.poses)

    def to_json(self, path) -> None:
        """JSON ``{"frame": "camera", "poses"}``; each pose is ``SE3Pose.to_doc``
        plus its index ``t``."""
        doc = [{"t": t, **pose.to_doc()} for t, pose in enumerate(self.poses)]
        Path(path).write_text(json.dumps({"frame": "camera", "poses": doc}) + "\n")

    @classmethod
    def from_json(cls, path) -> "ObjectPoseTrajectory":
        """Poses from a ``to_json`` document; a ``frame`` other than "camera"
        is a ValueError."""
        doc = read_json(path)
        fields = _doc_fields(doc, {"poses": lambda poses: tuple(
            SE3Pose.from_doc(p, extra=("t",)) for p in poses)}, extra=("frame",))
        if doc.get("frame", "camera") != "camera":
            raise ValueError(f"poses must be in the camera frame, got {doc['frame']!r}")
        return cls(**fields)


def flow_to_pose_trajectory(flow: ActionableFlow) -> ObjectPoseTrajectory:
    """Per-frame object poses relative to the first flow frame.

    ``poses[0]`` is exactly the identity; ``poses[t]`` maps first-frame
    keypoints onto frame-t keypoints in the least-squares sense.
    """
    first = flow.positions[0]
    poses = [SE3Pose.identity()]
    for t in range(1, flow.frames):
        poses.append(estimate_rigid_transform(first, flow.positions[t]))
    return ObjectPoseTrajectory(tuple(poses))


def compose_ee_trajectory(object_poses: ObjectPoseTrajectory,
                          grasp_pose: SE3Pose) -> list[SE3Pose]:
    """End-effector targets: ee_t = object_pose_t composed with the grasp.

    The grasp pose is the end-effector pose at the first frame, expressed in
    the same frame as the object poses; rigid attachment carries it along.
    """
    return [pose.compose(grasp_pose) for pose in object_poses.poses]


@dataclass(frozen=True, eq=False)
class GraspProposal:
    grasp_pose: SE3Pose   # gripper frame: x = closing axis, z = approach axis
    width: float          # jaw opening in meters
    quality: float        # in [0, 1], higher is better

    def __post_init__(self) -> None:
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")
        if self.width <= 0.0:
            raise ValueError("width must be positive")


# Parallel-jaw gripper geometry for the grasp heuristic.
_MAX_WIDTH = 0.085     # largest jaw opening, meters
_CLEARANCE = 0.01      # slack added to the closing extent, meters
_TOP_FRACTION = 0.2    # share of points, nearest the camera, the grasp centers on


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of a finite 1-d array, bit for bit, without numpy.ma.

    np.quantile imports numpy.ma on its first call, 11-14 ms of a fresh
    process.  This is its default (linear) method step for step: the same
    partition split points, and the same two-sided interpolation between
    the neighbouring order statistics a and b at fraction g, a + (b - a) g
    below g = 0.5 and b - (b - a)(1 - g) from there on.
    """
    n = values.size
    virtual = (n - 1) * q
    lower = -1 if virtual >= n - 1 else int(np.floor(virtual))
    upper = -1 if lower == -1 else lower + 1
    part = np.partition(values, sorted({0, -1, lower, upper}))
    a, b = part[lower], part[upper]
    gamma = virtual - lower
    diff = b - a
    if gamma >= 0.5:
        return float(b - diff * (1.0 - gamma))
    return float(a + diff * gamma)


def propose_grasp(object_points: np.ndarray) -> list[GraspProposal]:
    """Top-down parallel-jaw grasp proposals from a camera-frame point cloud.

    The camera looks straight down, so -z is up: the gripper is centered on
    the centroid of the 20% of points nearest the camera, approaches along
    +z, and closes along a principal axis of the horizontal (x, y) point
    spread (minor axis first).  The jaw opening is the extent along the
    closing axis plus 1 cm; quality decreases linearly with the closing
    extent relative to the 8.5 cm maximum opening.

    Proposals are sorted by quality.  Axes whose extent exceeds the maximum
    opening are dropped; if none fit, the list is empty.

    Raises:
        ValueError: on fewer than 10 points ("too few points").
    """
    pts = np.asarray(object_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"object points must be (N, 3), got {pts.shape}")
    if pts.shape[0] < 10:
        raise ValueError(f"too few points for a grasp proposal ({pts.shape[0]} < 10)")
    if not np.isfinite(pts).all():
        raise ValueError("object points contain non-finite values")

    height = -pts[:, 2]
    approach_vec = np.array([0.0, 0.0, 1.0])

    cutoff = _quantile(height, 1.0 - _TOP_FRACTION)
    top = pts[height >= cutoff]
    center = top.mean(axis=0)

    horizontal = pts[:, :2] - pts[:, :2].mean(axis=0)
    cov = horizontal.T @ horizontal / len(pts)
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending: minor axis first

    proposals = []
    for idx in range(2):
        axis2d = eigvecs[:, idx]
        extent = float(np.ptp(horizontal @ axis2d))
        if extent > _MAX_WIDTH:
            continue
        closing = np.array([axis2d[0], axis2d[1], 0.0])
        closing /= np.linalg.norm(closing)
        y_axis = np.cross(approach_vec, closing)
        rotation = np.stack([closing, y_axis, approach_vec], axis=1)
        proposals.append(GraspProposal(
            grasp_pose=SE3Pose(rotation, center),
            width=min(extent + _CLEARANCE, _MAX_WIDTH),
            quality=max(0.0, 1.0 - extent / _MAX_WIDTH),
        ))
    proposals.sort(key=lambda p: -p.quality)
    return proposals
