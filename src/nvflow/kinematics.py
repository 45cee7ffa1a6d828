"""Serial-arm kinematics: forward kinematics, Jacobian, and damped IK.

Robots are fixed-base serial chains of revolute joints.  Joint ``j`` applies a
constant origin offset (pose of the joint frame in its parent link frame)
followed by a rotation of ``q_j`` about its axis; link frame ``j`` is the
frame after that rotation.  The end effector is a constant offset from the
last link.  Collision geometry is a set of spheres rigidly attached to links.

The robot JSON schema (see ``fixtures/arm7.json`` for a complete example):

    {
      "name": "arm7",
      "base_pose": {"rotation": [9 floats row-major], "translation": [3]},
      "joints": [
        {"axis": [0, 0, 1],
         "origin": {"rotation": [...], "translation": [...]},
         "q_min": -2.9, "q_max": 2.9, "velocity_limit": 2.5},
        ...
      ],
      "ee_offset": {"rotation": [...], "translation": [...]},
      "collision_spheres": [
        {"link": 0, "center": [0, 0, 0.1], "radius": 0.06}, ...
      ]
    }

Every pose object (``base_pose``, each joint ``origin``, ``ee_offset``) is
the one ``SE3Pose.to_doc`` writes.  ``base_pose`` is the pose of the base in
whatever frame the end-effector targets live in; it, ``collision_spheres``
and ``name`` may be left out, and then take the defaults ``RobotModel``
declares (the identity, none, and "").
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import (SE3Pose, _doc_fields, _doc_list, _float, _floats, _int, _skew,
                       axis_angle_from_rotation)

__all__ = [
    "Joint",
    "CollisionSphere",
    "RobotModel",
    "JointTrajectory",
    "IKOptions",
    "IKUnreachableError",
    "load_robot",
    "forward_kinematics",
    "link_frames_batch",
    "sphere_centers_batch",
    "world_axes",
    "point_jacobian",
    "jacobian",
    "solve_ik",
]


@dataclass(frozen=True)
class Joint:
    axis: np.ndarray          # (3,) unit vector in the joint frame
    origin: SE3Pose           # joint frame in the parent link frame
    q_min: float
    q_max: float
    velocity_limit: float     # rad/s
    # (K, K @ K) for the cross-product matrix K of the axis, which every
    # Rodrigues rotation about it reads
    _rodrigues: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        axis = np.array(self.axis, dtype=float)
        norm = np.linalg.norm(axis)
        if not np.isclose(norm, 1.0, atol=1e-6):
            raise ValueError(f"joint axis must be a unit vector, |axis| = {norm}")
        axis /= norm
        axis.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        k = _skew(axis)
        object.__setattr__(self, "_rodrigues", (k, k @ k))
        if not self.q_min < self.q_max:
            raise ValueError(f"empty joint range [{self.q_min}, {self.q_max}]")
        if self.velocity_limit <= 0.0:
            raise ValueError("velocity limit must be positive")


@dataclass(frozen=True)
class CollisionSphere:
    link: int                 # index of the link the sphere is attached to
    center: np.ndarray        # (3,) in the link frame
    radius: float

    def __post_init__(self) -> None:
        center = np.array(self.center, dtype=float)
        center.flags.writeable = False
        object.__setattr__(self, "center", center)
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class RobotModel:
    joints: tuple[Joint, ...]
    ee_offset: SE3Pose
    collision_spheres: tuple[CollisionSphere, ...] = ()
    base_pose: SE3Pose = field(default_factory=SE3Pose.identity)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "collision_spheres", tuple(self.collision_spheres))
        if len(self.joints) < 1:
            raise ValueError("a robot needs at least one joint")
        for sphere in self.collision_spheres:
            if not 0 <= sphere.link < len(self.joints):
                raise ValueError(f"collision sphere references link {sphere.link}, "
                                 f"robot has {len(self.joints)} links")

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def q_min(self) -> np.ndarray:
        return np.array([j.q_min for j in self.joints])

    @property
    def q_max(self) -> np.ndarray:
        return np.array([j.q_max for j in self.joints])

    @property
    def velocity_limits(self) -> np.ndarray:
        return np.array([j.velocity_limit for j in self.joints])


def robot_to_doc(model: RobotModel) -> dict:
    return {
        "name": model.name,
        "base_pose": model.base_pose.to_doc(),
        "joints": [
            {"axis": [float(x) for x in j.axis], "origin": j.origin.to_doc(),
             "q_min": j.q_min, "q_max": j.q_max, "velocity_limit": j.velocity_limit}
            for j in model.joints
        ],
        "ee_offset": model.ee_offset.to_doc(),
        "collision_spheres": [
            {"link": s.link, "center": [float(x) for x in s.center], "radius": s.radius}
            for s in model.collision_spheres
        ],
    }


def robot_from_doc(doc: dict) -> RobotModel:
    return RobotModel(**_doc_fields(doc, {
        "joints": lambda joints: tuple(
            Joint(axis=_floats(j["axis"]),
                  origin=SE3Pose.from_doc(j["origin"]),
                  q_min=_float(j["q_min"]), q_max=_float(j["q_max"]),
                  velocity_limit=_float(j["velocity_limit"]))
            for j in _doc_list(joints)),
        "ee_offset": SE3Pose.from_doc,
        "collision_spheres": lambda spheres: tuple(
            CollisionSphere(link=_int(s["link"]),
                            center=_floats(s["center"]),
                            radius=_float(s["radius"]))
            for s in _doc_list(spheres)),
        "base_pose": SE3Pose.from_doc,
        "name": str,
    }))


def load_robot(path) -> RobotModel:
    return robot_from_doc(json.loads(Path(path).read_text()))


def _axis_rotations(joint: Joint, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (B, 3, 3) about the joint's fixed unit axis."""
    k, kk = joint._rodrigues
    sin = np.sin(angles)[:, None, None]
    cos = np.cos(angles)[:, None, None]
    return np.eye(3) + sin * k + (1.0 - cos) * kk


def link_frames_batch(model: RobotModel, configs: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Link frames for a batch of (B, dof) configurations.

    Returns (rotations (B, dof, 3, 3), origins (B, dof, 3)) in the
    base-pose frame.  The link origin doubles as the joint position.
    """
    q = np.asarray(configs, dtype=float)
    if q.ndim != 2 or q.shape[1] != model.dof:
        raise ValueError(f"configs must be (B, {model.dof}), got {q.shape}")
    batch = q.shape[0]
    rot = np.broadcast_to(model.base_pose.rotation, (batch, 3, 3))
    pos = np.broadcast_to(model.base_pose.translation, (batch, 3))
    rotations = np.empty((batch, model.dof, 3, 3))
    origins = np.empty((batch, model.dof, 3))
    for j, joint in enumerate(model.joints):
        pos = pos + rot @ joint.origin.translation
        rot = rot @ joint.origin.rotation
        rot = rot @ _axis_rotations(joint, q[:, j])
        rotations[:, j] = rot
        origins[:, j] = pos
    return rotations, origins


class _Chain(NamedTuple):
    """Forward kinematics of one configuration, as arrays."""

    rotations: np.ndarray     # (dof, 3, 3) link frames
    origins: np.ndarray       # (dof, 3)
    ee_rotation: np.ndarray   # (3, 3) end effector
    ee_position: np.ndarray   # (3,)


def _chain(model: RobotModel, config: np.ndarray) -> _Chain:
    """Link frames and end-effector pose of one (dof,) configuration; the
    end effector is the last link composed with ``ee_offset`` by
    ``se3_compose``'s arithmetic."""
    rotations, origins = link_frames_batch(model, config[None, :])
    last_rot, last_pos = rotations[0, -1], origins[0, -1]
    ee = model.ee_offset
    return _Chain(rotations[0], origins[0], last_rot @ ee.rotation,
                  last_rot @ ee.translation + last_pos)


def _one_config(model: RobotModel, config: np.ndarray) -> np.ndarray:
    q = np.asarray(config, dtype=float)
    if q.shape != (model.dof,):
        raise ValueError(f"config must be ({model.dof},), got {q.shape}")
    return q


def forward_kinematics(model: RobotModel, config: np.ndarray) -> tuple[SE3Pose, list[SE3Pose]]:
    """End-effector pose and all link poses for one configuration."""
    chain = _chain(model, _one_config(model, config))
    links = [SE3Pose(rot, pos) for rot, pos in zip(chain.rotations, chain.origins)]
    return SE3Pose(chain.ee_rotation, chain.ee_position), links


def sphere_centers_batch(model: RobotModel, configs: np.ndarray,
                         return_frames: bool = False):
    """World centers (B, n, 3) of the collision spheres, in model order.

    With ``return_frames``, returns (centers, rotations, origins) with the
    link frames ``link_frames_batch`` gives.
    """
    rotations, origins = link_frames_batch(model, configs)
    centers = np.empty((rotations.shape[0], len(model.collision_spheres), 3))
    for i, sphere in enumerate(model.collision_spheres):
        link = sphere.link
        centers[:, i] = origins[:, link] + rotations[:, link] @ sphere.center
    return (centers, rotations, origins) if return_frames else centers


def sphere_radii(model: RobotModel) -> np.ndarray:
    return np.array([s.radius for s in model.collision_spheres])


def world_axes(model: RobotModel, rotations: np.ndarray) -> np.ndarray:
    """Joint axes (..., dof, 3) in the base-pose frame, from link frames
    (..., dof, 3, 3)."""
    axes = np.array([joint.axis for joint in model.joints])
    return (rotations @ axes[:, :, None])[..., 0]


def point_jacobian(axes: np.ndarray, origins: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """Velocity (..., dof, 3) of world points (..., 3) per unit rate of each
    joint, axis_j x (p - o_j), for points that every joint moves.

    ``axes`` are ``world_axes`` and ``origins`` the joint positions of the
    same link frames.  A point on link k does not move with joints after k:
    their rows are the caller's to drop.
    """
    return np.cross(axes, points[..., None, :] - origins)


def _jacobian(model: RobotModel, chain: _Chain) -> np.ndarray:
    """``jacobian`` from the forward kinematics ``_chain`` gives."""
    axes = world_axes(model, chain.rotations)
    jac = np.empty((6, model.dof))
    jac[:3] = point_jacobian(axes, chain.origins, chain.ee_position).T
    jac[3:] = axes.T
    return jac


def jacobian(model: RobotModel, config: np.ndarray) -> np.ndarray:
    """Geometric Jacobian at the end effector, (6, dof).

    Rows 0..2 are the linear velocity map, rows 3..5 the angular one, both in
    the base-pose frame with the end-effector origin as the reference point.
    """
    return _jacobian(model, _chain(model, _one_config(model, config)))


@dataclass(frozen=True)
class IKOptions:
    max_iters: int = 100
    pos_tol: float = 1e-4       # meters
    rot_tol: float = 1e-3       # radians
    damping: float = 0.05       # initial DLS damping, halved on improvement
    restarts: int = 8           # random restarts after the seed attempt
    seed: int = 0


class IKUnreachableError(RuntimeError):
    """IK failed to converge; carries the best residual found."""

    def __init__(self, pos_err: float, rot_err: float):
        super().__init__(
            f"IK unreachable: best residual {pos_err * 1000.0:.3f} mm, "
            f"{rot_err:.5f} rad")
        self.pos_err = pos_err
        self.rot_err = rot_err


def _pose_error(target: SE3Pose, rotation: np.ndarray,
                translation: np.ndarray) -> np.ndarray:
    """6-vector (position error, rotation log-map error) from a pose to target."""
    rot_err = axis_angle_from_rotation(target.rotation @ rotation.T)
    return np.concatenate([target.translation - translation, rot_err])


def solve_ik(model: RobotModel, target: SE3Pose, seed_config: np.ndarray | None = None,
             options: IKOptions = IKOptions()) -> np.ndarray:
    """Damped-least-squares IK with joint-limit clamping and random restarts.

    Starts from ``seed_config`` (mid-range when omitted); on stagnation, up to
    ``options.restarts`` further attempts start from seeded-random
    configurations inside the limits.  Deterministic for fixed inputs.
    Each iterate's forward kinematics is computed once: its link frames give
    both the pose error and the Jacobian, which a rejected step leaves as
    they were.

    Returns the first configuration meeting both tolerances.

    Raises:
        IKUnreachableError: no attempt converged; carries the best residual.
    """
    q_min, q_max = model.q_min, model.q_max
    if seed_config is None:
        seed_config = 0.5 * (q_min + q_max)
    seed_config = np.clip(np.asarray(seed_config, dtype=float), q_min, q_max)
    rng = np.random.default_rng(options.seed)
    eye = np.eye(model.dof)

    best_pos, best_rot = np.inf, np.inf
    for attempt in range(options.restarts + 1):
        if attempt == 0:
            q = seed_config.copy()
        else:
            q = rng.uniform(q_min, q_max)
        damping = options.damping
        chain = _chain(model, q)
        err = _pose_error(target, chain.ee_rotation, chain.ee_position)
        residual = np.linalg.norm(err)
        normal = None            # (J^T J, J^T err) at q, once asked for
        stall = 0
        for _ in range(options.max_iters):
            pos_err = float(np.linalg.norm(err[:3]))
            rot_err = float(np.linalg.norm(err[3:]))
            if pos_err + rot_err < best_pos + best_rot:
                best_pos, best_rot = pos_err, rot_err
            if pos_err <= options.pos_tol and rot_err <= options.rot_tol:
                return q
            if normal is None:
                jac = _jacobian(model, chain)
                normal = jac.T @ jac, jac.T @ err
            step = np.linalg.solve(normal[0] + damping**2 * eye, normal[1])
            q_new = np.clip(q + step, q_min, q_max)
            chain_new = _chain(model, q_new)
            err_new = _pose_error(target, chain_new.ee_rotation, chain_new.ee_position)
            residual_new = np.linalg.norm(err_new)
            if residual_new < residual:
                q, chain, err, residual = q_new, chain_new, err_new, residual_new
                normal = None
                damping = max(damping * 0.5, 1e-6)
                stall = 0
            else:
                damping = min(damping * 4.0, 1e3)
                stall += 1
                if stall >= 10:
                    break  # restart from a new random configuration
    raise IKUnreachableError(best_pos, best_rot)


@dataclass(frozen=True)
class JointTrajectory:
    """Discrete joint-space trajectory with a fixed timestep."""

    configs: np.ndarray   # (T, dof)
    dt: float             # seconds between consecutive configurations

    def __post_init__(self) -> None:
        configs = np.array(self.configs, dtype=float)
        if configs.ndim != 2 or configs.shape[0] < 2:
            raise ValueError(f"trajectory must be (T >= 2, dof), got {configs.shape}")
        if not np.isfinite(configs).all():
            raise ValueError("trajectory contains non-finite values")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        configs.flags.writeable = False
        object.__setattr__(self, "configs", configs)

    @property
    def steps(self) -> int:
        return self.configs.shape[0]

    def to_csv(self, path) -> None:
        """CSV rows (t, q_0, ..., q_{dof-1}) with 9 significant digits."""
        dof = self.configs.shape[1]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + [f"q_{j}" for j in range(dof)])
            for t, row in enumerate(self.configs):
                writer.writerow([str(t)] + [f"{v:.9g}" for v in row])
