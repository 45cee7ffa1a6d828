"""SE(3) transforms, pinhole camera geometry, and depth-map primitives.

Conventions used throughout the package:

* rotations are 3x3 row-major matrices with det +1; helper conversions to and
  from axis-angle vectors and wxyz quaternions live here,
* an ``SE3Pose`` maps points as ``x_out = R @ x_in + t``,
* camera frames follow the pinhole convention (x right, y down, z forward),
  and depth is the camera-frame z coordinate in meters,
* a depth value of exactly 0 marks an invalid pixel.

All public types are value-semantic: arrays are copied on construction and
frozen, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROTATION_TOL",
    "SE3Pose",
    "CameraIntrinsics",
    "DepthMap",
    "se3_compose",
    "se3_inverse",
    "project",
    "rotation_from_axis_angle",
    "axis_angle_from_rotation",
    "rotation_from_quaternion",
    "quaternion_from_rotation",
    "rotation_geodesic_angle",
    "se3_exp",
    "se3_log",
    "screw_interpolate",
]

# Orthonormality tolerance for pose construction (Frobenius norm of R R^T - I).
ROTATION_TOL = 1e-9


def _frozen(a, dtype=float) -> np.ndarray:
    """Read-only copy of ``a``; every module's value types store arrays this way."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _doc_fields(doc, casts: dict) -> dict:
    """Constructor arguments from the keys of a JSON object that ``casts`` names.

    Each present key is passed through its cast; an absent key is left out,
    so the constructor supplies the default its type declares.  Every JSON
    reader builds its types this way, and unknown keys are ignored.

    Raises:
        TypeError: ``doc`` is not a JSON object.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return {key: cast(doc[key]) for key, cast in casts.items() if key in doc}


def _int(value) -> int:
    """A JSON integer as itself; ``_doc_fields`` tables cast integer keys with it.

    ``int`` would truncate 21.7 to 21 and parse "8", and JSON true is an
    ``int`` to Python; each of these is a TypeError here instead.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def _float(value) -> float:
    """A JSON number as a float; a string or true/false is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def _floats(value) -> np.ndarray:
    """A JSON array of numbers, nested to any depth, as a float array.

    ``np.asarray(value, dtype=float)`` would parse "1" and read true as
    1.0; each element goes through ``_float`` instead, so either is a
    TypeError, as is a value that is not an array.  Shapes are left to the
    caller; a ragged array is a ValueError.
    """
    pending = [_doc_list(value)]
    while pending:
        for item in pending.pop():
            if isinstance(item, list):
                pending.append(item)
            else:
                _float(item)
    return np.array(value, dtype=float)


def _bool(value) -> bool:
    """JSON true or false; ``bool`` would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected JSON true or false, got {value!r}")
    return value


def _doc_list(doc) -> list:
    """``doc`` itself, once checked to be a JSON array.

    A JSON object in its place would iterate as its keys, so an object where
    a list belongs would read as an empty or default list.

    Raises:
        TypeError: ``doc`` is not a JSON array.
    """
    if not isinstance(doc, list):
        raise TypeError(f"expected a JSON array, got {type(doc).__name__}")
    return doc


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


@dataclass(frozen=True)
class SE3Pose:
    """Rigid transform mapping points as ``rotation @ x + translation``."""

    rotation: np.ndarray     # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,) meters

    def __post_init__(self) -> None:
        rot = _frozen(self.rotation)
        trans = _frozen(self.translation)
        if rot.shape != (3, 3) or trans.shape != (3,):
            raise ValueError(
                f"pose needs (3, 3) rotation and (3,) translation, "
                f"got {rot.shape} and {trans.shape}"
            )
        if not (np.isfinite(rot).all() and np.isfinite(trans).all()):
            raise ValueError("pose contains non-finite values")
        ortho_err = np.linalg.norm(rot @ rot.T - np.eye(3))
        if ortho_err > ROTATION_TOL:
            raise ValueError(f"rotation is not orthonormal (|R R^T - I|_F = {ortho_err:.3e})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation determinant is {det:.12f}, not +1 (reflection?)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)

    @classmethod
    def identity(cls) -> "SE3Pose":
        return cls(np.eye(3), np.zeros(3))

    def to_doc(self) -> dict:
        """The JSON pose object: 9 row-major rotation floats and 3 translation floats."""
        return {"rotation": [float(x) for x in self.rotation.ravel()],
                "translation": [float(x) for x in self.translation]}

    @classmethod
    def from_doc(cls, doc: dict) -> "SE3Pose":
        return cls(_floats(doc["rotation"]).reshape(3, 3), _floats(doc["translation"]))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (..., 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        return se3_compose(self, other)

    def inverse(self) -> "SE3Pose":
        return se3_inverse(self)

    def allclose(self, other: "SE3Pose", atol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.rotation, other.rotation, rtol=0.0, atol=atol)
            and np.allclose(self.translation, other.translation, rtol=0.0, atol=atol)
        )


def se3_compose(a: SE3Pose, b: SE3Pose) -> SE3Pose:
    """Return the pose applying ``b`` first, then ``a`` (matrix product a.b)."""
    return SE3Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def se3_inverse(a: SE3Pose) -> SE3Pose:
    rot_inv = a.rotation.T
    return SE3Pose(rot_inv, -rot_inv @ a.translation)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; pixel coordinates have the origin at the top-left."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")
        if not (np.isfinite(self.fx) and np.isfinite(self.fy)
                and np.isfinite(self.cx) and np.isfinite(self.cy)):
            raise ValueError("intrinsics contain non-finite values")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel camera-frame z in meters; exactly 0 marks an invalid pixel."""

    values: np.ndarray  # (height, width) float, row-major

    def __post_init__(self) -> None:
        v = _frozen(self.values)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"depth map must be a non-empty 2-d array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("depth map contains non-finite values")
        if (v < 0.0).any():
            raise ValueError("depth values must be non-negative (0 marks invalid)")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def valid(self) -> np.ndarray:
        return self.values > 0.0


def project(intrinsics: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Project camera-frame points (..., 3) to pixel coordinates (..., 2).

    Raises:
        ValueError: if any point has non-positive depth ("behind camera").
    """
    p = np.asarray(points, dtype=float)
    if p.shape[-1] != 3:
        raise ValueError(f"points must have a trailing dimension of 3, got {p.shape}")
    z = p[..., 2]
    if np.any(z <= 0.0):
        raise ValueError("cannot project a point behind camera (z <= 0)")
    uv = np.empty(p.shape[:-1] + (2,))
    uv[..., 0] = intrinsics.fx * p[..., 0] / z + intrinsics.cx
    uv[..., 1] = intrinsics.fy * p[..., 1] / z + intrinsics.cy
    return uv


def rotation_from_axis_angle(axis_angle: np.ndarray) -> np.ndarray:
    """Rodrigues formula; the vector's norm is the rotation angle in radians."""
    v = np.asarray(axis_angle, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"axis-angle vector must be (3,), got {v.shape}")
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        # Second-order Taylor expansion keeps small rotations exact to float precision.
        w = _skew(v)
        return np.eye(3) + w + 0.5 * (w @ w)
    w = _skew(v / theta)
    return np.eye(3) + np.sin(theta) * w + (1.0 - np.cos(theta)) * (w @ w)


def quaternion_from_rotation(rotation: np.ndarray) -> np.ndarray:
    """Matrix to unit quaternion (w, x, y, z), w >= 0 branch."""
    m = np.asarray(rotation, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation must be (3, 3), got {m.shape}")
    # Shepperd's method: pick the largest of the four squared components.
    trace = m[0, 0] + m[1, 1] + m[2, 2]
    choices = np.array([trace, m[0, 0], m[1, 1], m[2, 2]])
    case = int(np.argmax(choices))
    if case == 0:
        s = np.sqrt(trace + 1.0) * 2.0
        q = np.array([
            0.25 * s,
            (m[2, 1] - m[1, 2]) / s,
            (m[0, 2] - m[2, 0]) / s,
            (m[1, 0] - m[0, 1]) / s,
        ])
    elif case == 1:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([
            (m[2, 1] - m[1, 2]) / s,
            0.25 * s,
            (m[0, 1] + m[1, 0]) / s,
            (m[0, 2] + m[2, 0]) / s,
        ])
    elif case == 2:
        s = np.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2]) * 2.0
        q = np.array([
            (m[0, 2] - m[2, 0]) / s,
            (m[0, 1] + m[1, 0]) / s,
            0.25 * s,
            (m[1, 2] + m[2, 1]) / s,
        ])
    else:
        s = np.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2]) * 2.0
        q = np.array([
            (m[1, 0] - m[0, 1]) / s,
            (m[0, 2] + m[2, 0]) / s,
            (m[1, 2] + m[2, 1]) / s,
            0.25 * s,
        ])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


def rotation_from_quaternion(quat_wxyz: np.ndarray) -> np.ndarray:
    q = np.asarray(quat_wxyz, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"quaternion must be (4,) in wxyz order, got {q.shape}")
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("quaternion has near-zero norm")
    w, x, y, z = q / n
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def axis_angle_from_rotation(rotation: np.ndarray) -> np.ndarray:
    """Matrix to axis-angle vector; angle in [0, pi], robust near 0 and pi."""
    w, x, y, z = quaternion_from_rotation(rotation)
    vec_norm = np.linalg.norm([x, y, z])
    theta = 2.0 * np.arctan2(vec_norm, w)
    if vec_norm < 1e-12:
        return np.zeros(3)
    return np.array([x, y, z]) / vec_norm * theta


def rotation_geodesic_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic distance in radians between two rotation matrices."""
    rel = np.asarray(a, dtype=float) @ np.asarray(b, dtype=float).T
    cos_theta = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(cos_theta))


def se3_exp(twist: np.ndarray) -> SE3Pose:
    """Exponential map from a twist (omega, v), each (3,), to a pose."""
    xi = np.asarray(twist, dtype=float)
    if xi.shape != (6,):
        raise ValueError(f"twist must be (6,), got shape {xi.shape}")
    omega, v = xi[:3], xi[3:]
    theta = np.linalg.norm(omega)
    rot = rotation_from_axis_angle(omega)
    if theta < 1e-9:
        w = _skew(omega)
        vmat = np.eye(3) + 0.5 * w + (w @ w) / 6.0
    else:
        w = _skew(omega)
        vmat = (
            np.eye(3)
            + (1.0 - np.cos(theta)) / theta**2 * w
            + (theta - np.sin(theta)) / theta**3 * (w @ w)
        )
    return SE3Pose(rot, vmat @ v)


def se3_log(pose: SE3Pose) -> np.ndarray:
    """Logarithm map; inverse of :func:`se3_exp` for angles in [0, pi)."""
    omega = axis_angle_from_rotation(pose.rotation)
    theta = np.linalg.norm(omega)
    w = _skew(omega)
    if theta < 1e-9:
        vmat_inv = np.eye(3) - 0.5 * w + (w @ w) / 12.0
    else:
        vmat_inv = (
            np.eye(3)
            - 0.5 * w
            + (1.0 / theta**2 - (1.0 + np.cos(theta)) / (2.0 * theta * np.sin(theta))) * (w @ w)
        )
    return np.concatenate([omega, vmat_inv @ pose.translation])


def screw_interpolate(a: SE3Pose, b: SE3Pose, tau: float) -> SE3Pose:
    """Constant-twist interpolation from ``a`` (tau=0) to ``b`` (tau=1)."""
    delta = se3_log(se3_compose(se3_inverse(a), b))
    return se3_compose(a, se3_exp(tau * delta))
