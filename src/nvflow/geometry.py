"""SE(3) transforms, pinhole camera geometry, and depth-map primitives.

Conventions used throughout the package:

* rotations are 3x3 row-major matrices with det +1; helper conversions to and
  from axis-angle vectors, and to wxyz quaternions, live here,
* an ``SE3Pose`` maps points as ``x_out = R @ x_in + t``,
* camera frames follow the pinhole convention (x right, y down, z forward),
  and depth is the camera-frame z coordinate in meters (a ``DepthMap`` may
  hold it as whole millimeters, as depth sensors report it),
* a depth value of exactly 0 marks an invalid pixel.

All public types are value-semantic: arrays are frozen on construction
(copied, unless the caller hands over a read-only array it owns), so
instances can be shared freely across threads.  The types that hold an
array, directly or through a pose, compare and hash by identity, in every
module: ``a == b`` is ``a is b``.  Compare their fields with
``np.array_equal`` instead.  Types made of scalars alone, such as
``CameraIntrinsics``, compare by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ROTATION_TOL",
    "SE3Pose",
    "CameraIntrinsics",
    "DepthMap",
    "project",
    "rotation_from_axis_angle",
    "axis_angle_from_rotation",
    "quaternion_from_rotation",
    "rotation_geodesic_angle",
    "se3_exp",
    "se3_log",
]

# Orthonormality tolerance for pose construction (Frobenius norm of R R^T - I).
ROTATION_TOL = 1e-9

# The 3x3 identity that small-matrix formulas add to, made once.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-d float64 vector, as ``np.linalg.norm`` forms
    it for one (the square root of ``v.dot(v)``), without its per-call
    checks."""
    return math.sqrt(v.dot(v))


def _frozen(a, dtype=float) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``; every module's value types store
    arrays this way.

    An ndarray of ``dtype`` that owns its data and is already read-only is
    kept as it is: whoever froze it hands it over and keeps no writable
    view of it.  Anything else is copied, so a caller's array never
    aliases the stored one.
    """
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata
            and not a.flags.writeable):
        return a
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


def _doc_fields(doc, casts: dict, extra: tuple[str, ...] = ()) -> dict:
    """Constructor arguments from the keys of a JSON object that ``casts`` names.

    Each present key is passed through its cast; an absent key is left out,
    so the constructor supplies the default its type declares.  Every JSON
    reader builds its types this way.  A key that neither ``casts`` nor
    ``extra`` names is an error, so a misspelled key cannot fall back to
    its default unseen; ``extra`` names the keys the caller reads itself
    or lets pass (a scene's ``image``, a document's ``description``).

    Raises:
        TypeError: ``doc`` is not a JSON object.
        ValueError: ``doc`` has a key that neither table names.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    for key in doc:
        if key not in casts and key not in extra:
            raise ValueError(f"unknown key {key!r}")
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


def _str(value) -> str:
    """A JSON string as itself; ``str`` would turn any value into one."""
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {value!r}")
    return value


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


@dataclass(frozen=True, eq=False)
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
        ortho_err = _norm((rot @ rot.T - _EYE3).ravel())
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
    def from_doc(cls, doc: dict, extra: tuple[str, ...] = ()) -> "SE3Pose":
        """Inverse of ``to_doc``; ``extra`` names the keys a caller's pose
        objects carry beside the two (see ``_doc_fields``)."""
        return cls(**_doc_fields(doc, {"rotation": lambda r: _floats(r).reshape(3, 3),
                                       "translation": _floats}, extra=extra))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (..., 3) array of points."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def compose(self, other: "SE3Pose") -> "SE3Pose":
        """Return the pose applying ``other`` first, then this one (matrix product)."""
        return SE3Pose(self.rotation @ other.rotation,
                       self.rotation @ other.translation + self.translation)

    def inverse(self) -> "SE3Pose":
        rot_inv = self.rotation.T
        return SE3Pose(rot_inv, -rot_inv @ self.translation)


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


def _meters(samples: np.ndarray) -> np.ndarray:
    """Depth samples in meters: uint16 millimeters divided by 1000.0, float
    meters as they are.  The division is the one a 16-bit PGM decodes by."""
    return samples / 1000.0 if samples.dtype == np.uint16 else samples


def _store_millimeters(meters: np.ndarray, out: np.ndarray) -> None:
    """Round float ``meters`` to whole millimeters into the uint16 ``out``.

    ``meters`` is a buffer the caller gives up: it is scaled and rounded in
    place.  0 stays 0, the invalid mark.

    Raises:
        ValueError: a sample rounds above 65535 mm, the 16-bit range.
    """
    meters *= 1000.0
    np.round(meters, out=meters)
    if meters.max() > 65535:
        raise ValueError("depth exceeds the 65.535 m range of 16-bit millimeters")
    out[...] = meters


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Per-pixel camera-frame z; exactly 0 marks an invalid pixel.

    ``samples`` holds either float meters or, as a depth sensor and the
    bundle's 16-bit PGMs store it, uint16 whole millimeters; a uint16 array
    is taken as millimeters, anything else as meters.  ``values`` is the
    map in float meters either way: a millimeter map's is computed on each
    access, ``samples / 1000.0``, so hold on to it rather than ask twice.
    """

    samples: np.ndarray  # (height, width) float meters or uint16 millimeters, row-major

    def __post_init__(self) -> None:
        millimeters = isinstance(self.samples, np.ndarray) and self.samples.dtype == np.uint16
        v = _frozen(self.samples, dtype=np.uint16 if millimeters else float)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"depth map must be a non-empty 2-d array, got shape {v.shape}")
        if not millimeters:
            if not np.isfinite(v).all():
                raise ValueError("depth map contains non-finite values")
            if (v < 0.0).any():
                raise ValueError("depth values must be non-negative (0 marks invalid)")
        object.__setattr__(self, "samples", v)

    @property
    def values(self) -> np.ndarray:
        """The map in float meters, read-only."""
        meters = _meters(self.samples)
        meters.flags.writeable = False
        return meters

    @property
    def valid(self) -> np.ndarray:
        return self.samples > 0


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
