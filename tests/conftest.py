"""Shared test helpers: random rotations/poses and small reference robots.

The robot builders (``planar_two_link``, ``one_link_with_sphere``,
``spinner_with_tip_sphere``) and the rotation helpers (``random_rotation``,
``random_pose``, ``rotation_distance``) and the oracle inputs
(``tie_heavy_arrays``, ``assert_same_float``) are plain functions, not fixtures:
import them with ``from conftest import ...`` and call them, e.g.
``model = planar_two_link()``.  Naming one as a test parameter makes pytest
look for a fixture of that name and error at setup.  ``rng`` is the only
fixture defined here.
"""

import numpy as np
import pytest

from nvflow.geometry import SE3Pose
from nvflow.kinematics import CollisionSphere, Joint, RobotModel


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a normalized random quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def random_pose(rng: np.random.Generator, trans_scale: float = 1.0) -> SE3Pose:
    return SE3Pose(random_rotation(rng), trans_scale * rng.standard_normal(3))


def rotation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between rotation matrices."""
    return float(np.linalg.norm(a - b))


def planar_two_link() -> RobotModel:
    """Two unit links rotating about z in the xy plane; ee at the tip."""
    return RobotModel(
        joints=(
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=-np.pi, q_max=np.pi, velocity_limit=5.0),
            Joint(axis=np.array([0.0, 0.0, 1.0]),
                  origin=SE3Pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
                  q_min=-np.pi, q_max=np.pi, velocity_limit=5.0),
        ),
        ee_offset=SE3Pose(np.eye(3), np.array([1.0, 0.0, 0.0])),
        name="planar2",
    )


def one_link_with_sphere(radius: float = 0.1) -> RobotModel:
    """One z-joint whose link carries a single collision sphere at the origin."""
    return RobotModel(
        joints=(
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=-2.0 * np.pi, q_max=2.0 * np.pi, velocity_limit=10.0),
        ),
        ee_offset=SE3Pose.identity(),
        collision_spheres=(CollisionSphere(link=0, center=np.zeros(3), radius=radius),),
        name="point",
    )


def spinner_with_tip_sphere(arm: float = 1.0, radius: float = 0.05) -> RobotModel:
    """One z-joint with a collision sphere at distance ``arm`` along local x."""
    return RobotModel(
        joints=(
            Joint(axis=np.array([0.0, 0.0, 1.0]), origin=SE3Pose.identity(),
                  q_min=-2.0 * np.pi, q_max=2.0 * np.pi, velocity_limit=10.0),
        ),
        ee_offset=SE3Pose(np.eye(3), np.array([arm, 0.0, 0.0])),
        collision_spheres=(
            CollisionSphere(link=0, center=np.array([arm, 0.0, 0.0]), radius=radius),
        ),
        name="spinner",
    )


def tie_heavy_arrays(rng, count=3000):
    """Random 1-d arrays of sizes 1-60, odd and even, many with repeated values.

    One in four is drawn from {-1, -0.0, +0.0, 1}, so signed zeros tie too.
    """
    for i in range(count):
        n = int(rng.integers(1, 61))
        kind = i % 4
        if kind == 0:
            yield rng.standard_normal(n)
        elif kind == 1:
            yield rng.integers(-3, 4, n).astype(float)
        elif kind == 2:
            yield rng.choice([-1.0, -0.0, 0.0, 1.0], n)
        else:
            yield np.round(rng.uniform(0.2, 5.0, n), 1)


def assert_same_float(got, want):
    assert isinstance(got, float)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
