import numpy as np
import pytest

from vifuse import CalibrationSet, SensorCalibration
from vifuse.rotmath import quat_normalize


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_rotation(rng) -> np.ndarray:
    return quat_normalize(rng.standard_normal(4))


def dense_calibration(seed: int = 11) -> CalibrationSet:
    """A 13-sensor rig with seeded mounting rotations, built as
    synth.default_calibration builds its eight: the default limb sensors plus
    spine, chest, head and both shoulders. The torso becomes one chain of eight
    sensor joints beside a chain of one (head) and two of two (the legs)."""
    rng = np.random.default_rng(seed)
    joints = ("spine", "chest", "head", "l_shoulder", "l_elbow", "l_wrist", "r_shoulder",
              "r_elbow", "r_wrist", "l_knee", "l_ankle", "r_knee", "r_ankle")
    return CalibrationSet(tuple(
        SensorCalibration(f"imu_{joint}", joint, random_rotation(rng), random_rotation(rng))
        for joint in joints))


def rot_distance(a, b) -> float:
    """Small-angle-accurate rotation distance: angle ~ 2 * quaternion distance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))
    return 2.0 * d


def rot_angle(q):
    """Angle in [0, pi] of the rotations of (..., 4) unit quaternions with w >= 0."""
    return 2.0 * np.arccos(np.minimum(1.0, np.asarray(q)[..., 0]))


def rot_angle_between(a, b):
    """Angular distance in [0, pi] between (..., 4) unit quaternions."""
    d = np.abs(np.sum(np.asarray(a) * np.asarray(b), axis=-1))
    return 2.0 * np.arccos(np.minimum(1.0, d))


def fd_gradient(fun, x: np.ndarray, h_rel: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=float).ravel()
    g = np.empty_like(x)
    for i in range(x.size):
        h = h_rel * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom))
