import numpy as np
import pytest

from vifuse.rotmath import quat_normalize


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_rotation(rng) -> np.ndarray:
    return quat_normalize(rng.standard_normal(4))


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
