"""Quaternion rotation primitives used throughout the kinematic pipeline.

Rotations are unit quaternions in (w, x, y, z) order, held as (..., 4) arrays
so that one call handles a single rotation or a whole (frames, joints) batch.
Every function broadcasts over the leading axes and returns quaternions with
the sign canonicalized to w >= 0, so every rotation has exactly one
representation. A rotation is just such an array; `check_unit_quat` guards
the single rotations that the camera and sensor calibrations store.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_EPS = 1e-12  # a vector or quaternion with norm at or below this has no direction
_ANTIPARALLEL_EPS = 1e-12
_REFERENCE_EPS = 1e-6

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
IDENTITY.setflags(write=False)


class ZeroVectorError(ValueError):
    """A direction was requested from a vector with near-zero norm."""


# Norms and dots are written out per component rather than reduced, so each
# batch element gets the same arithmetic whatever the batch shape.

def _norm3(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross's arithmetic, without the input copies it makes
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _as_unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{what} must be a 3-vector or (..., 3) array, got shape {v.shape}")
    n = _norm3(v)
    if (n <= ZERO_EPS).any():
        raise ZeroVectorError(f"{what} has near-zero norm ({float(np.min(n)):.3e})")
    return v / n[..., None]


def _canonicalize(q: np.ndarray) -> np.ndarray:
    # In place: flip each quaternion whose first nonzero component is negative.
    lead = q[..., :1]
    if (lead == 0.0).any():
        lead = np.take_along_axis(q, np.argmax(q != 0.0, axis=-1)[..., None], axis=-1)
    return np.negative(q, out=q, where=lead < 0.0)


def _normalize(q: np.ndarray) -> np.ndarray:
    # In place: unit length, then canonical sign.
    n = np.sqrt(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1]
                + q[..., 2] * q[..., 2] + q[..., 3] * q[..., 3])
    if (n <= ZERO_EPS).any():
        raise ZeroVectorError(f"quaternion has near-zero norm ({float(np.min(n)):.3e})")
    q /= n[..., None]
    return _canonicalize(q)


def quat_normalize(q) -> np.ndarray:
    """Unit-length, sign-canonical copy of (..., 4) quaternions: w >= 0,
    with w == 0 exactly broken by the first nonzero vector component.

    A finite quaternion too large for its squared norm (a component above
    1e150) is first scaled by a power of two, which leaves its direction exact.
    """
    q = np.array(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError(f"quaternions must have shape (..., 4), got {q.shape}")
    if q.max(initial=0.0) > 1e150 or q.min(initial=0.0) < -1e150:
        q *= np.where(np.abs(q).max(axis=-1, keepdims=True) > 1e150, 2.0 ** -600, 1.0)
    return _normalize(q)


def check_unit_quat(q, what: str) -> np.ndarray:
    """Read-only copy of one quaternion (4,) that is unit length and has w >= 0.

    Raises ValueError naming `what` otherwise. The caller's array stays
    writable, and later writes to it do not reach the copy.
    """
    q = np.array(q, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"{what} must be a quaternion of shape (4,), got {q.shape}")
    if not abs(math.sqrt(float(q @ q)) - 1.0) <= 1e-9:
        raise ValueError(f"{what} is not a unit quaternion")
    if not q[0] >= 0.0:
        raise ValueError(f"{what} is not canonical (w < 0)")
    q.setflags(write=False)
    return q


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product a * b (apply b first, then a), normalized."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return _normalize(out)


def quat_inverse(q) -> np.ndarray:
    """Inverse (conjugate) of unit quaternions."""
    return _normalize(np.asarray(q, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0]))


def quat_apply(q, v) -> np.ndarray:
    """Rotate (..., 3) vectors by (..., 4) unit quaternions."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    t = _cross(qv, v)
    t *= 2.0
    out = q[..., :1] * t
    out += v
    out += _cross(qv, t)
    return out


def quat_matrix(q) -> np.ndarray:
    """(..., 3, 3) rotation matrices of (..., 4) unit quaternions."""
    # Unpacking the transpose gives plain scalars for a single quaternion,
    # which keeps the camera matrix cheap.
    w, x, y, z = np.asarray(q, dtype=float).T
    m = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    return m.T.swapaxes(-1, -2)


def quat_from_matrix(m) -> np.ndarray:
    """Unit quaternion (4,) of one rotation matrix (orthonormal within 1e-6, det +1)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"rotation matrix must be 3x3, got {m.shape}")
    err = float(np.max(np.abs(m.T @ m - np.eye(3))))
    if err > 1e-6:
        raise ValueError(f"matrix is not orthonormal (max |M^T M - I| = {err:.3e})")
    if np.linalg.det(m) < 0.0:
        raise ValueError("matrix has negative determinant (reflection)")
    t = float(np.trace(m))
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return quat_normalize([w, x, y, z])


def quat_from_axis_angle(axis, angle) -> np.ndarray:
    """Rotations of `angle` radians about `axis` (axes need not be unit length)."""
    u = _as_unit(axis, "rotation axis")
    half = 0.5 * np.asarray(angle, dtype=float)
    q = np.empty(np.broadcast(half, u[..., 0]).shape + (4,))
    q[..., 0] = np.cos(half)
    np.multiply(np.sin(half)[..., None], u, out=q[..., 1:])
    return _normalize(q)


def angle_between(a, b):
    """Angle in [0, pi] between nonzero vectors (clamped arccos of the dot)."""
    d = _dot3(_as_unit(a, "first vector"), _as_unit(b, "second vector"))
    return np.arccos(np.clip(d, -1.0, 1.0))


def solve_rotation(src, dst) -> np.ndarray:
    """Minimal rotations (..., 4) taking the directions of `src` to those of `dst`.

    The rotation axis is the normalized cross product, so there is no twist
    about the source direction. Antiparallel inputs rotate 180 degrees about a
    deterministic axis orthogonal to `src`: the component of global +x
    orthogonal to `src`, falling back to +y where `src` is parallel to +x.
    """
    u = _as_unit(src, "source vector")
    v = _as_unit(dst, "target vector")
    u, v = np.broadcast_arrays(u, v)
    axis = _cross(u, v)
    s = _norm3(axis)
    d = _dot3(u, v)
    del v  # frame batches are large: drop each temporary once it is used
    angle = np.asarray(np.arctan2(s, d))
    aligned = s <= _ANTIPARALLEL_EPS  # parallel or antiparallel
    parallel = aligned & (d > 0.0)
    del d
    axis /= np.where(aligned, 1.0, s)[..., None]
    del s
    if aligned.any():
        ua = u[aligned]
        ref = np.array([1.0, 0.0, 0.0]) - ua[:, 0:1] * ua
        along_x = _norm3(ref) <= _REFERENCE_EPS
        ref[along_x] = np.array([0.0, 1.0, 0.0]) - ua[along_x, 1:2] * ua[along_x]
        axis[aligned] = ref
        angle[aligned] = math.pi
    q = quat_from_axis_angle(axis, angle)
    q[parallel] = IDENTITY
    return q
