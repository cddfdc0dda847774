"""Pinhole camera: world (mm) to pixel projection.

Camera frame follows the usual vision convention: x right, y down, z forward
(points in front of the camera have positive z). The full projection is the
3x4 matrix K [R | -R C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rotmath import ZeroVectorError, check_unit_quat, quat_from_matrix, quat_matrix

W_MIN = 1e-6  # perspective divide guard (mm in camera z)


class BehindCameraError(ValueError):
    """A point sits on or behind the camera plane, so projection is undefined."""


@dataclass(frozen=True)
class Camera:
    """Intrinsics (px), world-to-camera rotation, and camera center (mm)."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # (4,) unit quaternion (w, x, y, z), world -> camera frame
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_unit_quat(self.rotation, "camera rotation"))
        c = np.asarray(self.center, dtype=float)
        if c.shape != (3,):
            raise ValueError(f"camera center must be a 3-vector, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def matrix(self) -> np.ndarray:
        """3x4 projection, homogeneous world mm -> homogeneous pixels."""
        k = np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])
        r = quat_matrix(self.rotation)
        return k @ np.hstack([r, (-r @ self.center)[:, None]])

    def project(self, points: np.ndarray) -> np.ndarray:
        """Project (..., 3) world points to (..., 2) pixels.

        Raises BehindCameraError if any point has camera depth <= W_MIN.
        """
        u, v, w = _homogeneous(self.matrix, np.asarray(points, dtype=float))
        if np.any(w <= W_MIN):
            raise BehindCameraError(f"{int(np.sum(w <= W_MIN))} point(s) at or behind the camera plane")
        return np.stack([u / w, v / w], axis=-1)


def _homogeneous(p: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u = points @ p[0, :3] + p[0, 3]
    v = points @ p[1, :3] + p[1, 3]
    w = points @ p[2, :3] + p[2, 3]
    return u, v, w


def look_at(center, target, fx: float, fy: float, cx: float, cy: float, up=(0.0, 1.0, 0.0)) -> Camera:
    """Camera at `center` looking toward `target` with pixel y pointing down."""
    center = np.asarray(center, dtype=float)
    target = np.asarray(target, dtype=float)
    forward = target - center
    n = np.linalg.norm(forward)
    if n <= 1e-12:
        raise ZeroVectorError("camera center and target coincide")
    z_c = forward / n
    x_c = np.cross(z_c, np.asarray(up, dtype=float))
    nx = np.linalg.norm(x_c)
    if nx <= 1e-9:
        raise ZeroVectorError("camera viewing direction is parallel to the up vector")
    x_c /= nx
    y_c = np.cross(z_c, x_c)
    r = np.stack([x_c, y_c, z_c])
    return Camera(fx, fy, cx, cy, quat_from_matrix(r), center)
