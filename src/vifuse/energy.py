"""Fragment energy terms and the weighted total objective.

A fragment is a short window of N consecutive frames optimized jointly. Each
of the four terms is the sum of squares of one residual array over its
(N, J, 3) positions x. With K sensors bound to joints s_k whose parents are
p_k, pixels q, IMU accelerations a and sensor-predicted bones b:

  visual  - pi(x[n, j]) - q[n, j] for every observed joint (finite q) whose
            camera depth w is above W_MIN, where (u, v, w) = M x + o is the
            camera's 3x4 projection and pi(x) = (u / w, v / w)
  accel   - fps^2 (x[n+1, s_k] - 2 x[n, s_k] + x[n-1, s_k]) - a[n, k] for
            interior frames n = 1 .. N-2: fragment against IMU acceleration
  bone    - (x[n, s_k] - x[n, p_k]) - b[n, k] for every frame
  smooth  - fps (A[n+1, k] - A[n, k]) - fps (a[n+1, k] - a[n, k]) for
            n = 1 .. N-3, where A is the fragment acceleration of accel

Observed joints at or behind the camera plane are skipped and counted in
behind_camera instead of producing an unbounded residual. Every term returns
its value and the analytic gradient with respect to every fragment
coordinate. The total normalizes each active term by its value at the
fragment's initial point (clamped below at SCALE_FLOOR) so the weights act on
comparable magnitudes.

One kernel evaluates every term. Whatever does not depend on the positions
(the projection, the observed mask, the sensor gather and scatter and the
targets) is built once per window and kept with its Observations, the
difference operators once per window length; an evaluation computes the
residuals of the active terms, their values, then one weighted gradient. The
visual term alone needs no solver: visual_minimum gives its minimum in closed
form. normal_parts gives the pieces of the total's Gauss-Newton normal matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .camera import W_MIN, Camera
from .rotmath import quat_matrix

SCALE_FLOOR = 1e-9

DEFAULT_VISUAL_WEIGHT = 0.9
DEFAULT_INERTIAL_WEIGHT = 0.1
DEFAULT_ACCEL_WEIGHT = 0.5
DEFAULT_BONE_WEIGHT = 0.2
DEFAULT_SMOOTH_WEIGHT = 0.3
DEFAULT_THETA_T = math.radians(15.0)
DEFAULT_FRAGMENT_LEN = 50


class MissingObservationError(ValueError):
    """An energy term was evaluated without the observations it needs."""


@dataclass(frozen=True)
class Fragment:
    """Positions (N, J, 3) mm over N consecutive frames; `start` is the index of
    the first frame in the original sequence (negative inside leading padding)."""

    positions: np.ndarray
    fps: float
    start: int = 0

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if p.ndim != 3 or p.shape[2] != 3:
            raise ValueError(f"fragment positions must have shape (N, J, 3), got {p.shape}")
        if p.shape[0] < 3:
            raise ValueError(f"fragment needs at least 3 frames, got {p.shape[0]}")
        if self.fps <= 0.0:
            raise ValueError(f"frame rate must be positive, got {self.fps}")
        object.__setattr__(self, "positions", p)

    @property
    def frame_count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def joint_count(self) -> int:
        return int(self.positions.shape[1])


@dataclass(frozen=True)
class Observations:
    """Per-frame observations for one fragment.

    pixels: (N, J, 2) px with NaN rows for missing joints, or None.
    accel/bones: (N, K, 3) calibrated IMU accelerations / bone vectors, or None.
    sensor_joints/sensor_parents: (K,) bound joint index and its parent index.

    The arrays are read-only copies, so the window constants built from them
    on the first evaluation stay valid for the object's lifetime.
    """

    pixels: np.ndarray | None = None
    camera: Camera | None = None
    accel: np.ndarray | None = None
    bones: np.ndarray | None = None
    sensor_joints: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    sensor_parents: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    _constants: _Window | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        sj = _frozen(self.sensor_joints, int)
        pj = _frozen(self.sensor_parents, int)
        if sj.shape != pj.shape:
            raise ValueError("sensor_joints and sensor_parents must have the same length")
        object.__setattr__(self, "sensor_joints", sj)
        object.__setattr__(self, "sensor_parents", pj)
        for name in ("pixels", "accel", "bones"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, _frozen(a, float))


def _frozen(a, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


class TermValue(NamedTuple):
    """Scalar energy, gradient w.r.t. every fragment coordinate, and the number
    of observed joints skipped because they projected behind the camera.

    `scales` is set by total_energy to the denominators it normalized by:
    cfg.scales, or the ones it computed at the evaluation point.
    """

    value: float
    grad: np.ndarray
    behind_camera: int = 0
    scales: TermScales | None = None


class TermScales(NamedTuple):
    """Per-term normalization denominators, frozen at a fragment's initial point."""

    visual: float = 1.0
    accel: float = 1.0
    bone: float = 1.0
    smooth: float = 1.0


@dataclass(frozen=True)
class EnergyConfig:
    """Weights and knobs of the total objective.

    k_visual/k_inertial balance the two families; k_accel/k_bone/k_smooth
    weight the inertial terms internally. theta_t (rad) gates the IMU override
    in the per-frame IK stage; fragment_len is the window size N (even, >= 4).
    `scales` is normally filled by the optimizer at each fragment's initial
    point; when None, total_energy computes scales at the point it is given.
    """

    k_visual: float = DEFAULT_VISUAL_WEIGHT
    k_inertial: float = DEFAULT_INERTIAL_WEIGHT
    k_accel: float = DEFAULT_ACCEL_WEIGHT
    k_bone: float = DEFAULT_BONE_WEIGHT
    k_smooth: float = DEFAULT_SMOOTH_WEIGHT
    theta_t: float = DEFAULT_THETA_T
    fragment_len: int = DEFAULT_FRAGMENT_LEN
    scales: TermScales | None = None

    def __post_init__(self):
        for name in ("k_visual", "k_inertial", "k_accel", "k_bone", "k_smooth"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.k_visual == 0.0 and self.k_inertial == 0.0:
            raise ValueError("at least one of k_visual, k_inertial must be positive")
        if not 0.0 <= self.theta_t <= math.pi:
            raise ValueError(f"theta_t must lie in [0, pi], got {self.theta_t}")
        n = self.fragment_len
        if n < 4 or n % 2 != 0:
            raise ValueError(f"fragment_len must be even and >= 4, got {n}")

    @property
    def inertial_active(self) -> bool:
        """Whether any inertial term carries weight."""
        return any(_active_terms(self)[1:])

    def with_scales(self, frag: Fragment, obs: Observations) -> "EnergyConfig":
        return replace(self, scales=term_scales(frag, obs, self))


def _check_frames(n: int, arr: np.ndarray, name: str) -> None:
    if arr.shape[0] != n:
        raise ValueError(f"{name} covers {arr.shape[0]} frames, fragment has {n}")


class _Residuals(NamedTuple):
    """One evaluation's residual arrays, None for terms not evaluated.

    visual is (2, N*J) px, one row per pixel axis; accel, bone and smooth are
    (rows, 3K) with the sensors' xyz side by side. pixel (2, N*J) and
    inv_depth (N*J,), 1 / camera depth with 1 where skipped, serve the visual
    gradient.
    """

    visual: np.ndarray | None
    accel: np.ndarray | None
    bone: np.ndarray | None
    smooth: np.ndarray | None
    behind_camera: int = 0
    pixel: np.ndarray | None = None
    inv_depth: np.ndarray | None = None

    def values(self) -> tuple[float, float, float, float]:
        return tuple(0.0 if r is None else float(np.vdot(r, r)) for r in self[:4])


@functools.lru_cache(maxsize=16)
def _differences(n: int, fps: float) -> tuple[np.ndarray, ...]:
    """The second difference D2 (x fps^2) of n frames, the first difference D1
    (x fps) of its n - 2 rows, and the Gram matrices of D2 and of D1 D2.
    Read-only, since the cache hands them to every window of that length."""
    d2 = (np.eye(n - 2, n) - 2.0 * np.eye(n - 2, n, 1) + np.eye(n - 2, n, 2)) * (fps * fps)
    d1 = (np.eye(n - 3, n - 2, 1) - np.eye(n - 3, n - 2)) * fps
    out = (d2, d1, d2.T @ d2, (d1 @ d2).T @ (d1 @ d2))
    for a in out:
        a.setflags(write=False)
    return out


class _Window:
    """Everything the terms need that does not depend on the positions, for one
    window of n frames, j joints at `fps`.

    Building it validates the observations against that layout; `require`
    then names a term whose observations are missing. Positions enter as
    (N, J, 3) and the gradient leaves in that shape; inside, the visual term
    works on (3, N*J) rows u, v, w so that each operation runs over one long
    axis.
    """

    def __init__(self, obs: Observations, n: int, j: int, fps: float):
        self.key = (n, j, fps)
        self.has_pixels = obs.pixels is not None and obs.camera is not None
        self.has_accel = obs.accel is not None
        self.has_bones = obs.bones is not None
        k = len(obs.sensor_joints)
        self.cols = 3 * k
        if self.has_pixels:
            _check_frames(n, obs.pixels, "pixels")
            if obs.pixels.shape[1] != j:
                raise ValueError("2D observations disagree with fragment joint count")
            p = obs.camera.matrix
            self.proj = p[:, :3].copy()  # rows u, v, w = proj @ x + offset
            self.offset = p[:, 3:].copy()
            px = obs.pixels.reshape(n * j, 2).T
            self.observed = np.isfinite(px).all(axis=0)
            self.target = np.where(self.observed, px, 0.0)
        if self.has_accel or self.has_bones:
            # Coordinates of the sensor joints, then of their parents; the
            # scatter adds each gathered column back onto its coordinate, so
            # sensors sharing a joint or a parent accumulate.
            joints = np.concatenate([obs.sensor_joints, obs.sensor_parents])
            self.gather = (3 * joints[:, None] + np.arange(3)).ravel()
            self.scatter = np.zeros((2 * self.cols, 3 * j))
            self.scatter[np.arange(2 * self.cols), self.gather] = 1.0
        if self.has_accel:
            _check_frames(n, obs.accel, "accel")
            if obs.accel.shape[1] != k:
                raise ValueError("accel rows disagree with sensor count")
            self.d2, self.d1, self.accel_gram, self.smooth_gram = _differences(n, fps)
            a = obs.accel.reshape(n, self.cols)
            self.accel_target = a[1:-1]
            self.smooth_target = (a[2:-1] - a[1:-2]) * fps
        if self.has_bones:
            _check_frames(n, obs.bones, "bones")
            if obs.bones.shape[1] != k:
                raise ValueError("bone rows disagree with sensor count")
            self.bone_target = obs.bones.reshape(n, self.cols)

    def require(self, active: tuple[bool, bool, bool, bool]) -> None:
        visual, accel, bone, smooth = active
        if visual and not self.has_pixels:
            raise MissingObservationError("visual term requires 2D observations and a camera")
        if accel and not self.has_accel:
            raise MissingObservationError("acceleration term requires calibrated IMU accelerations")
        if bone and not self.has_bones:
            raise MissingObservationError("bone term requires sensor-predicted bone vectors")
        if smooth:
            if not self.has_accel:
                raise MissingObservationError("smoothness term requires calibrated IMU accelerations")
            if self.key[0] < 4:
                raise ValueError(f"smoothness term needs at least 4 frames, got {self.key[0]}")

    def residuals(self, x: np.ndarray, active: tuple[bool, bool, bool, bool]) -> _Residuals:
        self.require(active)
        visual, accel, bone, smooth = active
        rv = pixel = inv_depth = None
        behind = 0
        if visual:
            h = self.proj @ x.reshape(-1, 3).T + self.offset
            w = h[2]
            valid = self.observed
            if not (w > W_MIN).all():
                valid = valid & (w > W_MIN)
                behind = int(np.count_nonzero(self.observed & ~valid))
                w = np.where(valid, w, 1.0)
            inv_depth = 1.0 / w
            pixel = h[:2] * inv_depth
            rv = np.where(valid, pixel - self.target, 0.0)
        ra = rb = rs = None
        if accel or bone or smooth:
            xs = x.reshape(len(x), -1)[:, self.gather]
            xj = xs[:, :self.cols]
            if bone:
                rb = xj - xs[:, self.cols:] - self.bone_target
            if accel or smooth:
                af = self.d2 @ xj
                if accel:
                    ra = af - self.accel_target
                if smooth:
                    rs = self.d1 @ af - self.smooth_target
        return _Residuals(rv, ra, rb, rs, behind, pixel, inv_depth)

    def gradient(self, res: _Residuals, weights: tuple[float, float, float, float]) -> np.ndarray:
        """Gradient of sum(weight * |residual|^2) over the evaluated terms."""
        wv, wa, wb, ws = weights
        n, j, _ = self.key
        grad = np.zeros((n, 3 * j))
        if res.visual is not None:
            # d pixel / d(u, v, w) = [[1, 0, -pixel_u], [0, 1, -pixel_v]] / w
            a = res.visual * ((2.0 * wv) * res.inv_depth)
            dh = np.empty((3, a.shape[1]))
            dh[:2] = a
            np.negative(np.einsum("ij,ij->j", a, res.pixel), out=dh[2])
            grad = (dh.T @ self.proj).reshape(n, 3 * j)
        if res.accel is None and res.bone is None and res.smooth is None:
            return grad.reshape(n, j, 3)
        gx = np.zeros((n, 2 * self.cols))
        if res.accel is not None or res.smooth is not None:
            q = (2.0 * wa) * res.accel if res.accel is not None else 0.0
            if res.smooth is not None:
                q = q + self.d1.T @ ((2.0 * ws) * res.smooth)
            gx[:, :self.cols] = self.d2.T @ q
        if res.bone is not None:
            gb = (2.0 * wb) * res.bone
            gx[:, :self.cols] += gb
            gx[:, self.cols:] = -gb
        grad += gx @ self.scatter
        return grad.reshape(n, j, 3)


def _window(frag: Fragment, obs: Observations) -> _Window:
    key = (frag.frame_count, frag.joint_count, frag.fps)
    win = obs._constants
    if win is None or win.key != key:
        win = _Window(obs, *key)
        object.__setattr__(obs, "_constants", win)
    return win


def _term(frag: Fragment, obs: Observations, index: int) -> TermValue:
    active = tuple(i == index for i in range(4))
    win = _window(frag, obs)
    res = win.residuals(frag.positions, active)
    grad = win.gradient(res, tuple(float(on) for on in active))
    return TermValue(res.values()[index], grad, res.behind_camera)


def visual_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Sum of squared pixel errors over all observed joints.

    Missing observations (NaN) contribute zero. Observed joints whose point
    falls at or behind the camera plane are skipped and counted in
    behind_camera instead of producing an unbounded residual.
    """
    return _term(frag, obs, 0)


def visual_minimum(positions: np.ndarray, pixels: np.ndarray, camera: Camera) -> np.ndarray:
    """The minimum of the visual term alone nearest to `positions` (..., J, 3).

    Each (frame, joint) enters the visual term only through its own residual,
    whose zero set is the camera ray through its pixel: origin camera.center,
    direction R^T K^-1 [u, v, 1]. Every joint moves to the orthogonal
    projection of its start onto that ray. A joint keeps its start bit for
    bit when its pixel is missing, when its start depth is at or below W_MIN
    (the visual term skips it, so its gradient is zero), or when the
    projected point's depth is at or below W_MIN.
    """
    x = np.asarray(positions, dtype=float)
    px = np.asarray(pixels, dtype=float)
    observed = np.isfinite(px).all(axis=-1)
    px = np.where(observed[..., None], px, 0.0)
    r = quat_matrix(camera.rotation)
    rel = x - camera.center
    # Camera-frame ray direction K^-1 [u, v, 1], then into the world frame;
    # its camera depth is 1, so a point C + t d on the ray has depth t.
    k_inv = np.stack([(px[..., 0] - camera.cx) / camera.fx,
                      (px[..., 1] - camera.cy) / camera.fy,
                      np.ones(px.shape[:-1])], axis=-1)
    ray = k_inv @ r
    t = np.einsum("...i,...i->...", rel, ray) / np.einsum("...i,...i->...", ray, ray)
    move = observed & (rel @ r[2] > W_MIN) & (t > W_MIN)
    return np.where(move[..., None], camera.center + t[..., None] * ray, x)


def accel_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch between fragment and IMU accelerations at sensor joints.

    Fragment acceleration is the central second difference scaled by fps^2;
    only interior frames (1 .. N-2) carry a residual.
    """
    return _term(frag, obs, 1)


def bone_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch between fragment bone vectors and sensor-predicted bones."""
    return _term(frag, obs, 2)


def smooth_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch of acceleration first differences (jerk proxy, x fps).

    Needs at least 4 frames; residuals exist for frames 1 .. N-3.
    """
    return _term(frag, obs, 3)


def _term_weights(cfg: EnergyConfig) -> tuple[float, float, float, float]:
    ki = cfg.k_inertial
    return (cfg.k_visual, ki * cfg.k_accel, ki * cfg.k_bone, ki * cfg.k_smooth)


def _active_terms(cfg: EnergyConfig) -> tuple[bool, bool, bool, bool]:
    inertial = cfg.k_inertial > 0.0
    return (cfg.k_visual > 0.0, inertial and cfg.k_accel > 0.0,
            inertial and cfg.k_bone > 0.0, inertial and cfg.k_smooth > 0.0)


def _scales(values, active) -> TermScales:
    return TermScales(*(max(v, SCALE_FLOOR) if on else 1.0 for v, on in zip(values, active)))


def term_scales(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermScales:
    """Normalization denominators: each active term's value at `frag`, clamped
    below at SCALE_FLOOR. Inactive terms keep a scale of 1."""
    active = _active_terms(cfg)
    return _scales(_window(frag, obs).residuals(frag.positions, active).values(), active)


def total_energy(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermValue:
    """Weighted, normalized sum of the active terms, from one residual pass.

    With cfg.scales unset, scales are computed at `frag` itself, so the value
    at a fragment's initial point with the default weights is exactly
    k_visual + k_inertial * (k_accel + k_bone + k_smooth) = 1.0 whenever every
    active term is nonzero there. The returned `scales` are the ones used.
    """
    active = _active_terms(cfg)
    win = _window(frag, obs)
    res = win.residuals(frag.positions, active)
    values = res.values()
    scales = cfg.scales if cfg.scales is not None else _scales(values, active)
    value = 0.0
    weights = []
    for on, k, v, s in zip(active, _term_weights(cfg), values, scales):
        if on:
            value += k * v / s
        weights.append(k / s if on else 0.0)
    return TermValue(value, win.gradient(res, tuple(weights)), res.behind_camera, scales)


def normal_parts(frag: Fragment, obs: Observations, cfg: EnergyConfig
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    """The pieces of total_energy's Gauss-Newton normal matrix at `frag`.

    Returns the visual block 2 w J^T J of every (frame, joint) as
    (N, J, 3, 3), zero where the term skips the joint; the (N, N) matrix
    that the accel and smooth terms put on each coordinate of each sensor's
    joint; and the weight 2 w that the bone term puts on each sensor's
    joint-minus-parent difference. Each w is the term's weight over its
    scale in cfg.scales, or over its value at `frag` when that is None.
    """
    active = _active_terms(cfg)
    win = _window(frag, obs)
    win.require(active)
    scales = cfg.scales if cfg.scales is not None else term_scales(frag, obs, cfg)
    wv, wa, wb, ws = (2.0 * k / s if on else 0.0
                      for on, k, s in zip(active, _term_weights(cfg), scales))
    n, j, _ = win.key
    visual = np.zeros((n * j, 3, 3))
    if wv:
        h = win.proj @ frag.positions.reshape(-1, 3).T + win.offset
        valid = win.observed & (h[2] > W_MIN)
        inv_depth = np.where(valid, 1.0 / np.where(valid, h[2], 1.0), 0.0)
        # The rows of the Jacobian of (u / w, v / w): (proj[a] - pixel_a proj[2]) / w.
        pixel = h[:2] * inv_depth
        jac = (win.proj[:2, None, :] - pixel[:, :, None] * win.proj[2]) * (
            math.sqrt(wv) * inv_depth)[:, None]
        visual = np.einsum("api,apj->pij", jac, jac)
    temporal = np.zeros((n, n))
    if wa:
        temporal += wa * win.accel_gram
    if ws:
        temporal += ws * win.smooth_gram
    return visual.reshape(n, j, 3, 3), temporal, wb
