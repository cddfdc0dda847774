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

One kernel evaluates every term, over a stack of windows that share a
camera and a rig (a WindowStack). Whatever does not depend on the positions
(the projection, the observed mask, the sensor gather and scatter and the
targets) is built once per stack, and for a window alone kept with its
Observations; the difference operators are built once per window length. An
evaluation computes the residuals of the active terms, each window's values,
then one weighted gradient; stack_energy gives every window's total, and
total_energy and the term functions are the stack of one. Every matrix
product runs once per window, so a window's results do not depend on the
stack it is in. The visual term alone needs no solver: visual_minimum gives
its minimum in closed form. normal_parts gives the pieces of the total's
Gauss-Newton normal matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

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
    _constants: WindowStack | None = field(default=None, init=False, repr=False, compare=False)

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
    """One evaluation's residual arrays over a stack of W windows, None for
    terms not evaluated.

    visual is (W, 2, N*J) px, one row per pixel axis; accel, bone and smooth
    are (W, rows, 3K) with the sensors' xyz side by side. pixel (W, 2, N*J)
    and inv_depth (W, N*J), 1 / camera depth with 1 where skipped, serve the
    visual gradient. behind_camera counts each window's skipped joints.
    """

    visual: np.ndarray | None
    accel: np.ndarray | None
    bone: np.ndarray | None
    smooth: np.ndarray | None
    behind_camera: list[int]
    pixel: np.ndarray | None = None
    inv_depth: np.ndarray | None = None

    def values(self) -> list[tuple[float, float, float, float]]:
        """Each window's four term values, 0 for terms not evaluated."""
        return [tuple(0.0 if r is None else float(np.vdot(r[i], r[i])) for r in self[:4])
                for i in range(len(self.behind_camera))]


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


def _stacked(observations: Sequence[Observations], name: str, n: int) -> np.ndarray:
    arrays = [getattr(obs, name) for obs in observations]
    for a in arrays:
        _check_frames(n, a, name)
    return np.array(arrays)


class WindowStack:
    """Everything the terms need that does not depend on the positions, for a
    stack of W windows of n frames, j joints at `fps` that share a camera,
    a rig and the streams they observe.

    Building it validates the observations against that layout; `require`
    then names a term whose observations are missing. Positions enter as
    (W, N, J, 3) and the gradient leaves in that shape; inside, the visual
    term works on (W, 3, N*J) rows u, v, w so that each operation runs over
    one long axis. Every matrix product runs once per window, so a window's
    values and gradient are bitwise the same in any stack.
    """

    def __init__(self, observations: Sequence[Observations], n: int, j: int, fps: float):
        self.key = (n, j, fps)
        first = observations[0]  # the camera and the rig of every window
        self.has_pixels = first.pixels is not None and first.camera is not None
        self.has_accel = first.accel is not None
        self.has_bones = first.bones is not None
        w, k = len(observations), len(first.sensor_joints)
        self.cols = 3 * k
        if self.has_pixels:
            pixels = _stacked(observations, "pixels", n)
            if pixels.shape[2] != j:
                raise ValueError("2D observations disagree with fragment joint count")
            p = first.camera.matrix
            self.proj = p[:, :3].copy()  # rows u, v, w = proj @ x + offset
            self.offset = p[:, 3:].copy()
            px = pixels.reshape(w, n * j, 2).swapaxes(1, 2)
            self.observed = np.isfinite(px).all(axis=1)
            self.target = np.where(self.observed[:, None], px, 0.0)
        if self.has_accel or self.has_bones:
            # Coordinates of the sensor joints, then of their parents; the
            # scatter adds each gathered column back onto its coordinate, so
            # sensors sharing a joint or a parent accumulate.
            joints = np.concatenate([first.sensor_joints, first.sensor_parents])
            self.gather = (3 * joints[:, None] + np.arange(3)).ravel()
            self.scatter = np.zeros((2 * self.cols, 3 * j))
            self.scatter[np.arange(2 * self.cols), self.gather] = 1.0
        if self.has_accel:
            accel = _stacked(observations, "accel", n)
            if accel.shape[2] != k:
                raise ValueError("accel rows disagree with sensor count")
            self.d2, self.d1, self.accel_gram, self.smooth_gram = _differences(n, fps)
            a = accel.reshape(w, n, self.cols)
            self.accel_target = a[:, 1:-1]
            self.smooth_target = (a[:, 2:-1] - a[:, 1:-2]) * fps
        if self.has_bones:
            bones = _stacked(observations, "bones", n)
            if bones.shape[2] != k:
                raise ValueError("bone rows disagree with sensor count")
            self.bone_target = bones.reshape(w, n, self.cols)

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

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Rows u, v, w of every (frame, joint) of each window: (W, 3, N*J)."""
        return self.proj @ x.reshape(len(x), -1, 3).swapaxes(1, 2) + self.offset

    def residuals(self, x: np.ndarray, active: tuple[bool, bool, bool, bool]) -> _Residuals:
        self.require(active)
        visual, accel, bone, smooth = active
        rv = pixel = inv_depth = None
        behind = [0] * len(x)
        if visual:
            h = self._project(x)
            w = h[:, 2]
            valid = self.observed
            if not (w > W_MIN).all():
                valid = valid & (w > W_MIN)
                behind = np.count_nonzero(self.observed & ~valid, axis=1).tolist()
                w = np.where(valid, w, 1.0)
            inv_depth = 1.0 / w
            pixel = h[:, :2] * inv_depth[:, None]
            rv = np.where(valid[:, None], pixel - self.target, 0.0)
        ra = rb = rs = None
        if accel or bone or smooth:
            xs = x.reshape(*x.shape[:2], -1)[..., self.gather]
            xj = xs[..., :self.cols]
            if bone:
                rb = xj - xs[..., self.cols:] - self.bone_target
            if accel or smooth:
                af = self.d2 @ xj
                if accel:
                    ra = af - self.accel_target
                if smooth:
                    rs = self.d1 @ af - self.smooth_target
        return _Residuals(rv, ra, rb, rs, behind, pixel, inv_depth)

    def gradient(self, res: _Residuals, weights: np.ndarray) -> np.ndarray:
        """Gradient of sum(weight * |residual|^2) over the evaluated terms, with
        one row of four term weights per window in `weights` (W, 4)."""
        wv, wa, wb, ws = (2.0 * weights.T)[:, :, None, None]
        w = len(weights)
        n, j, _ = self.key
        grad = np.zeros((w, n, 3 * j))
        if res.visual is not None:
            # d pixel / d(u, v, w) = [[1, 0, -pixel_u], [0, 1, -pixel_v]] / w
            a = res.visual * (wv * res.inv_depth[:, None])
            dh = np.empty((w, 3, a.shape[2]))
            dh[:, :2] = a
            np.negative(np.einsum("wij,wij->wj", a, res.pixel), out=dh[:, 2])
            grad = (dh.swapaxes(1, 2) @ self.proj).reshape(w, n, 3 * j)
        if res.accel is None and res.bone is None and res.smooth is None:
            return grad.reshape(w, n, j, 3)
        gx = np.zeros((w, n, 2 * self.cols))
        if res.accel is not None or res.smooth is not None:
            q = wa * res.accel if res.accel is not None else 0.0
            if res.smooth is not None:
                q = q + self.d1.T @ (ws * res.smooth)
            gx[..., :self.cols] = self.d2.T @ q
        if res.bone is not None:
            gb = wb * res.bone
            gx[..., :self.cols] += gb
            gx[..., self.cols:] = -gb
        grad += gx @ self.scatter
        return grad.reshape(w, n, j, 3)

    def normal_parts(self, x: np.ndarray, cfg: EnergyConfig, scales: Sequence[TermScales]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """normal_parts of every window at x (W, N, J, 3) under its scales:
        visual (W, N, J, 3, 3), temporal (W, N, N) and bone weights (W,)."""
        active = _active_terms(cfg)
        self.require(active)
        wv, wa, wb, ws = np.array([[2.0 * k / s if on else 0.0
                                    for on, k, s in zip(active, _term_weights(cfg), sc)]
                                   for sc in scales]).T
        w = len(x)
        n, j, _ = self.key
        visual = np.zeros((w, n * j, 3, 3))
        if active[0]:
            h = self._project(x)
            valid = self.observed & (h[:, 2] > W_MIN)
            inv_depth = np.where(valid, 1.0 / np.where(valid, h[:, 2], 1.0), 0.0)
            # The rows of the Jacobian of (u / w, v / w): (proj[a] - pixel_a proj[2]) / w.
            pixel = h[:, :2] * inv_depth[:, None]
            jac = (self.proj[:2, None, :] - pixel[..., None] * self.proj[2]) * (
                np.sqrt(wv)[:, None] * inv_depth)[:, None, :, None]
            visual = np.einsum("wapi,wapj->wpij", jac, jac)
        temporal = np.zeros((w, n, n))
        if active[1]:
            temporal += wa[:, None, None] * self.accel_gram
        if active[3]:
            temporal += ws[:, None, None] * self.smooth_gram
        return visual.reshape(w, n, j, 3, 3), temporal, wb


def _window(frag: Fragment, obs: Observations) -> WindowStack:
    """The stack of one window, built once and kept with its Observations."""
    key = (frag.frame_count, frag.joint_count, frag.fps)
    win = obs._constants
    if win is None or win.key != key:
        win = WindowStack((obs,), *key)
        object.__setattr__(obs, "_constants", win)
    return win


def _term(frag: Fragment, obs: Observations, index: int) -> TermValue:
    active = tuple(i == index for i in range(4))
    win = _window(frag, obs)
    res = win.residuals(frag.positions[None], active)
    grad = win.gradient(res, np.array([active], dtype=float))
    return TermValue(res.values()[0][index], grad[0], res.behind_camera[0])


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
    return _scales(_window(frag, obs).residuals(frag.positions[None], active).values()[0], active)


class StackValue(NamedTuple):
    """total_energy of each window of a stack: W values, gradients
    (W, N, J, 3), W behind-camera counts and the W scales used."""

    value: list[float]
    grad: np.ndarray | None
    behind_camera: list[int]
    scales: Sequence[TermScales]


def stack_energy(x: np.ndarray, stack: WindowStack, cfg: EnergyConfig,
                 scales: Sequence[TermScales] | None = None, gradient: bool = True) -> StackValue:
    """total_energy of every window of `stack` at positions x (W, N, J, 3),
    from one residual pass. Each window is normalized by its own scales, or
    by its term values at x when `scales` is None; cfg.scales is not read.
    Without `gradient`, grad is None."""
    active = _active_terms(cfg)
    res = stack.residuals(x, active)
    values = res.values()
    if scales is None:
        scales = [_scales(v, active) for v in values]
    term_weights = _term_weights(cfg)
    totals, weights = [], []
    for v, s in zip(values, scales):
        total = 0.0
        for on, k, vt, st in zip(active, term_weights, v, s):
            if on:
                total += k * vt / st
        totals.append(total)
        weights.append([k / st if on else 0.0 for on, k, st in zip(active, term_weights, s)])
    grad = stack.gradient(res, np.array(weights)) if gradient else None
    return StackValue(totals, grad, res.behind_camera, scales)


def total_energy(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermValue:
    """Weighted, normalized sum of the active terms, from one residual pass.

    With cfg.scales unset, scales are computed at `frag` itself, so the value
    at a fragment's initial point with the default weights is exactly
    k_visual + k_inertial * (k_accel + k_bone + k_smooth) = 1.0 whenever every
    active term is nonzero there. The returned `scales` are the ones used.
    """
    tv = stack_energy(frag.positions[None], _window(frag, obs), cfg,
                      None if cfg.scales is None else [cfg.scales])
    return TermValue(tv.value[0], tv.grad[0], tv.behind_camera[0], tv.scales[0])


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
    win = _window(frag, obs)
    win.require(_active_terms(cfg))
    scales = cfg.scales if cfg.scales is not None else term_scales(frag, obs, cfg)
    visual, temporal, bone = win.normal_parts(frag.positions[None], cfg, [scales])
    return visual[0], temporal[0], float(bone[0])
