"""Fragment energy terms and the weighted total objective.

A fragment is a short window of consecutive frames optimized jointly. Four
quadratic terms are defined over its (N, J, 3) positions:

  visual  - squared pixel reprojection error against 2D observations
  accel   - second central difference of sensor-joint trajectories (x fps^2)
            against the calibrated gravity-free IMU accelerations
  bone    - sensor-joint bone vectors against the sensor-predicted bones
  smooth  - first difference of those accelerations (x fps) against the same
            difference of the IMU accelerations

All terms return the scalar value and the analytic gradient with respect to
every fragment coordinate. The total normalizes each active term by its value
at the fragment's initial point (clamped below at SCALE_FLOOR) so the weights
act on comparable magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .camera import W_MIN, Camera

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
    """

    pixels: np.ndarray | None = None
    camera: Camera | None = None
    accel: np.ndarray | None = None
    bones: np.ndarray | None = None
    sensor_joints: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    sensor_parents: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))

    def __post_init__(self):
        sj = np.asarray(self.sensor_joints, dtype=int)
        pj = np.asarray(self.sensor_parents, dtype=int)
        if sj.shape != pj.shape:
            raise ValueError("sensor_joints and sensor_parents must have the same length")
        object.__setattr__(self, "sensor_joints", sj)
        object.__setattr__(self, "sensor_parents", pj)
        for name in ("pixels", "accel", "bones"):
            a = getattr(self, name)
            if a is not None:
                object.__setattr__(self, name, np.asarray(a, dtype=float))


class TermValue(NamedTuple):
    """Scalar energy, gradient w.r.t. every fragment coordinate, and the number
    of observed joints skipped because they projected behind the camera."""

    value: float
    grad: np.ndarray
    behind_camera: int = 0


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

    def with_scales(self, frag: Fragment, obs: Observations) -> "EnergyConfig":
        return replace(self, scales=term_scales(frag, obs, self))


def _check_frames(frag: Fragment, arr: np.ndarray, name: str) -> None:
    if arr.shape[0] != frag.frame_count:
        raise ValueError(f"{name} covers {arr.shape[0]} frames, fragment has {frag.frame_count}")


def visual_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Sum of squared pixel errors over all observed joints.

    Missing observations (NaN) contribute zero. Observed joints whose point
    falls at or behind the camera plane are skipped and counted in
    behind_camera instead of producing an unbounded residual.
    """
    if obs.pixels is None or obs.camera is None:
        raise MissingObservationError("visual term requires 2D observations and a camera")
    _check_frames(frag, obs.pixels, "pixels")
    if obs.pixels.shape[1] != frag.joint_count:
        raise ValueError("2D observations disagree with fragment joint count")
    p = obs.camera.matrix
    x = frag.positions
    u = x @ p[0, :3] + p[0, 3]
    v = x @ p[1, :3] + p[1, 3]
    w = x @ p[2, :3] + p[2, 3]
    observed = np.isfinite(obs.pixels).all(axis=-1)
    valid = observed & (w > W_MIN)
    behind = int(np.sum(observed & ~valid))
    safe_w = np.where(valid, w, 1.0)
    un = u / safe_w
    vn = v / safe_w
    du = np.where(valid, un - obs.pixels[..., 0], 0.0)
    dv = np.where(valid, vn - obs.pixels[..., 1], 0.0)
    value = float(np.sum(du * du + dv * dv))
    gu = (p[0, :3] - un[..., None] * p[2, :3]) / safe_w[..., None]
    gv = (p[1, :3] - vn[..., None] * p[2, :3]) / safe_w[..., None]
    grad = 2.0 * (du[..., None] * gu + dv[..., None] * gv)
    return TermValue(value, grad, behind)


def _require_imu(frag: Fragment, obs: Observations, what: str) -> np.ndarray:
    if obs.accel is None:
        raise MissingObservationError(f"{what} term requires calibrated IMU accelerations")
    _check_frames(frag, obs.accel, "accel")
    if obs.accel.shape[1] != len(obs.sensor_joints):
        raise ValueError("accel rows disagree with sensor count")
    return obs.accel


def accel_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch between fragment and IMU accelerations at sensor joints.

    Fragment acceleration is the central second difference scaled by fps^2;
    only interior frames (1 .. N-2) carry a residual.
    """
    accel = _require_imu(frag, obs, "acceleration")
    fps2 = frag.fps * frag.fps
    xs = frag.positions[:, obs.sensor_joints, :]
    af = (xs[2:] - 2.0 * xs[1:-1] + xs[:-2]) * fps2
    r = af - accel[1:-1]
    value = float(np.sum(r * r))
    c = 2.0 * fps2 * r
    gs = np.zeros_like(xs)
    gs[2:] += c
    gs[1:-1] -= 2.0 * c
    gs[:-2] += c
    grad = np.zeros_like(frag.positions)
    np.add.at(grad, (slice(None), obs.sensor_joints), gs)
    return TermValue(value, grad)


def bone_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch between fragment bone vectors and sensor-predicted bones."""
    if obs.bones is None:
        raise MissingObservationError("bone term requires sensor-predicted bone vectors")
    _check_frames(frag, obs.bones, "bones")
    if obs.bones.shape[1] != len(obs.sensor_joints):
        raise ValueError("bone rows disagree with sensor count")
    bf = frag.positions[:, obs.sensor_joints, :] - frag.positions[:, obs.sensor_parents, :]
    r = bf - obs.bones
    value = float(np.sum(r * r))
    grad = np.zeros_like(frag.positions)
    # Sensors may share a parent joint, so accumulate rather than assign.
    np.add.at(grad, (slice(None), obs.sensor_joints), 2.0 * r)
    np.add.at(grad, (slice(None), obs.sensor_parents), -2.0 * r)
    return TermValue(value, grad)


def smooth_energy(frag: Fragment, obs: Observations) -> TermValue:
    """Squared mismatch of acceleration first differences (jerk proxy, x fps).

    Needs at least 4 frames; residuals exist for frames 1 .. N-3.
    """
    accel = _require_imu(frag, obs, "smoothness")
    n = frag.frame_count
    if n < 4:
        raise ValueError(f"smoothness term needs at least 4 frames, got {n}")
    fps = frag.fps
    fps2 = fps * fps
    xs = frag.positions[:, obs.sensor_joints, :]
    af = (xs[2:] - 2.0 * xs[1:-1] + xs[:-2]) * fps2
    sf = (af[1:] - af[:-1]) * fps
    si = (accel[2:-1] - accel[1:-2]) * fps
    r = sf - si
    value = float(np.sum(r * r))
    c = 2.0 * (fps2 * fps) * r
    gs = np.zeros_like(xs)
    gs[3:] += c
    gs[2:-1] -= 3.0 * c
    gs[1:-2] += 3.0 * c
    gs[:-3] -= c
    grad = np.zeros_like(frag.positions)
    np.add.at(grad, (slice(None), obs.sensor_joints), gs)
    return TermValue(value, grad)


def _active_terms(cfg: EnergyConfig) -> dict[str, bool]:
    inertial = cfg.k_inertial > 0.0
    return {
        "visual": cfg.k_visual > 0.0,
        "accel": inertial and cfg.k_accel > 0.0,
        "bone": inertial and cfg.k_bone > 0.0,
        "smooth": inertial and cfg.k_smooth > 0.0,
    }


def term_scales(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermScales:
    """Normalization denominators: each active term's value at `frag`, clamped
    below at SCALE_FLOOR. Inactive terms keep a scale of 1."""
    active = _active_terms(cfg)
    out = {}
    for name, fn in (("visual", visual_energy), ("accel", accel_energy), ("bone", bone_energy), ("smooth", smooth_energy)):
        out[name] = max(fn(frag, obs).value, SCALE_FLOOR) if active[name] else 1.0
    return TermScales(**out)


def total_energy(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermValue:
    """Weighted, normalized sum of the active terms.

    With cfg.scales unset, scales are computed at `frag` itself, so the value
    at a fragment's initial point with the default weights is exactly
    k_visual + k_inertial * (k_accel + k_bone + k_smooth) = 1.0 whenever every
    active term is nonzero there.
    """
    scales = cfg.scales if cfg.scales is not None else term_scales(frag, obs, cfg)
    active = _active_terms(cfg)
    value = 0.0
    grad = np.zeros_like(frag.positions)
    behind = 0
    if active["visual"]:
        tv = visual_energy(frag, obs)
        value += cfg.k_visual * tv.value / scales.visual
        grad += (cfg.k_visual / scales.visual) * tv.grad
        behind = tv.behind_camera
    if active["accel"]:
        ta = accel_energy(frag, obs)
        value += cfg.k_inertial * cfg.k_accel * ta.value / scales.accel
        grad += (cfg.k_inertial * cfg.k_accel / scales.accel) * ta.grad
    if active["bone"]:
        tb = bone_energy(frag, obs)
        value += cfg.k_inertial * cfg.k_bone * tb.value / scales.bone
        grad += (cfg.k_inertial * cfg.k_bone / scales.bone) * tb.grad
    if active["smooth"]:
        ts = smooth_energy(frag, obs)
        value += cfg.k_inertial * cfg.k_smooth * ts.value / scales.smooth
        grad += (cfg.k_inertial * cfg.k_smooth / scales.smooth) * ts.grad
    return TermValue(value, grad, behind)
