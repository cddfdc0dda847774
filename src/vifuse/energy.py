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
coordinate. The total divides each term by a variance in its stream's
squared units and sums them weighted by k: by cfg.scales when set, else by
the fixed stream variances below at the window's frame rate. So every window
minimizes the same objective, whatever its start.

One Observations type holds the streams, frame t at row t, and the rig.
Building it checks the rig and the stream shapes; where the streams enter
the solve, check() checks them against the positions and require() that
each active term has its observations, once, and no evaluation checks
them again. One kernel evaluates every term,
over a stack of windows that share a camera and a rig (a WindowStack). The
stack gathers its windows' rows straight from the stream arrays, and builds
whatever does not depend on the positions (the observed mask and the
targets) once; a window alone is the stack of one, built from its
Observations at each evaluation, so the next evaluation sees a write into a
stream. The camera keeps its matrices, one RigLayout (the sensor gather
and scatter, the chain joints and the chains that the solve factors) is
built once per rig and the difference operators once per window length. An
evaluation computes the residuals of the active terms, each window's values
as a (W, 4) array, then one weighted gradient; stack_energy gives every
window's total and behind-camera count as arrays over the window axis, and
total_energy and the term functions are the stack of one. Every matrix
product and dot product runs once per window, so a window's results do not
depend on the stack it is in. The visual term alone needs no solver:
visual_minimum gives its minimum in closed form. The Gauss-Newton normal
matrix comes in two pieces: visual_blocks builds the visual term's blocks
frame by frame, each from its own frame alone, through the projection the
residuals take (_projection), and normal_parts gives what every window of a
solve shares, with no window axis, built once per configuration, frame rate
and window length: the (4,) term weights, the (N, N) normal matrix of the
accel and smooth terms and the bone term's weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .camera import W_MIN, Camera

SCALE_FLOOR = 1e-9

# The default denominators: each term's residual variance, in its stream's
# squared units (TermScales order).
# px^2: the 2D detector's pixel noise, 1 px.
VISUAL_VARIANCE = 1.0
# (mm/s^2)^2: 25 times the accelerometer's own noise (40 mm/s^2), because a
# calibrated acceleration also carries the orientation noise times gravity,
# 0.008 rad x 9810 mm/s^2 = about 78 mm/s^2 at rest and more in motion. At
# 40 mm/s^2 the chains lost accuracy on faster motion and under a 0.1 g bias.
ACCEL_VARIANCE = 1000.0 ** 2
# mm^2: the orientation noise, 0.008 rad, times the default rig's mean
# sensor bone, 350 mm.
BONE_VARIANCE = 2.8 ** 2
# (mm/s^2)^2: the smooth residual is fps times the difference of two
# consecutive accel residuals, so its variance is 2 fps^2 times this. A bias
# or a slowly turning orientation error cancels in the difference, which
# leaves the accelerometer's own noise, 40 mm/s^2.
SMOOTH_ACCEL_VARIANCE = 40.0 ** 2

DEFAULT_THETA_T = math.radians(15.0)
DEFAULT_FRAGMENT_LEN = 50


def is_bool(value) -> bool:
    """Whether `value` is a Python or numpy bool, which numbers' checks refuse."""
    return isinstance(value, (bool, np.bool_))


def is_integer(value) -> bool:
    """Whether `value` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not is_bool(value)


def is_finite_positive(value) -> bool:
    """Whether `value` is a finite number above 0, and not a bool."""
    return not is_bool(value) and 0.0 < value < math.inf


def check_theta_t(theta_t) -> None:
    """Refuse an sf2 gate angle (rad) outside [0, pi], NaN or a bool with ValueError."""
    if is_bool(theta_t) or not 0.0 <= theta_t <= math.pi:
        raise ValueError(f"theta_t must lie in [0, pi], got {theta_t}")


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
        if not is_finite_positive(self.fps):
            raise ValueError(f"fps must be a finite positive number, got {self.fps!r}")
        object.__setattr__(self, "positions", p)

    @property
    def frame_count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def joint_count(self) -> int:
        return int(self.positions.shape[1])


@dataclass(frozen=True)
class Observations:
    """Observation streams, frame t at row t, and the rig they were taken with.

    pixels: (T, J, 2) px with NaN rows for missing joints, or None.
    accel/bones: (T, K, 3) calibrated IMU accelerations / bone vectors, or None.
    sensor_joints/sensor_parents: (K,) bound joint index and its parent
    index, or None for no sensors. Each index must be a non-negative integer
    as given (is_integer), so a bool or 1.0 is refused, no joint may be its
    own sensor's parent and no joint may be bound to two sensors: the
    binding rule that needs no skeleton. sf2
    (skeleton.refine_sequence) gates on bones at these sensor_joints.

    The streams are kept as float arrays without a copy: every evaluation
    reads the caller's arrays. check() checks them against the positions,
    require() that the active terms have theirs. rig_key holds the rig as
    tuples, the key of its cached layout.
    """

    pixels: np.ndarray | None = None
    camera: Camera | None = None
    accel: np.ndarray | None = None
    bones: np.ndarray | None = None
    sensor_joints: np.ndarray | None = None
    sensor_parents: np.ndarray | None = None

    def __post_init__(self):
        given = [[] if a is None else a for a in (self.sensor_joints, self.sensor_parents)]
        sj, sp = map(np.asarray, given)
        if sj.ndim != 1 or sp.ndim != 1:
            raise ValueError("sensor_joints and sensor_parents must hold one index per sensor, "
                             f"got shapes {sj.shape} and {sp.shape}")
        if len(sj) != len(sp):
            raise ValueError(f"sensor {min(len(sj), len(sp))} has no "
                             f"{'parent' if len(sj) > len(sp) else 'joint'}: "
                             f"{len(sj)} sensor_joints, {len(sp)} sensor_parents")
        # Each index must pass is_integer as given: casting would truncate
        # 1.7 to 1 and read True as 1, and np.asarray reads [2, True] as [2, 1].
        items = [g.tolist() if isinstance(g, np.ndarray) else list(g) for g in given]
        bound: dict[int, int] = {}  # joint -> its sensor
        for k, (j, p) in enumerate(zip(*items)):
            if not all(is_integer(v) and abs(v) < 2 ** 63 for v in (j, p)):
                rule = "joint indices must be integers"
            elif min(j, p) < 0:
                rule = "joint indices must be non-negative"
            elif j == p:
                rule = "a joint is not its own parent"
            elif bound.setdefault(j, k) != k:
                rule = f"joint {j} is bound to sensor {bound[j]} too"
            else:
                continue
            raise ValueError(f"sensor {k} is bound to joint {j} with parent {p}; {rule}")
        object.__setattr__(self, "sensor_joints", sj.astype(int))
        object.__setattr__(self, "sensor_parents", sp.astype(int))
        object.__setattr__(self, "rig_key", (tuple(self.sensor_joints.tolist()),
                                             tuple(self.sensor_parents.tolist())))
        k = len(sj)
        for name, tail, form in (("pixels", (2,), "(T, J, 2)"), ("accel", (k, 3), f"(T, {k}, 3)"),
                                 ("bones", (k, 3), f"(T, {k}, 3)")):
            a = getattr(self, name)
            if a is not None:
                a = np.asarray(a, dtype=float)
                if a.ndim != 3 or a.shape[3 - len(tail):] != tail:
                    raise ValueError(f"{name} must have shape {form}, got {a.shape}")
                object.__setattr__(self, name, a)

    @property
    def visual(self) -> bool:
        """Whether there are pixels and a camera to evaluate the visual term on."""
        return self.pixels is not None and self.camera is not None

    def require(self, active: tuple[bool, bool, bool, bool], frames: int) -> None:
        """Raise MissingObservationError for the first `active` term (visual,
        accel, bone, smooth) that lacks its observations, and ValueError for
        the smoothness term on windows of fewer than 4 `frames`."""
        visual, accel, bone, smooth = active
        if visual and not self.visual:
            raise MissingObservationError("visual term requires 2D observations and a camera")
        if accel and self.accel is None:
            raise MissingObservationError("acceleration term requires calibrated IMU accelerations")
        if bone and self.bones is None:
            raise MissingObservationError("bone term requires sensor-predicted bone vectors")
        if smooth and self.accel is None:
            raise MissingObservationError("smoothness term requires calibrated IMU accelerations")
        if smooth and frames < 4:
            raise ValueError(f"smoothness term needs at least 4 frames, got {frames}")

    def rig_layout(self, joints: int) -> "RigLayout":
        """The layout of the rig for positions of `joints` joints, built once per rig."""
        return _rig_layout(*self.rig_key, joints)

    def check(self, shape: tuple[int, ...]) -> None:
        """Check that every stream covers the T frames of positions of `shape`
        (T, J, 3), that the pixels have J joints, and that every sensor's
        joint and parent are among them."""
        t, j = shape[:2]
        for name in ("pixels", "accel", "bones"):
            a = getattr(self, name)
            if a is not None and len(a) != t:
                raise ValueError(f"{name} has {len(a)} frames, the positions have {t}")
        if self.visual and self.pixels.shape[1] != j:
            raise ValueError("2D observations disagree with fragment joint count")
        outside = np.flatnonzero(np.maximum(self.sensor_joints, self.sensor_parents) >= j)
        if outside.size:
            k = outside[0]
            raise ValueError(f"sensor {k} is bound to joint {self.sensor_joints[k]} with parent "
                             f"{self.sensor_parents[k]}, the positions have {j} joints")


class TermValue(NamedTuple):
    """Scalar energy, gradient w.r.t. every fragment coordinate, and the number
    of observed joints skipped because they projected behind the camera.

    `scales` is set by total_energy to the denominators it normalized by:
    cfg.scales, or the stream variances at the fragment's frame rate.
    """

    value: float
    grad: np.ndarray
    behind_camera: int = 0
    scales: TermScales | None = None


class TermScales(NamedTuple):
    """Per-term normalization denominators, each a variance in its stream's squared units."""

    visual: float = 1.0
    accel: float = 1.0
    bone: float = 1.0
    smooth: float = 1.0


@dataclass(frozen=True)
class EnergyConfig:
    """Weights and knobs of the total objective.

    k_visual/k_inertial balance the two families; k_accel/k_bone/k_smooth
    weight the inertial terms internally; each defaults to 1. theta_t (rad)
    gates the IMU override in sf2; fragment_len is the window size N (even,
    >= 4). Every evaluation, the solver's included, divides each term by
    `scales`, each a finite positive number, or when it is None by the
    stream variances (VISUAL_VARIANCE and the others) at the window's frame
    rate. with_scales sets it to the term values at a fragment's point.
    """

    k_visual: float = 1.0
    k_inertial: float = 1.0
    k_accel: float = 1.0
    k_bone: float = 1.0
    k_smooth: float = 1.0
    theta_t: float = DEFAULT_THETA_T
    fragment_len: int = DEFAULT_FRAGMENT_LEN
    scales: TermScales | None = None

    def __post_init__(self):
        for name in ("k_visual", "k_inertial", "k_accel", "k_bone", "k_smooth"):
            value = getattr(self, name)
            if is_bool(value) or not 0.0 <= value < math.inf:  # refuses NaN too
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.k_visual == 0.0 and self.k_inertial == 0.0:
            raise ValueError("at least one of k_visual, k_inertial must be positive")
        check_theta_t(self.theta_t)
        n = self.fragment_len
        if not is_integer(n) or n < 4 or n % 2 != 0:
            raise ValueError(f"fragment_len must be an even integer >= 4, got {n!r}")
        for name, value in zip(TermScales._fields, () if self.scales is None else self.scales):
            if not is_finite_positive(value):
                raise ValueError(f"scales.{name} must be a finite positive number, got {value!r}")

    @property
    def active_terms(self) -> tuple[bool, bool, bool, bool]:
        """Whether each term (visual, accel, bone, smooth) carries weight."""
        inertial = self.k_inertial > 0.0
        return (self.k_visual > 0.0, inertial and self.k_accel > 0.0,
                inertial and self.k_bone > 0.0, inertial and self.k_smooth > 0.0)

    @property
    def inertial_active(self) -> bool:
        """Whether any inertial term carries weight."""
        return any(self.active_terms[1:])

    def with_scales(self, frag: Fragment, obs: Observations) -> "EnergyConfig":
        return replace(self, scales=term_scales(frag, obs, self))


class VisualRows(NamedTuple):
    """The projection of B rows of K points each: pixels (B, 2, K), 1 / camera
    depth (B, K), 1 where skipped, and the points the visual term keeps
    (B, K): observed, deeper than W_MIN."""

    pixel: np.ndarray
    inv_depth: np.ndarray
    active: np.ndarray


def _projection(proj: np.ndarray, offset: np.ndarray, x: np.ndarray,
                observed: np.ndarray) -> VisualRows:
    """The projection u, v, w = proj @ x + offset of points x (B, K, 3), one
    matrix product per row, with their `observed` mask (B, K). Every point
    is deeper than W_MIN in the common case, which skips the masking."""
    h = proj @ x.swapaxes(1, 2) + offset  # rows u, v, w
    w = h[:, 2]
    active = observed
    if not (w > W_MIN).all():
        active = observed & (w > W_MIN)
        w = np.where(active, w, 1.0)
    inv_depth = 1.0 / w
    return VisualRows(h[:, :2] * inv_depth[:, None], inv_depth, active)


class _Residuals(NamedTuple):
    """One evaluation's residual arrays over a stack of W windows, None for
    terms not evaluated.

    visual is (W, 2, N*J) px, one row per pixel axis; accel, bone and smooth
    are (W, rows, 3K) with the sensors' xyz side by side. behind_camera (W,)
    counts each window's skipped joints.
    """

    visual: np.ndarray | None
    accel: np.ndarray | None
    bone: np.ndarray | None
    smooth: np.ndarray | None
    behind_camera: np.ndarray
    rows: VisualRows | None

    def values(self) -> np.ndarray:
        """The (W, 4) term values, one dot product per window and term; 0 if not evaluated."""
        return np.array([[0.0 if r is None else np.vdot(r[i], r[i]) for r in self[:4]]
                         for i in range(len(self.behind_camera))])


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


@functools.lru_cache(maxsize=16)
def _temporal(n: int, fps: float, wa: float, ws: float) -> np.ndarray:
    """The (N, N) matrix wa D2^T D2 + ws (D1 D2)^T (D1 D2) that the accel
    and smooth terms, weighted wa and ws, put on each coordinate of each
    sensor's joint. Read-only, since the cache hands it to every stack of a
    solve."""
    temporal = np.zeros((n, n))
    if wa or ws:
        _, _, accel_gram, smooth_gram = _differences(n, fps)
        if wa:
            temporal += wa * accel_gram
        if ws:
            temporal += ws * smooth_gram
    temporal.setflags(write=False)
    return temporal


class Chains(NamedTuple):
    """C chains of one shape, stacked: m sensor joints and p parent-only joints
    each, in increasing joint order, and their slots among the rig's chain
    joints, one sensor each. L is a chain's bone Laplacian, the sum of e e^T
    over its sensors with e = e_joint - e_parent; the bone term's normal
    matrix is 2 w (L kron I3)."""

    joints: np.ndarray  # (C, m)
    parents: np.ndarray  # (C, p)
    joint_slots: np.ndarray  # (C, m): where each of `joints` lies in RigLayout.chain_joints
    parent_slots: np.ndarray  # (C, p): where each of `parents` lies in RigLayout.chain_joints
    joint_bones: np.ndarray  # (C, 3m, 3m): L kron I3 among the sensor joints
    cross_bones: np.ndarray  # (C, m, p): L between sensor and parent-only joints
    parent_bones: np.ndarray  # (C, p): L's diagonal on the parent-only joints, which share no bone
    pairs: np.ndarray  # (C, m*m, p): products of cross_bones rows, for the Schur complement


class RigLayout(NamedTuple):
    """What the inertial terms and the chain solve read of a rig of K sensors,
    for positions of J joints."""

    gather: np.ndarray  # (6K,): the sensor joints' coordinates in a frame's 3J, then the parents'
    scatter: np.ndarray  # (6K, 3J): adds each gathered column back, so shared joints accumulate
    chain_joints: np.ndarray  # the sorted sensor joints and parents, which the chain solve moves
    chains: tuple[Chains, ...]  # the connected components of the sensor-to-parent bones, by shape


@functools.lru_cache(maxsize=16)
def _rig_layout(sensor_joints: tuple[int, ...], sensor_parents: tuple[int, ...], joints: int
                ) -> RigLayout:
    """The layout of a rig for positions of `joints` joints. Read-only, since
    the cache hands it to every stack of that rig."""
    bound = np.array(sensor_joints + sensor_parents, dtype=int)
    gather = (3 * bound[:, None] + np.arange(3)).ravel()
    scatter = np.zeros((len(gather), 3 * joints))
    scatter[np.arange(len(gather)), gather] = 1.0
    chain_joints = np.unique(bound)
    components: list[set[int]] = []
    for bone in map(set, zip(sensor_joints, sensor_parents)):
        touching = [c for c in components if c & bone]
        components = [c for c in components if not c & bone] + [bone.union(*touching)]
    groups: dict[tuple[int, int], list[Chains]] = {}
    for comp in sorted(components, key=min):
        sensor = sorted(comp & set(sensor_joints))
        order = sensor + sorted(comp - set(sensor))
        eye = np.eye(len(order))
        lap = np.zeros_like(eye)
        for j, p in zip(sensor_joints, sensor_parents):
            if j in comp:
                e = eye[order.index(j)] - eye[order.index(p)]
                lap += np.outer(e, e)
        m = len(sensor)
        slots = np.searchsorted(chain_joints, order)
        cross = lap[:m, m:]
        groups.setdefault((m, len(order) - m), []).append(Chains(
            np.array(sensor), np.array(order[m:], dtype=int), slots[:m], slots[m:],
            np.kron(lap[:m, :m], np.eye(3)), cross, np.diagonal(lap[m:, m:]),
            (cross[:, None] * cross).reshape(m * m, -1)))
    chains = tuple(Chains(*map(np.stack, zip(*group))) for group in groups.values())
    for array in (gather, scatter, chain_joints, *(a for ch in chains for a in ch)):
        array.setflags(write=False)
    return RigLayout(gather, scatter, chain_joints, chains)


class WindowStack:
    """Everything the terms need that does not depend on the positions, for a
    stack of W windows of N frames that share a camera, a rig and the
    streams they observe.

    It gathers the (W, N) frame `rows` of every stream of the Observations
    `source`, for positions of `shape` (T, J, 3) that the same rows index;
    source.check(shape) must hold, and source.require for the terms it is
    evaluated on: it checks neither. Positions enter as (W, N, J, 3) and the
    gradient leaves in that shape; inside, the visual term works on
    (W, 3, N*J) rows u, v, w so that each operation runs over one long axis.
    Every matrix product runs once per window, so a window's values and
    gradient are bitwise the same in any stack.
    """

    def __init__(self, source: Observations, rows: np.ndarray, shape: tuple[int, ...], fps: float):
        (w, n), j = rows.shape, shape[1]
        self.key = (n, j, fps)
        self.camera = source.camera
        self.rig = source.rig_layout(j)
        self.cols = 3 * len(source.sensor_joints)
        self.pixels = None
        if source.visual:
            self.pixels = source.pixels[rows]
            self.proj, self.offset = self.camera.projection_parts  # u, v, w = proj @ x + offset
            px = self.pixels.reshape(w, n * j, 2).swapaxes(1, 2)
            self.observed = np.isfinite(px).all(axis=1)
            self.target = np.where(self.observed[:, None], px, 0.0)
        if source.accel is not None:
            self.d2, self.d1 = _differences(n, fps)[:2]
            a = source.accel[rows].reshape(w, n, self.cols)
            self.accel_target = a[:, 1:-1]
            self.smooth_target = (a[:, 2:-1] - a[:, 1:-2]) * fps
        if source.bones is not None:
            self.bone_target = source.bones[rows].reshape(w, n, self.cols)

    @classmethod
    def of_window(cls, frag: Fragment, obs: Observations,
                  active: tuple[bool, bool, bool, bool]) -> "WindowStack":
        """The stack of one window, after checking `obs` against it and
        requiring the observations of the `active` terms."""
        obs.check(frag.positions.shape)
        obs.require(active, frag.frame_count)
        return cls(obs, np.arange(frag.frame_count)[None], frag.positions.shape, frag.fps)

    def residuals(self, x: np.ndarray, active: tuple[bool, bool, bool, bool]) -> _Residuals:
        visual, accel, bone, smooth = active
        rv = rows = None
        behind = np.zeros(len(x), int)
        if visual:
            rows = _projection(self.proj, self.offset, x.reshape(len(x), -1, 3), self.observed)
            if rows.active is not self.observed:
                behind = np.count_nonzero(self.observed & ~rows.active, axis=1)
            rv = np.where(rows.active[:, None], rows.pixel - self.target, 0.0)
        ra = rb = rs = None
        if accel or bone or smooth:
            xs = x.reshape(*x.shape[:2], -1)[..., self.rig.gather]
            xj = xs[..., :self.cols]
            if bone:
                rb = xj - xs[..., self.cols:] - self.bone_target
            if accel or smooth:
                af = self.d2 @ xj
                if accel:
                    ra = af - self.accel_target
                if smooth:
                    rs = self.d1 @ af - self.smooth_target
        return _Residuals(rv, ra, rb, rs, behind, rows)

    def gradient(self, res: _Residuals, weights: np.ndarray) -> np.ndarray:
        """Gradient of sum(weight * |residual|^2) over the evaluated terms,
        with the four term `weights` (4,) that every window shares."""
        wv, wa, wb, ws = 2.0 * weights
        w = len(res.behind_camera)
        n, j, _ = self.key
        grad = np.zeros((w, n, 3 * j))
        if res.visual is not None:
            # d pixel / d(u, v, w) = [[1, 0, -pixel_u], [0, 1, -pixel_v]] / w
            a = res.visual * (wv * res.rows.inv_depth[:, None])
            dh = np.empty((w, 3, a.shape[2]))
            dh[:, :2] = a
            np.negative(np.einsum("wij,wij->wj", a, res.rows.pixel), out=dh[:, 2])
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
        grad += gx @ self.rig.scatter
        return grad.reshape(w, n, j, 3)


def _term(frag: Fragment, obs: Observations, index: int) -> TermValue:
    active = tuple(i == index for i in range(4))
    win = WindowStack.of_window(frag, obs, active)
    res = win.residuals(frag.positions[None], active)
    grad = win.gradient(res, np.array(active, dtype=float))
    return TermValue(float(res.values()[0, index]), grad[0], int(res.behind_camera[0]))


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
    observed = np.isfinite(px[..., 0]) & np.isfinite(px[..., 1])
    r = camera.rotation_matrix
    rel = x - camera.center
    # Camera-frame ray direction K^-1 [u, v, 1], then into the world frame;
    # its camera depth is 1, so a point C + t d on the ray has depth t. A
    # missing pixel's joint stays put; its direction holds zeros, not NaN.
    missing = ~observed
    k_inv = np.empty(px.shape[:-1] + (3,))
    for c, (centre, focal) in enumerate(((camera.cx, camera.fx), (camera.cy, camera.fy))):
        np.subtract(px[..., c], centre, out=k_inv[..., c])
        k_inv[..., c] /= focal
        k_inv[..., c][missing] = 0.0
    k_inv[..., 2] = 1.0
    ray = k_inv @ r
    t = np.einsum("...i,...i->...", rel, ray) / np.einsum("...i,...i->...", ray, ray)
    move = observed & (rel @ r[2] > W_MIN) & (t > W_MIN)
    ray *= t[..., None]
    ray += camera.center
    stay = ~move
    ray[stay] = x[stay]
    return ray


def visual_blocks(positions: np.ndarray, pixels: np.ndarray, camera: Camera,
                  weight: float) -> np.ndarray:
    """The visual term's Gauss-Newton blocks 2 w J^T J (F, C, 3, 3) of C
    joints in each of F frames, at positions (F, C, 3) with pixels (F, C, 2),
    2 w being the term's `weight`: each joint's own 3x3 block, zero where
    the term skips the joint (no pixel, or depth at or below W_MIN). Each
    frame is projected by its own matrix product, so its blocks do not
    depend on the frames built with it."""
    proj, offset = camera.projection_parts
    observed = np.isfinite(pixels[..., 0]) & np.isfinite(pixels[..., 1])
    rows = _projection(proj, offset, positions, observed)
    # The rows of the Jacobian of (u / w, v / w), (proj[a] - pixel_a proj[2]) / w,
    # by row and coordinate: (2, 3, F, C), the frames and joints innermost.
    scale = np.where(rows.active, math.sqrt(weight) * rows.inv_depth, 0.0)
    jac = (proj[:2, :, None, None] - rows.pixel.swapaxes(0, 1)[:, None] * proj[2, :, None, None]
           ) * scale
    return np.einsum("akfc,alfc->fckl", jac, jac)


def normal_parts(cfg: EnergyConfig, fps: float, n: int) -> tuple[float, np.ndarray, float]:
    """The pieces of the Gauss-Newton normal matrix that every window of n
    frames at `fps` shares under `cfg`, each w below being a term's weight
    in stack_energy: the visual term's 2 w, which visual_blocks takes, 0
    without the term; the (N, N) matrix that the accel and smooth terms put
    on each coordinate of each sensor's joint, cached read-only per window
    length, frame rate and weights, so every stack of a solve gets the same
    array; and the weight 2 w that the bone term puts on each sensor's
    joint-minus-parent difference."""
    wv, wa, wb, ws = (2.0 * _objective(cfg, fps)[2]).tolist()
    return wv, _temporal(n, fps, wa, ws), wb


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


def _scales(cfg: EnergyConfig, fps: float) -> TermScales:
    """The denominators of every evaluation: cfg.scales, or the stream variances at `fps`."""
    if cfg.scales is not None:
        return cfg.scales
    return TermScales(VISUAL_VARIANCE, ACCEL_VARIANCE, BONE_VARIANCE,
                      2.0 * fps * fps * SMOOTH_ACCEL_VARIANCE)


@functools.lru_cache(maxsize=16)
def _objective(cfg: EnergyConfig, fps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (4,) term factors k, denominators s and weights k / s of every
    evaluation at `fps`; an inactive term has k = 0. Read-only, since the
    cache hands them to every evaluation of a solve."""
    ki = cfg.k_inertial
    k = np.array([cfg.k_visual, ki * cfg.k_accel, ki * cfg.k_bone, ki * cfg.k_smooth])
    s = np.array(_scales(cfg, fps))
    out = (k, s, k / s)
    for a in out:
        a.setflags(write=False)
    return out


def term_scales(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermScales:
    """Each active term's value at `frag`, clamped below at SCALE_FLOOR;
    inactive terms keep a scale of 1."""
    active = cfg.active_terms
    res = WindowStack.of_window(frag, obs, active).residuals(frag.positions[None], active)
    return TermScales(*np.where(active, np.maximum(res.values()[0], SCALE_FLOOR), 1.0).tolist())


class StackValue(NamedTuple):
    """total_energy of each window of a stack: the values (W,), gradients
    (W, N, J, 3), behind-camera counts (W,) and the (4,) term weights
    k / scale of the gradient that every window shares, 0 for an inactive
    term."""

    value: np.ndarray
    grad: np.ndarray | None
    behind_camera: np.ndarray
    weights: np.ndarray


def stack_energy(x: np.ndarray, stack: WindowStack, cfg: EnergyConfig,
                 gradient: bool = True) -> StackValue:
    """total_energy of every window of `stack` at positions x (W, N, J, 3),
    from one residual pass. A window's total is k * value / scale summed over
    the active terms in term order, with the scales of cfg, or the stream
    variances at the stack's frame rate. Without `gradient`, grad is None."""
    active = cfg.active_terms
    res = stack.residuals(x, active)
    k, s, weights = _objective(cfg, stack.key[2])
    totals = np.add.accumulate(k * res.values() / s, axis=1)[:, -1]  # summed in term order
    grad = stack.gradient(res, weights) if gradient else None
    return StackValue(totals, grad, res.behind_camera, weights)


def total_energy(frag: Fragment, obs: Observations, cfg: EnergyConfig) -> TermValue:
    """Weighted, normalized sum of the active terms, from one residual pass:
    k * value / scale summed over them, with the scales of cfg or, when it is
    unset, the stream variances at the fragment's frame rate. The returned
    `scales` are the ones used."""
    tv = stack_energy(frag.positions[None], WindowStack.of_window(frag, obs, cfg.active_terms), cfg)
    return TermValue(float(tv.value[0]), tv.grad[0], int(tv.behind_camera[0]),
                     _scales(cfg, frag.fps))
