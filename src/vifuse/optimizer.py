"""Fragment scheduling, the per-window direct solve, and merging.

The sequence is padded with N/2 boundary replicas on each side and cut into
half-overlapping windows of length N (stride N/2), so every original frame is
covered by exactly two windows; overlapping results are averaged. Windows are
independent given their observations, which is what makes the streaming path
produce bitwise-identical output to the batch path.

Each window is solved directly. A joint that is neither a sensor's joint nor
a sensor's parent enters only the visual term, so visual_minimum solves it.
The other joints form chains, the connected components of the sensor-to-parent
bones, which take Gauss-Newton steps on one damped normal matrix per window.

The solve runs over a stack of windows: one energy pass, one factorization
and one step call serve them all, while each window keeps its own scales,
damping and stopping rule. refine_batch stacks consecutive windows to share
numpy's per-call cost among them; minimize_fragment and StreamingRefiner
solve a stack of one. Every matrix product and inverse runs once per window
or chain, so a window's result is bitwise the same in any stack.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .camera import Camera
from .energy import (EnergyConfig, Fragment, Observations, TermScales, WindowStack, stack_energy,
                     visual_minimum)
from .energy import total_energy  # noqa: F401 - not called here; perfbench/spans.py wraps this name

# Levenberg-Marquardt damping, relative to the scale of a chain's normal
# matrix (a bound on its largest diagonal entry): it keeps a chain solvable
# where no term pins a direction (a joint without pixels or bone rows, a
# linear trajectory without the visual term) and is far below the curvature
# elsewhere.
_DAMPING = 1e-9
_EYE3 = np.eye(3)

# refine_batch solves consecutive windows as one stack of about this many
# frames (3 windows at the default N = 50), which shares the per-call cost of
# the small array operations among them. Larger stacks gain little more
# speed, and their memory grows with their size: at 150 frames the solve
# peaks no higher than the rest of an rtof run on the default dataset.
_STACK_FRAMES = 150


@dataclass(frozen=True)
class SolverSettings:
    """Stopping rule of the per-window solve.

    The solve is converged once the next Gauss-Newton step's predicted
    decrease g^T H^-1 g / 2 is at most grad_tol times the energy, which puts
    the window within about that fraction of its minimum. It stops
    unconverged after max_iterations steps or at a step that fails to lower
    the energy.
    """

    max_iterations: int = 30
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class FragmentSchedule:
    """Half-overlap window layout over a T-frame sequence."""

    frame_count: int
    fragment_len: int

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("schedule needs at least one frame")
        n = self.fragment_len
        if n < 4 or n % 2 != 0:
            raise ValueError(f"fragment length must be even and >= 4, got {n}")

    @property
    def stride(self) -> int:
        return self.fragment_len // 2

    @property
    def window_count(self) -> int:
        return (self.frame_count - 1) // self.stride + 2

    def window_start(self, k: int) -> int:
        """Original-sequence index of window k's first slot (negative in the leading pad)."""
        return k * self.stride - self.stride

    def window_frames(self, k: int) -> np.ndarray:
        """Original frame index per window slot, boundary replicas clamped."""
        if not 0 <= k < self.window_count:
            raise IndexError(f"window {k} out of range [0, {self.window_count})")
        start = self.window_start(k)
        return np.clip(np.arange(start, start + self.fragment_len), 0, self.frame_count - 1)

    def covering_windows(self, frame: int) -> tuple[int, int]:
        """The two windows whose average produces `frame` in the merged output."""
        if not 0 <= frame < self.frame_count:
            raise IndexError(f"frame {frame} out of range [0, {self.frame_count})")
        k = frame // self.stride
        return k, k + 1


@dataclass(frozen=True)
class SequenceObservations:
    """Whole-sequence observation arrays; fragments slice rows out of these."""

    fps: float
    pixels: np.ndarray | None = None
    camera: Camera | None = None
    accel: np.ndarray | None = None
    bones: np.ndarray | None = None
    sensor_joints: np.ndarray | None = None
    sensor_parents: np.ndarray | None = None

    def window(self, frames: np.ndarray) -> Observations:
        sj = self.sensor_joints if self.sensor_joints is not None else np.empty(0, dtype=int)
        pj = self.sensor_parents if self.sensor_parents is not None else np.empty(0, dtype=int)
        return Observations(
            pixels=None if self.pixels is None else self.pixels[frames],
            camera=self.camera,
            accel=None if self.accel is None else self.accel[frames],
            bones=None if self.bones is None else self.bones[frames],
            sensor_joints=sj,
            sensor_parents=pj,
        )


@dataclass(frozen=True)
class FragmentResult:
    fragment: Fragment
    initial_value: float
    final_value: float
    iterations: int
    converged: bool
    behind_camera: int


class _Chains(NamedTuple):
    """C chains of one shape, stacked: m sensor joints and p parent-only joints
    each, in increasing joint order. L is a chain's bone Laplacian, the sum of
    e e^T over its sensors with e = joint - parent; the bone term's normal
    matrix is 2 w (L kron I3)."""

    joints: np.ndarray  # (C, m)
    parents: np.ndarray  # (C, p)
    joint_bones: np.ndarray  # (C, 3m, 3m): L kron I3 among the sensor joints
    cross_bones: np.ndarray  # (C, m, p): L between sensor and parent-only joints
    parent_bones: np.ndarray  # (C, p): L's diagonal on the parent-only joints, which share no bone
    sensors: np.ndarray  # (C, 3m): sensors bound to the joint of each coordinate


@functools.lru_cache(maxsize=16)
def _chain_groups(sensor_joints: tuple[int, ...], sensor_parents: tuple[int, ...]
                  ) -> tuple[_Chains, ...]:
    """The connected components of the sensor-to-parent bones, stacked by shape."""
    components: list[set[int]] = []
    for bone in map(set, zip(sensor_joints, sensor_parents)):
        touching = [c for c in components if c & bone]
        components = [c for c in components if not c & bone] + [bone.union(*touching)]
    groups: dict[tuple[int, int], list[_Chains]] = {}
    for comp in sorted(components, key=min):
        joints = sorted(comp & set(sensor_joints))
        order = joints + sorted(comp - set(joints))
        lap = np.zeros((len(order), len(order)))
        for j, p in zip(sensor_joints, sensor_parents):
            if j in comp:
                e = np.zeros(len(order))
                e[order.index(j)], e[order.index(p)] = 1.0, -1.0
                lap += np.outer(e, e)
        m = len(joints)
        groups.setdefault((m, len(order) - m), []).append(_Chains(
            np.array(joints), np.array(order[m:], dtype=int), np.kron(lap[:m, :m], _EYE3),
            lap[:m, m:], np.diagonal(lap[m:, m:]),
            np.repeat([sensor_joints.count(j) for j in joints], 3).astype(float)))
    stacked = [_Chains(*map(np.stack, zip(*group))) for group in groups.values()]
    for array in (a for chains in stacked for a in chains):
        array.setflags(write=False)  # the cache hands the same arrays to every caller
    return tuple(stacked)


def _inv3(a: np.ndarray) -> np.ndarray:
    """Inverses of symmetric (..., 3, 3) matrices, by their adjugate."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = np.moveaxis(a, (-2, -1), (0, 1))
    c00, c01, c02 = a11 * a22 - a12 * a12, a02 * a12 - a01 * a22, a01 * a12 - a02 * a11
    c11, c12, c22 = a00 * a22 - a02 * a02, a01 * a02 - a00 * a12, a00 * a11 - a01 * a01
    adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1).reshape(a.shape)
    return adj / (a00 * c00 + a01 * c01 + a02 * c02)[..., None, None]


class _ChainSolver:
    """Gauss-Newton steps for every chain of a stack of windows from one
    factorization of each window's damped normal matrix at positions x.

    The chains of all windows are factored as one stack: the chain axis runs
    over window x chain, and every matrix product and inverse runs once per
    chain, so a window's steps are bitwise the same in any stack.
    """

    def __init__(self, x: np.ndarray, stack: WindowStack, cfg: EnergyConfig,
                 scales: Sequence[TermScales], obs: Observations):
        visual, temporal, bone = stack.normal_parts(x, cfg, scales)
        self._bone = bone[:, None, None, None]  # per window, broadcast over its chains
        groups = _chain_groups(tuple(obs.sensor_joints.tolist()), tuple(obs.sensor_parents.tolist()))
        visual = visual.swapaxes(0, 1)
        self._factors = [(ch, *self._factor(ch, visual, temporal)) for ch in groups]

    def _factor(self, ch: _Chains, visual: np.ndarray, temporal: np.ndarray):
        """Eliminate the parent-only joints, then factor what is left.

        Arrays run over frames first, then over the windows and the stacked
        chains; `visual` is (N, W, J, 3, 3) and `temporal` (W, N, N).
        """
        n, w = visual.shape[:2]
        bone = self._bone
        c, m = ch.joints.shape
        size, nb = 3 * m, -(-n // 3)
        # Each frame's block of the sensor joints from the visual and bone terms.
        a = np.zeros((n, w, c, m, 3, m, 3))
        for i, joints in enumerate(ch.joints.T):
            a[:, :, :, i, :, i, :] = visual[:, :, joints]
        a = a.reshape(n, w, c, size, size) + bone * ch.joint_bones
        largest = (np.diagonal(a, axis1=3, axis2=4).max(axis=(0, 3))
                   + temporal.max(axis=(1, 2))[:, None] * ch.sensors.max(axis=1))
        mu = _DAMPING * np.where(largest > 0.0, largest, 1.0)
        a += mu[..., None, None] * np.eye(size)
        # Eliminate each parent-only joint through its own 3x3 block.
        d_inv = _inv3(visual[:, :, ch.parents]
                      + (bone[..., 0] * ch.parent_bones + mu[..., None])[..., None, None] * _EYE3)
        pairs = (ch.cross_bones[:, :, None] * ch.cross_bones[:, None]).reshape(c, m * m, -1)
        schur = (pairs @ d_inv.reshape(n, w, c, -1, 9)).reshape(n, w, c, m, m, 3, 3)
        a -= bone * bone * schur.transpose(0, 1, 2, 3, 5, 4, 6).reshape(a.shape)
        # From here one axis runs over every chain of every window.
        c *= w
        # Blocks of three frames, padded with decoupled identity frames. The
        # accel and smooth terms couple frames at most three apart, so they
        # couple neighbouring blocks only.
        frames = np.empty((3 * nb, c, size, size))
        frames[:n] = a.reshape(n, c, size, size)
        frames[n:] = np.eye(size)
        t = np.zeros((w, 3 * nb, 3 * nb))
        t[:, :n, :n] = temporal
        t = t.reshape(w, nb, 3, nb, 3).transpose(1, 3, 0, 2, 4)[:, :, :, None, :, None, :, None]
        blocks = np.arange(nb)
        e = (ch.sensors[:, :, None] * np.eye(size))[:, None, :, None, :]
        # (block, chain, frame, coordinate, frame, coordinate)
        diag = (t[blocks, blocks] * e).reshape(nb, c, 3, size, 3, size)
        diag[:, :, np.arange(3), :, np.arange(3)] += frames.reshape(nb, 3, c, size, size).swapaxes(0, 1)
        diag = diag.reshape(nb, c, 3 * size, 3 * size)
        sub = (t[blocks[1:], blocks[:-1]] * e).reshape(nb - 1, c, 3 * size, 3 * size)
        # Block LDL^T in place: diag becomes the inverse pivots and sub the
        # multipliers sub @ pivot^-1.
        diag[0] = np.linalg.inv(diag[0])
        for b in range(1, nb):
            mult = sub[b - 1] @ diag[b - 1]
            diag[b] = np.linalg.inv(diag[b] - mult @ sub[b - 1].swapaxes(1, 2))
            sub[b - 1] = mult
        return d_inv, diag, sub

    def step(self, grad: np.ndarray) -> np.ndarray:
        """The step -H^-1 grad of every window (W, N, J, 3) on its chain
        joints; zero on the free joints."""
        w, n = grad.shape[:2]
        bone = self._bone
        step = np.zeros_like(grad)
        g, out = grad.swapaxes(0, 1), step.swapaxes(0, 1)  # frames first
        for ch, d_inv, inv, mult in self._factors:
            c, m = ch.joints.shape
            nb, size = len(inv), 3 * m
            lap_sp = ch.cross_bones
            g_p = g[:, :, ch.parents]
            y = np.zeros((3 * nb, w, c, m, 3))
            y[:n] = bone * (lap_sp @ (d_inv @ g_p[..., None])[..., 0])
            y[:n] -= g[:, :, ch.joints]
            y = y.reshape(nb, 3, w * c, size).swapaxes(1, 2).reshape(nb, w * c, 3 * size, 1)
            for b in range(1, nb):
                y[b] -= mult[b - 1] @ y[b - 1]
            x = inv @ y
            for b in range(nb - 2, -1, -1):
                x[b] -= mult[b].swapaxes(1, 2) @ x[b + 1]
            d_s = x.reshape(nb, w * c, 3, m, 3).swapaxes(1, 2).reshape(3 * nb, w, c, m, 3)[:n]
            back = -g_p - bone * (lap_sp.swapaxes(1, 2) @ d_s)
            out[:, :, ch.joints] = d_s
            out[:, :, ch.parents] = (d_inv @ back[..., None])[..., 0]
        return step


def _solve_stack(
    frags: Sequence[Fragment],
    observations: Sequence[Observations],
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> list[FragmentResult]:
    """minimize_fragment for a stack of windows of one layout that share a
    camera and a rig.

    Each window follows its own stopping rule: once it stops, it keeps its
    point, step count and best value while the others step on, and the
    stack ends when every window has stopped.
    """
    n, j, fps = frags[0].frame_count, frags[0].joint_count, frags[0].fps
    stack = WindowStack(observations, n, j, fps)
    start = projected = np.array([frag.positions for frag in frags])
    if cfg.k_visual > 0.0 and stack.has_pixels:
        projected = visual_minimum(start, np.array([obs.pixels for obs in observations]),
                                   observations[0].camera)
    # The start sets each window's scales; its gradient is needed only when
    # no window moves to its projection. A window whose projection is its
    # start evaluates there to its first values.
    project = not np.array_equal(projected, start)
    first = stack_energy(start, stack, cfg, gradient=not project)
    scales = first.scales
    behind = list(first.behind_camera)
    x, tv = start, first
    if project:
        x = projected
        tv = stack_energy(x, stack, cfg, scales)
        behind = list(map(max, behind, tv.behind_camera))
    solver = _ChainSolver(x, stack, cfg, scales, observations[0])
    values, grad = tv.value, tv.grad
    iterations = [0] * len(x)
    converged = [False] * len(x)
    going = list(range(len(x)))
    while True:
        step = solver.step(grad)
        stepping = []
        for i in going:
            if -0.5 * float(np.vdot(grad[i], step[i])) <= settings.grad_tol * values[i]:
                converged[i] = True
            elif iterations[i] < settings.max_iterations:
                stepping.append(i)
        if not stepping:
            break
        held = [i for i in range(len(x)) if i not in stepping]
        for i in held:
            step[i] = 0.0
        moved = x + step
        trial = stack_energy(moved, stack, cfg, scales)
        going = []
        for i in stepping:
            behind[i] = max(behind[i], trial.behind_camera[i])
            if trial.value[i] < values[i]:
                iterations[i] += 1
                going.append(i)
            else:
                held.append(i)
        for i in held:  # a window that has stopped keeps its point
            moved[i], trial.value[i], trial.grad[i] = x[i], values[i], grad[i]
        x, values, grad = moved, trial.value, trial.grad
    results = []
    for i, frag in enumerate(frags):
        point, value = x[i], values[i]
        if value > first.value[i]:
            point, value, converged[i] = start[i], first.value[i], False
        results.append(FragmentResult(Fragment(point, fps, frag.start), first.value[i], value,
                                      iterations[i], converged[i], behind[i]))
    return results


def minimize_fragment(
    frag: Fragment,
    obs: Observations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> FragmentResult:
    """Minimize the total energy over one fragment's coordinates.

    Normalization scales are frozen at the initial point, so the initial total
    is k_visual + k_inertial*(k_accel + k_bone + k_smooth) when every active
    term is nonzero. With the visual term active, every joint first moves to
    its ray projection, the free joints' minimum; the chains then take
    Gauss-Newton steps from there, one energy evaluation each. The result is
    the best point evaluated, so never above the initial one. This is the
    solve of a stack of one window.
    """
    return _solve_stack([frag], [obs], cfg, settings)[0]


def _solve_window(
    schedule: FragmentSchedule,
    k: int,
    poses: np.ndarray,
    seq_obs: SequenceObservations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> FragmentResult:
    """Gather window k's rows and minimize its fragment.

    `poses` and `seq_obs` hold either the whole sequence or a ring of its
    last len(poses) frames, frame t at row t % len(poses); the ring must be
    at least one window long.
    """
    rows = schedule.window_frames(k) % len(poses)
    frag = Fragment(poses[rows], seq_obs.fps, schedule.window_start(k))
    return minimize_fragment(frag, seq_obs.window(rows), cfg, settings)


def _average_halves(first: np.ndarray, second: np.ndarray, stride: int) -> np.ndarray:
    """Average window k-1's second half with window k's first half: the
    `stride` frames from window k's start. Windows lie on axis -3 of (..., N, J, 3)."""
    return (first[..., stride:, :, :] + second[..., :stride, :, :]) * 0.5


def merge_fragments(schedule: FragmentSchedule, fragments: list[Fragment]) -> np.ndarray:
    """Average the two overlapping copies of every original frame; padding slots
    (clamped replicas) are discarded."""
    if len(fragments) != schedule.window_count:
        raise ValueError(f"expected {schedule.window_count} fragments, got {len(fragments)}")
    if (schedule.window_count - 1) * schedule.stride < schedule.frame_count:
        raise RuntimeError("schedule does not cover every frame")
    pos = np.stack([frag.positions for frag in fragments])
    merged = _average_halves(pos[:-1], pos[1:], schedule.stride)
    return merged.reshape(-1, *merged.shape[2:])[:schedule.frame_count]


@dataclass(frozen=True)
class RefineStats:
    fragment_count: int
    optimize_seconds: float
    fragments_per_second: float
    output_frames_per_second: float
    behind_camera_skips: int

    @classmethod
    def collect(cls, results: list[FragmentResult], frames: int, seconds: float) -> "RefineStats":
        seconds = max(seconds, 1e-9)
        return cls(
            fragment_count=len(results),
            optimize_seconds=seconds,
            fragments_per_second=len(results) / seconds,
            output_frames_per_second=frames / seconds,
            behind_camera_skips=sum(r.behind_camera for r in results),
        )


def refine_batch(
    poses: np.ndarray,
    seq_obs: SequenceObservations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> tuple[np.ndarray, RefineStats]:
    """Optimize every window of a (T, J, 3) sequence and merge.

    Consecutive windows are solved as one stack of about _STACK_FRAMES
    frames; each window's result is bitwise the one it gets alone.
    """
    poses = np.asarray(poses, dtype=float)
    schedule = FragmentSchedule(poses.shape[0], cfg.fragment_len)
    t0 = time.perf_counter()
    per_stack = max(1, _STACK_FRAMES // schedule.fragment_len)
    results = []
    for first in range(0, schedule.window_count, per_stack):
        ks = range(first, min(first + per_stack, schedule.window_count))
        rows = np.stack([schedule.window_frames(k) for k in ks])
        frags = [Fragment(poses[r], seq_obs.fps, schedule.window_start(k)) for k, r in zip(ks, rows)]
        results += _solve_stack(frags, [seq_obs.window(r) for r in rows], cfg, settings)
    elapsed = time.perf_counter() - t0
    merged = merge_fragments(schedule, [r.fragment for r in results])
    return merged, RefineStats.collect(results, poses.shape[0], elapsed)


class StreamingRefiner:
    """Frame-at-a-time variant of refine_batch with bounded latency and memory.

    Poses and their observation rows are pushed together, one frame per call,
    into ring buffers of N rows (frame t at row t % N). A window is optimized
    as soon as its last real frame arrives, when all N of its frames are still
    in the ring. Only the previous window's solution is kept: solving window k
    emits the N/2 frames it shares with window k-1, averaged as merge_fragments
    averages them (at most N frames plus one solve behind the input). finish()
    flushes the trailing replica-padded windows. Output is bitwise-identical to
    refine_batch on the same data.
    """

    def __init__(
        self,
        fps: float,
        cfg: EnergyConfig,
        settings: SolverSettings,
        camera: Camera | None = None,
        sensor_joints: np.ndarray | None = None,
        sensor_parents: np.ndarray | None = None,
    ):
        self._cfg = cfg
        self._settings = settings
        self._len = cfg.fragment_len
        # Observation rings; their arrays are allocated on the first push.
        self._obs = SequenceObservations(
            fps, camera=camera, sensor_joints=sensor_joints, sensor_parents=sensor_parents)
        self._pos: np.ndarray | None = None
        self._frames = 0
        self._prev: np.ndarray | None = None  # positions of the last solved window
        self._next_window = 0
        self._finished = False

    def _run_windows(self, schedule: FragmentSchedule, stop: int) -> list[tuple[int, np.ndarray]]:
        """Solve windows up to `stop`; each emits the frames it shares with the one before."""
        out = []
        for k in range(self._next_window, stop):
            res = _solve_window(schedule, k, self._pos, self._obs, self._cfg, self._settings)
            cur = res.fragment.positions
            if k > 0:
                start = schedule.window_start(k)
                rows = _average_halves(self._prev, cur, schedule.stride)
                end = min(start + schedule.stride, schedule.frame_count)
                out += [(t, rows[t - start]) for t in range(start, end)]
            self._prev = cur
        self._next_window = stop
        return out

    def push(
        self,
        positions: np.ndarray,
        pixels: np.ndarray | None = None,
        accel: np.ndarray | None = None,
        bones: np.ndarray | None = None,
    ) -> list[tuple[int, np.ndarray]]:
        """Feed one frame and its observation rows; returns any frames now final.

        Every row must be given for every frame or for none, with the shape it
        had in frame 0.
        """
        if self._finished:
            raise RuntimeError("push after finish")
        rows = {"positions": positions, "pixels": pixels, "accel": accel, "bones": bones}
        rows = {name: None if r is None else np.asarray(r, dtype=float) for name, r in rows.items()}
        if self._frames == 0:
            rings = {name: None if r is None else np.empty((self._len, *r.shape))
                     for name, r in rows.items()}
            self._pos = rings.pop("positions")
            self._obs = replace(self._obs, **rings)
        rings = {"positions": self._pos, "pixels": self._obs.pixels,
                 "accel": self._obs.accel, "bones": self._obs.bones}
        for name, row in rows.items():
            if (rings[name] is None) != (row is None):
                raise ValueError(f"{name} must be given for every frame or none")
            if row is not None and row.shape != rings[name].shape[1:]:
                raise ValueError(f"{name} row of frame {self._frames} has shape {row.shape}, "
                                 f"frame 0 had {rings[name].shape[1:]}")
        for name, row in rows.items():
            if row is not None:
                rings[name][self._frames % self._len] = row
        self._frames += 1
        schedule = FragmentSchedule(self._frames, self._len)
        # window k ends at frame (k + 1) * stride - 1, so it is whole once that arrives
        return self._run_windows(schedule, self._frames // schedule.stride)

    def finish(self) -> list[tuple[int, np.ndarray]]:
        """Flush trailing windows; returns the remaining frames in order."""
        if self._finished:
            return []
        self._finished = True
        if self._frames == 0:
            return []
        schedule = FragmentSchedule(self._frames, self._len)
        return self._run_windows(schedule, schedule.window_count)


def run_stream(
    poses: np.ndarray,
    seq_obs: SequenceObservations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> Iterator[tuple[int, np.ndarray]]:
    """Generator over (frame_index, refined positions), emitted incrementally.

    Convenience wrapper that feeds whole-sequence arrays through a
    StreamingRefiner one frame at a time.
    """
    poses = np.asarray(poses, dtype=float)
    refiner = StreamingRefiner(
        seq_obs.fps,
        cfg,
        settings,
        camera=seq_obs.camera,
        sensor_joints=seq_obs.sensor_joints,
        sensor_parents=seq_obs.sensor_parents,
    )
    for t in range(poses.shape[0]):
        yield from refiner.push(
            poses[t],
            pixels=None if seq_obs.pixels is None else seq_obs.pixels[t],
            accel=None if seq_obs.accel is None else seq_obs.accel[t],
            bones=None if seq_obs.bones is None else seq_obs.bones[t],
        )
    yield from refiner.finish()
