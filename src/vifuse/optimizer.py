"""Fragment scheduling, limited-memory quasi-Newton minimization, and merging.

The sequence is padded with N/2 boundary replicas on each side and cut into
half-overlapping windows of length N (stride N/2), so every original frame is
covered by exactly two windows; overlapping results are averaged. Windows are
independent given their observations, which is what makes the streaming path
produce bitwise-identical output to the batch path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .camera import Camera
from .energy import EnergyConfig, Fragment, Observations, total_energy

_CURVATURE_EPS = 1e-12
# Backtracking line search (Nocedal & Wright, Numerical Optimization, Alg. 3.1):
# a trial step is accepted when it decreases f by at least _C1 of the linear
# model's decrease and its slope along the line is at most _C2 of the initial
# slope's magnitude (no overshoot past the line minimum); otherwise it is
# halved, at most _MAX_HALVINGS times.
_C1 = 1e-4
_C2 = 0.9
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class SolverSettings:
    """Limited-memory minimizer knobs.

    Stops on the gradient infinity-norm tolerance or the iteration cap,
    whichever comes first; `converged` means only that the tolerance was met,
    not that the minimum was reached (default fragments stop 15-20% above
    theirs). The halving line search only ever accepts decreasing steps, so
    the returned energy never exceeds the initial one; a failed line search
    returns the best iterate so far with a warning flag rather than raising.
    """

    max_iterations: int = 30
    history: int = 10
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.history < 1:
            raise ValueError("history must be >= 1")
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")


class MinimizeResult(NamedTuple):
    x: np.ndarray
    initial_value: float
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    line_search_failed: bool


def _two_loop(g, s_list, y_list, rho_list) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * float(np.dot(s, q))
        alphas.append(a)
        q -= a * y
    if s_list:
        q *= float(np.dot(s_list[-1], y_list[-1]) / np.dot(y_list[-1], y_list[-1]))
    for s, y, rho, a in zip(s_list, y_list, rho_list, reversed(alphas)):
        b = rho * float(np.dot(y, q))
        q += (a - b) * s
    return -q


def minimize_array(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    settings: SolverSettings,
    start: tuple[float, np.ndarray] | None = None,
) -> MinimizeResult:
    """L-BFGS over a flat array; `fun` returns (value, gradient).

    `start` is fun(x0) when the caller already has it. Guaranteed monotone:
    the result value never exceeds fun(x0). With no curvature history (the
    first iteration, or after a non-descent reset) the line search starts
    along -g at Polyak's step f / (g.g), which zeroes the linear model of a
    function bounded below by 0, or at unit length when f <= 0; otherwise at
    the full quasi-Newton step. It halves the step until it decreases f
    enough without overshooting the line minimum, and never lengthens it.
    `converged` means the gradient infinity-norm reached settings.grad_tol.
    """
    x = np.asarray(x0, dtype=float).ravel().copy()
    f, g = fun(x) if start is None else start
    f0 = f
    g = np.asarray(g, dtype=float).ravel()
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    ls_failed = False
    iterations = 0
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    while gnorm > settings.grad_tol and iterations < settings.max_iterations:
        d = _two_loop(g, s_list, y_list, rho_list)
        if not np.all(np.isfinite(d)) or float(np.dot(d, g)) >= 0.0:
            s_list, y_list, rho_list = [], [], []
            d = -g
        if s_list:
            alpha = 1.0
        elif f > 0.0:
            alpha = f / float(np.dot(g, g))  # Polyak: zeroes the linear model
        else:
            alpha = 1.0 / float(np.linalg.norm(d))
        gd = float(np.dot(g, d))
        for _ in range(_MAX_HALVINGS + 1):
            x_new = x + alpha * d
            f_new, g_new = fun(x_new)
            g_new = np.asarray(g_new, dtype=float).ravel()
            if f_new <= f + _C1 * alpha * gd and float(np.dot(g_new, d)) <= _C2 * abs(gd):
                break
            alpha *= 0.5
        else:
            ls_failed = True
            break
        s = x_new - x
        y = g_new - g
        sy = float(np.dot(s, y))
        if sy > _CURVATURE_EPS * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > settings.history:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, f, g = x_new, f_new, g_new
        iterations += 1
        gnorm = float(np.max(np.abs(g)))
    return MinimizeResult(x, f0, f, gnorm, iterations, gnorm <= settings.grad_tol, ls_failed)


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
    line_search_failed: bool
    behind_camera: int


def minimize_fragment(
    frag: Fragment,
    obs: Observations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> FragmentResult:
    """Minimize the total energy over one fragment's coordinates.

    Normalization scales are frozen at the initial point, so the initial total
    is k_visual + k_inertial*(k_accel + k_bone + k_smooth) when every active
    term is nonzero, and the minimizer works on an O(1)-scaled objective. One
    evaluation at the initial point gives the scales and the first value and
    gradient.
    """
    first = total_energy(frag, obs, replace(cfg, scales=None))
    frozen = replace(cfg, scales=first.scales)
    shape = frag.positions.shape
    behind = [first.behind_camera]

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        tv = total_energy(Fragment(x.reshape(shape), frag.fps, frag.start), obs, frozen)
        behind[0] = max(behind[0], tv.behind_camera)
        return tv.value, tv.grad.ravel()

    res = minimize_array(fun, frag.positions.ravel(), settings, (first.value, first.grad.ravel()))
    out = Fragment(res.x.reshape(shape), frag.fps, frag.start)
    return FragmentResult(
        fragment=out,
        initial_value=res.initial_value,
        final_value=res.value,
        iterations=res.iterations,
        converged=res.converged,
        line_search_failed=res.line_search_failed,
        behind_camera=behind[0],
    )


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
    line_search_failures: int
    behind_camera_skips: int

    @classmethod
    def collect(cls, results: list[FragmentResult], frames: int, seconds: float) -> "RefineStats":
        seconds = max(seconds, 1e-9)
        return cls(
            fragment_count=len(results),
            optimize_seconds=seconds,
            fragments_per_second=len(results) / seconds,
            output_frames_per_second=frames / seconds,
            line_search_failures=sum(1 for r in results if r.line_search_failed),
            behind_camera_skips=sum(r.behind_camera for r in results),
        )


def refine_batch(
    poses: np.ndarray,
    seq_obs: SequenceObservations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> tuple[np.ndarray, RefineStats]:
    """Optimize every window of a (T, J, 3) sequence and merge."""
    poses = np.asarray(poses, dtype=float)
    schedule = FragmentSchedule(poses.shape[0], cfg.fragment_len)
    t0 = time.perf_counter()
    results = [_solve_window(schedule, k, poses, seq_obs, cfg, settings)
               for k in range(schedule.window_count)]
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
