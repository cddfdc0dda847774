"""Fragment scheduling, the per-window direct solve, and merging.

The sequence is padded with N/2 boundary replicas on each side and cut into
half-overlapping windows of length N (stride N/2), so every original frame is
covered by exactly two windows; overlapping results are averaged. Windows are
independent given their observations, which is what makes the streaming path
produce bitwise-identical output to the batch path.

Each window is solved directly. A joint that is neither a sensor's joint nor
a sensor's parent enters only the visual term, so visual_minimum solves it.
The other joints form chains, the connected components of the sensor-to-parent
bones, which take Gauss-Newton steps on one damped normal matrix per window,
built from the term weights and visual rows that stack_energy returns.

The streams are an energy.Observations (SequenceObservations adds the frame
rate), checked once where they enter, before any work: in refine_batch,
StreamingRefiner's first push and minimize_fragment, each checks them
against the poses and raises the MissingObservationError of an active term
that lacks its observations. Past that point nothing checks them again.

The solve runs over a stack of windows: one energy pass, one factorization
and one step call serve them all, while each window keeps its own damping
and stopping rule. Every window minimizes the same objective, each term
divided by its stream variance (energy.EnergyConfig), so its result does
not depend on where it starts. Its state (values, step counts, flags and
behind-camera counts) is held in arrays over the window axis, and a window
that stops keeps its point, value and gradient under a mask. Batch and
streaming share one gather path: it takes a range of windows' rows from the
sequence arrays, or from the streaming rings, straight into one WindowStack
and solves it. refine_batch calls it once per group of about _STACK_FRAMES
frames, which shares numpy's per-call cost among the windows;
StreamingRefiner calls it for the windows that are ready, one per push that
completes a window and the trailing ones together in finish().
minimize_fragment solves a stack of one. A refine_batch call, a
StreamingRefiner and a minimize_fragment call each factor all their stacks
in one _ChainSolver, which keeps the factorization's block storage from
stack to stack instead of mapping it afresh for each, and builds each
stack's blocks in that storage and in place, each LDL multiplier written
straight into it. refine_batch averages each window into its output as the
window's stack is solved, by the rule StreamingRefiner emits by, so from
one stack to the next it keeps only the last window's positions, and it
projects each stack's frames when it reaches the stack, into one ring that
carries the stride two stacks share. A stack forms each trial point in its
step's buffer and updates its point and gradient in place. Every matrix
product and inverse runs once per window or chain, so a window's result is
bitwise the same in any stack. Nothing is built twice that the solve does
not change: each frame is projected onto its ray once, for both windows it
lies in, in batch and streaming alike; the chains, with their slots among
the chain joints, come from the stack's one rig layout (energy.RigLayout),
built once per rig; and the temporal part of every window's normal matrix
is one array per solve, whose pivot and coupling blocks _ChainSolver builds
once per chain size. Without the visual term no visual block is built. A
stack evaluates its start for the value no result may end above, then its
projection (the start without the visual term) for the first step, then
each trial point.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .camera import Camera
from .energy import (Chains, EnergyConfig, Fragment, Observations, StackValue, WindowStack,
                     is_finite_positive, is_integer, stack_energy, visual_minimum)
from .energy import total_energy  # noqa: F401 - not called here; perfbench/spans.py wraps this name

# Levenberg-Marquardt damping, relative to the scale of a chain's normal
# matrix (a bound on its largest diagonal entry): it keeps a chain solvable
# where no term pins a direction (a joint without pixels or bone rows, a
# linear trajectory without the visual term) and is far below the curvature
# elsewhere.
_DAMPING = 1e-9


@functools.lru_cache(maxsize=16)
def _identity(size: int) -> np.ndarray:
    """np.eye(size), read-only, since the cache hands it to every factor."""
    eye = np.eye(size)
    eye.setflags(write=False)
    return eye


# refine_batch solves consecutive windows as one stack of about this many
# frames (8 windows at the default N = 50), which shares a cost of about 2 ms
# per stack, numpy's per-call cost on the small arrays, among them. Larger
# stacks paid only once _ChainSolver kept its storage across stacks: against
# 300 frames without it, the rtof benchmark ran 300, 350, 400 and 450 frames
# with it 4.3%, 1.8%, 7.5% and 8.1% faster (4 pairs each), and its peak RSS
# rose 1.9%, 2.4%, 4.7% and 6.3%: 400 is the fastest that stays within about
# 5%. The solve's memory grows with the stack and sets an rtof run's peak:
# about 8 MB traced on the default 60 s dataset and 20 MB on a 13-sensor
# rig, 11 MB of it the pivot storage of its torso chain of eight sensors.
_STACK_FRAMES = 400


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
        n = self.max_iterations
        if not is_integer(n) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")
        if not is_finite_positive(self.grad_tol):  # refuses NaN too
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")


@dataclass(frozen=True)
class FragmentSchedule:
    """Half-overlap window layout over a T-frame sequence."""

    frame_count: int
    fragment_len: int

    def __post_init__(self):
        for name in ("frame_count", "fragment_len"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
class SequenceObservations(Observations):
    """Observations of a whole sequence, taken at `fps` frames per second."""

    fps: float = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if not is_finite_positive(self.fps):
            raise ValueError(f"fps must be a finite positive number, got {self.fps!r}")


@dataclass(frozen=True)
class FragmentResult:
    fragment: Fragment
    initial_value: float
    final_value: float
    iterations: int
    converged: bool
    behind_camera: int


def _inv3(a: np.ndarray) -> np.ndarray:
    """Inverses of symmetric (..., 3, 3) matrices, by their adjugate."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = np.moveaxis(a, (-2, -1), (0, 1))
    c00, c01, c02 = a11 * a22 - a12 * a12, a02 * a12 - a01 * a22, a01 * a12 - a02 * a11
    c11, c12, c22 = a00 * a22 - a02 * a02, a01 * a02 - a00 * a12, a00 * a11 - a01 * a01
    adj = np.stack([c00, c01, c02, c01, c11, c12, c02, c12, c22], axis=-1).reshape(a.shape)
    return adj / (a00 * c00 + a01 * c01 + a02 * c02)[..., None, None]


def _temporal_blocks(temporal: np.ndarray, m: int) -> np.ndarray:
    """The pivot and coupling blocks that the (N, N) `temporal` matrix puts
    on a chain of m sensor joints, read-only: (2 nb - 1, 9m, 9m), the nb
    pivots (block b against block b) then the couplings (block b + 1 against
    block b), over blocks of three frames padded with decoupled identity
    frames.

    The accel and smooth terms couple frames at most three apart, so they
    couple neighbouring blocks only, and each coordinate of a sensor joint
    only with itself: they fill the diagonals of the 3m x 3m (frame, frame)
    parts of a block. A padded frame's part of its pivot is the identity.
    """
    n, size = len(temporal), 3 * m
    nb = -(-n // 3)
    t = np.zeros((3 * nb, 3 * nb))
    t[:n, :n] = temporal
    t = t.reshape(nb, 3, nb, 3)
    blocks = np.zeros((2 * nb - 1, 3 * size, 3 * size))
    for lag, out in enumerate((blocks[:nb], blocks[nb:])):
        # (block, frame, frame, coordinate): writes go through to `out`
        diagonals = np.einsum("bfigi->bfgi", out.reshape(nb - lag, 3, size, 3, size))
        diagonals[...] = np.diagonal(t, -lag, 0, 2).transpose(2, 0, 1)[..., None]
    pivots = blocks[:nb].reshape(nb, 3, size, 3, size)
    for frame in range(n, 3 * nb):
        b, f = divmod(frame, 3)
        pivots[b, f, :, f] = _identity(size)
    blocks.setflags(write=False)
    return blocks


class _ChainSolver:
    """Gauss-Newton steps for every chain of a stack of windows from one
    factorization of each window's damped normal matrix, which factor()
    builds at the point that stack_energy evaluated to `tv`, from its visual
    rows and the solve's term weights.

    The chains of all windows are factored as one stack: the chain axis runs
    over window x chain, and every matrix product and inverse runs once per
    chain, so a window's steps are bitwise the same in any stack.

    One solver serves every stack of a refine_batch call, a StreamingRefiner
    or a minimize_fragment call. It owns each chain group's pivots and
    multipliers, sized by the largest stack so far, and factor() overwrites
    them in place; a smaller stack works on a contiguous leading part, so
    its bytes do not change. Fresh arrays per stack, about 1 MB each at six
    windows, sat at glibc's mmap threshold and were faulted in again for
    every stack: about 9,000 minor faults per refine_batch call on the
    default 60 s capture, against 1,000-1,800 with the storage kept. Every
    window of a solve shares the temporal part of its normal matrix, so the
    solver builds its pivot and coupling blocks once per chain size
    (_temporal_blocks), starts each stack's pivots from one broadcast copy
    of them and multiplies by the shared couplings.
    """

    def __init__(self):
        self._blocks: dict[int, np.ndarray] = {}  # flat block storage by chain group
        self._temporal: np.ndarray | None = None  # the (N, N) matrix of the blocks below
        self._temporal_blocks: dict[int, np.ndarray] = {}  # by a chain's sensor-joint count

    def factor(self, stack: WindowStack, tv: StackValue) -> None:
        """Factor every window of `stack` at the point stack_energy evaluated
        to `tv`, in place of the last stack's factors."""
        visual, temporal, self._bone = stack.normal_parts(tv.rows, tv.weights)
        if temporal is not self._temporal:  # normal_parts hands one array to a whole solve
            self._temporal, self._temporal_max, self._temporal_blocks = temporal, temporal.max(), {}
        if visual is not None:
            visual = visual.swapaxes(0, 1)
        self._factors = [(ch, *self._factor(group, ch, visual, stack.windows))
                         for group, ch in enumerate(stack.rig.chains)]

    def _storage(self, group: int, shape: tuple[int, ...]) -> np.ndarray:
        """Chain group `group`'s block storage as a contiguous array of
        `shape`, its contents left as they are: the leading part of one flat
        buffer, which grows only when a stack needs more than any stack
        before it."""
        size = math.prod(shape)
        flat = self._blocks.get(group)
        if flat is None or flat.size < size:
            flat = self._blocks[group] = np.empty(size)
        return flat[:size].reshape(shape)

    def _factor(self, group: int, ch: Chains, visual: np.ndarray | None, w: int):
        """Eliminate the parent-only joints, then factor what is left.

        Arrays run over frames first, then over the W windows and the
        stacked chains; `visual` is (N, W, C, 3, 3) over the rig's C chain
        joints, or None without the visual term.
        """
        n, bone = len(self._temporal), self._bone
        c, m = ch.joints.shape
        size, nb = 3 * m, -(-n // 3)
        shared = self._temporal_blocks.get(m)
        if shared is None:
            shared = self._temporal_blocks[m] = _temporal_blocks(self._temporal, m)
        # Each frame's block of the sensor joints from the visual and bone
        # terms, built in place: `by_joint` is `a` by joint and coordinate.
        by_joint = np.zeros((n, w, c, m, 3, m, 3))
        if visual is not None:
            for i, joints in enumerate(ch.joint_slots.T):
                by_joint[:, :, :, i, :, i, :] = visual[:, :, joints]
        a = by_joint.reshape(n, w, c, size, size)
        a += bone * ch.joint_bones
        largest = np.diagonal(a, axis1=3, axis2=4).max(axis=(0, 3)) + self._temporal_max
        mu = _DAMPING * np.where(largest > 0.0, largest, 1.0)
        a += mu[..., None, None] * _identity(size)
        # Eliminate each parent-only joint through its own 3x3 block.
        parent = (bone * ch.parent_bones + mu[..., None])[..., None, None] * _identity(3)
        if visual is None:
            parent = np.broadcast_to(parent, (n, *parent.shape))
        else:
            parent = visual[:, :, ch.parent_slots] + parent
        d_inv = _inv3(parent)
        schur = (ch.pairs @ d_inv.reshape(n, w, c, -1, 9)).reshape(n, w, c, m, m, 3, 3)
        schur *= bone * bone
        by_joint -= schur.transpose(0, 1, 2, 3, 5, 4, 6)
        del schur

        # The pivots, (nb, W*C, 3 size, 3 size), start from the temporal
        # blocks; the multipliers, (nb - 1, ...), are written by the LDL loop.
        blocks = self._storage(group, (2 * nb - 1, w * c, 3 * size, 3 * size))
        diag, sub = blocks[:nb], blocks[nb:]
        diag[...] = shared[:nb, None]
        couplings = shared[nb:]
        # From here one axis runs over every chain of every window. Frame f
        # of a block is frame 3 b + f of `a`.
        c *= w
        a = a.reshape(n, c, size, size)
        for f in range(3):
            frame = slice(f * size, (f + 1) * size)
            diag[:len(range(f, n, 3)), :, frame, frame] += a[f::3]
        del a, by_joint  # the pivots hold them now; the factorization needs only its storage
        # Block LDL^T in place: diag becomes the inverse pivots and sub the
        # multipliers coupling @ pivot^-1, each written straight into its
        # storage, and each pivot takes its Schur term in place.
        diag[0] = np.linalg.inv(diag[0])
        for b in range(1, nb):
            np.matmul(couplings[b - 1], diag[b - 1], out=sub[b - 1])
            diag[b] -= sub[b - 1] @ couplings[b - 1].T
            diag[b] = np.linalg.inv(diag[b])
        return d_inv, diag, sub

    def sweep(self, grad: np.ndarray) -> np.ndarray:
        """Start the solve H d = -grad of every window (W, N, J, 3) with the
        forward sweep, and return each window's g^T H^-1 g over its chain
        joints (W,), from which the stopping test reads the next step's
        predicted decrease. step() finishes the solve.

        g^T H^-1 g is the parent-only joints' g_p^T D^-1 g_p plus y^T P^-1 y
        over the blocks, with y the forward-swept right-hand side and P the
        pivots. Each part is summed over one contiguous row per window, so a
        window's value is bitwise the same in any stack.
        """
        w, n = grad.shape[:2]
        bone = self._bone
        g = grad.swapaxes(0, 1)  # frames first
        quad = np.zeros(w)
        self._swept = []
        for ch, d_inv, inv, mult in self._factors:
            c, m = ch.joints.shape
            nb, size = len(inv), 3 * m
            g_p = g[:, :, ch.parents]
            dg_p = (d_inv @ g_p[..., None])[..., 0]
            y = np.zeros((3 * nb, w, c, m, 3))
            y[:n] = bone * (ch.cross_bones @ dg_p)
            y[:n] -= g[:, :, ch.joints]
            y = y.reshape(nb, 3, w * c, size).swapaxes(1, 2).reshape(nb, w * c, 3 * size, 1)
            for b in range(1, nb):
                y[b] -= mult[b - 1] @ y[b - 1]
            x = inv @ y
            quad += _window_sums(g_p * dg_p) + _window_sums((y * x).reshape(nb, w, -1))
            self._swept.append((g_p, x))
        self._shape = grad.shape
        return quad

    def step(self) -> np.ndarray:
        """The step -H^-1 grad of every window (W, N, J, 3) on its chain
        joints, zero on the free joints, by back-substitution from the last
        sweep."""
        w, n = self._shape[:2]
        bone = self._bone
        step = np.zeros(self._shape)
        out = step.swapaxes(0, 1)  # frames first
        for (ch, d_inv, inv, mult), (g_p, x) in zip(self._factors, self._swept):
            c, m = ch.joints.shape
            nb = len(inv)
            for b in range(nb - 2, -1, -1):
                x[b] -= mult[b].swapaxes(1, 2) @ x[b + 1]
            d_s = x.reshape(nb, w * c, 3, m, 3).swapaxes(1, 2).reshape(3 * nb, w, c, m, 3)[:n]
            back = -g_p - bone * (ch.cross_bones.swapaxes(1, 2) @ d_s)
            out[:, :, ch.joints] = d_s
            out[:, :, ch.parents] = (d_inv @ back[..., None])[..., 0]
        return step


def _window_sums(a: np.ndarray) -> np.ndarray:
    """The sum of `a` per index of its axis 1, the windows, each over one
    contiguous row, so that it does not depend on the other windows."""
    rows = np.ascontiguousarray(a.swapaxes(0, 1))
    return rows.reshape(len(rows), -1).sum(axis=1)


def _solve_stack(start: np.ndarray, projected: np.ndarray, stack: WindowStack,
                 starts: Sequence[int], cfg: EnergyConfig, settings: SolverSettings,
                 solver: _ChainSolver) -> list[FragmentResult]:
    """minimize_fragment for every window of `stack` from its positions in
    `start` (W, N, J, 3); `projected` holds their visual_minimum, or their
    positions again when the visual term is inactive, and becomes the
    windows' point, updated in place, unless it shares memory with `start`.
    `starts` are the windows' first frame indices. `solver` factors the
    stack in place of the stack it factored before.

    Each window follows its own stopping rule: once it stops, it keeps its
    point, step count and best value while the others step on, and the
    stack ends when every window has stopped. Each window's state is an
    array over the window axis: `going` marks the windows that have not
    stopped and `stepping` those that take the next step.
    """
    fps = stack.key[2]
    # The start sets the value no result may end above; the first step
    # starts from the projection. Neither pass's visual rows are kept.
    first = stack_energy(start, stack, cfg, gradient=False)
    start_values, behind = first.value, first.behind_camera
    del first
    # minimize_fragment passes the start itself when the visual term is off.
    x = projected.copy() if np.may_share_memory(projected, start) else projected
    tv = stack_energy(x, stack, cfg)
    behind = np.maximum(behind, tv.behind_camera)
    solver.factor(stack, tv)
    values, grad = tv.value, tv.grad
    del tv
    iterations = np.zeros(len(x), int)
    converged = np.zeros(len(x), bool)
    going = np.ones(len(x), bool)
    while True:
        quad = solver.sweep(grad)
        converged |= going & (0.5 * quad <= settings.grad_tol * values)
        stepping = going & ~converged & (iterations < settings.max_iterations)
        if not stepping.any():
            break
        moved = solver.step()
        moved[~stepping] = 0.0
        np.add(x, moved, out=moved)  # the trial point, in the step's buffer
        trial = stack_energy(moved, stack, cfg)
        behind = np.where(stepping, np.maximum(behind, trial.behind_camera), behind)
        going = stepping & (trial.value < values)  # a step that fails to lower stops its window
        iterations += going
        kept = going[:, None, None, None]
        np.copyto(x, moved, where=kept)
        np.copyto(values, trial.value, where=going)
        np.copyto(grad, trial.grad, where=kept)
        del moved, trial  # not held through the next step's sweep and pass
    # Never above the start: a window that ended above it falls back to it.
    above = values > start_values
    np.copyto(x, start, where=above[:, None, None, None])
    np.copyto(values, start_values, where=above)
    converged &= ~above
    return [FragmentResult(Fragment(point, fps, window_start), *record)
            for point, window_start, *record in zip(
                x, starts, start_values.tolist(), values.tolist(), iterations.tolist(),
                converged.tolist(), behind.tolist())]


def minimize_fragment(
    frag: Fragment,
    obs: Observations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> FragmentResult:
    """Minimize the total energy over one fragment's coordinates.

    Each term is divided by cfg.scales or its stream variance, as in
    total_energy, whatever the start. With the visual term active, every
    joint first moves to its ray projection, the free joints' minimum; the
    chains then take Gauss-Newton steps from there, one energy evaluation
    each. The result is the best point evaluated, so never above the initial
    one. This is the solve of a stack of one window.
    """
    stack = WindowStack.of_window(frag, obs, cfg.active_terms)
    start = np.array([frag.positions])
    projected = visual_minimum(start, stack.pixels, stack.camera) if cfg.k_visual > 0.0 else start
    return _solve_stack(start, projected, stack, [frag.start], cfg, settings, _ChainSolver())[0]


def _solve_windows(schedule: FragmentSchedule, windows: range, poses: np.ndarray,
                   projected: np.ndarray, seq_obs: SequenceObservations,
                   cfg: EnergyConfig, settings: SolverSettings,
                   solver: _ChainSolver) -> list[FragmentResult]:
    """Gather the rows of `windows` into one WindowStack and solve them with `solver`.

    `poses` and `seq_obs` hold either the whole sequence or a ring of its
    last len(poses) frames, frame t at row t % len(poses), and the poses'
    visual_minimum `projected` (`poses` itself when the visual term is
    inactive) either the whole sequence or a ring of len(projected) frames
    in the same way; each ring must hold every frame of `windows`.
    """
    frames = np.stack([schedule.window_frames(k) for k in windows])
    rows = frames % len(poses)
    stack = WindowStack(seq_obs, rows, poses.shape, seq_obs.fps)
    return _solve_stack(poses[rows], projected[frames % len(projected)], stack,
                        [schedule.window_start(k) for k in windows], cfg, settings, solver)


def _average_halves(first: np.ndarray, second: np.ndarray, stride: int) -> np.ndarray:
    """Average window k-1's second half with window k's first half: the
    `stride` frames from window k's start. Windows lie on axis -3 of (..., N, J, 3)."""
    return (first[..., stride:, :, :] + second[..., :stride, :, :]) * 0.5


def _completed_rows(schedule: FragmentSchedule, k: int, prev: np.ndarray,
                    cur: np.ndarray) -> tuple[int, np.ndarray]:
    """The first frame and the merged rows of the frames that window k > 0
    completes, averaged from window k-1's positions `prev` and its own
    `cur` as merge_fragments averages them: they start at window k's start
    and stop at the stride or the sequence's end."""
    start = schedule.window_start(k)
    return start, _average_halves(prev, cur, schedule.stride)[:schedule.frame_count - start]


def merge_fragments(schedule: FragmentSchedule, fragments: list[Fragment]) -> np.ndarray:
    """Average the two overlapping copies of every original frame; padding slots
    (clamped replicas) are discarded."""
    if len(fragments) != schedule.window_count:
        raise ValueError(f"expected {schedule.window_count} fragments, got {len(fragments)}")
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


def refine_batch(
    poses: np.ndarray,
    seq_obs: SequenceObservations,
    cfg: EnergyConfig,
    settings: SolverSettings,
) -> tuple[np.ndarray, RefineStats]:
    """Optimize every window of a (T, J, 3) sequence and merge.

    Consecutive windows are solved as one stack of about _STACK_FRAMES
    frames; each window's result is bitwise the one it gets alone. Each
    stack's frames are projected onto their rays when the stack is reached,
    into one ring reused from stack to stack, as StreamingRefiner's ring
    holds them: the stride of frames that a stack shares with the next is
    carried over, so every frame is projected once, for both windows it
    lies in. Each window is averaged into the output as its stack is
    solved, as merge_fragments averages it, so only the last window's
    positions are kept from one stack to the next.
    """
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3 or poses.shape[2] != 3:
        raise ValueError(f"poses must have shape (T, J, 3), got {poses.shape}")
    seq_obs.check(poses.shape)
    schedule = FragmentSchedule(poses.shape[0], cfg.fragment_len)
    seq_obs.require(cfg.active_terms, cfg.fragment_len)
    t0 = time.perf_counter()
    per_stack = max(1, _STACK_FRAMES // schedule.fragment_len)
    stride, projected, done = schedule.stride, poses, 0
    if cfg.k_visual > 0.0:  # a stack of windows [first, stop) reads (stop - first + 1) strides
        projected = np.empty((min(len(poses), (per_stack + 1) * stride), *poses.shape[1:]))
    solver, merged, prev, behind = _ChainSolver(), np.empty(poses.shape), None, 0
    for first in range(0, schedule.window_count, per_stack):
        windows = range(first, min(first + per_stack, schedule.window_count))
        end = min(len(poses), windows.stop * stride)  # past the stack's last frame
        if projected is not poses and done < end:
            projected[np.arange(done, end) % len(projected)] = visual_minimum(
                poses[done:end], seq_obs.pixels[done:end], seq_obs.camera)
            done = end
        for k, res in zip(windows, _solve_windows(schedule, windows, poses, projected, seq_obs,
                                                  cfg, settings, solver)):
            cur = res.fragment.positions
            if k > 0:
                start, rows = _completed_rows(schedule, k, prev, cur)
                merged[start:start + len(rows)] = rows
            prev, behind = cur, behind + res.behind_camera
    seconds, count = max(time.perf_counter() - t0, 1e-9), schedule.window_count
    return merged, RefineStats(count, seconds, count / seconds, len(poses) / seconds, behind)


_ROWS = ("positions", "pixels", "accel", "bones")  # the rows of a push, in argument order


class StreamingRefiner:
    """Frame-at-a-time variant of refine_batch with bounded latency and memory.

    Poses and their observation rows are pushed together, one frame per call,
    into ring buffers of N rows (frame t at row t % N). A window is optimized
    as soon as its last real frame arrives, when all N of its frames are still
    in the ring; the frames that arrived since the last solve are projected
    onto their rays into a ring of their own first, so each frame is
    projected once. Only the previous window's solution is kept: solving window k
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
        self._solver = _ChainSolver()
        self._len = cfg.fragment_len
        # Observation rings; their arrays are allocated on the first push.
        self._obs = SequenceObservations(
            fps=fps, camera=camera, sensor_joints=sensor_joints, sensor_parents=sensor_parents)
        self._pos: np.ndarray | None = None
        self._projected: np.ndarray | None = None  # visual_minimum rows, or _pos without k_visual
        self._frames = 0
        self._prev: np.ndarray | None = None  # positions of the last solved window
        self._next_window = 0
        self._finished = False

    def _run_windows(self, schedule: FragmentSchedule, stop: int) -> list[tuple[int, np.ndarray]]:
        """Project the frames that arrived since the last solve, then solve
        the windows up to `stop` as one stack; each emits the frames it
        shares with the one before."""
        windows = range(self._next_window, stop)
        if self._projected is not self._pos:
            # The last solve came once _next_window * stride frames had arrived.
            fresh = np.arange(self._next_window * schedule.stride, self._frames) % self._len
            self._projected[fresh] = visual_minimum(self._pos[fresh], self._obs.pixels[fresh],
                                                    self._obs.camera)
        self._next_window = stop
        out = []
        for k, res in zip(windows, _solve_windows(schedule, windows, self._pos, self._projected,
                                                  self._obs, self._cfg, self._settings,
                                                  self._solver)):
            cur = res.fragment.positions
            if k > 0:
                start, rows = _completed_rows(schedule, k, self._prev, cur)
                out += [(start + i, row) for i, row in enumerate(rows)]
            self._prev = cur
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
        rows = [None if r is None else np.asarray(r, dtype=float)
                for r in (positions, pixels, accel, bones)]
        if self._frames == 0:
            shape = rows[0].shape
            if len(shape) != 2 or shape[1] != 3:
                raise ValueError(f"positions row of frame 0 has shape {shape}, not (J, 3)")
            self._pos, *rings = [None if r is None else np.empty((self._len, *r.shape))
                                 for r in rows]
            self._obs = replace(self._obs, **dict(zip(_ROWS[1:], rings)))
            self._obs.check(self._pos.shape)
            self._obs.require(self._cfg.active_terms, self._len)
            self._projected = np.empty_like(self._pos) if self._cfg.k_visual > 0.0 else self._pos
        rings = (self._pos, self._obs.pixels, self._obs.accel, self._obs.bones)
        for name, ring, row in zip(_ROWS, rings, rows):
            if (ring is None) != (row is None):
                raise ValueError(f"{name} must be given for every frame or none")
            if row is not None and row.shape != ring.shape[1:]:
                raise ValueError(f"{name} row of frame {self._frames} has shape {row.shape}, "
                                 f"frame 0 had {ring.shape[1:]}")
        slot = self._frames % self._len
        for ring, row in zip(rings, rows):
            if row is not None:
                ring[slot] = row
        self._frames += 1
        # window k ends at frame (k + 1) * stride - 1, so it is whole once that arrives
        stride = self._len // 2
        if self._frames % stride:
            return []
        return self._run_windows(FragmentSchedule(self._frames, self._len), self._frames // stride)

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
