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
The solve factors it in two steps (_ChainSolver). First each frame's block of
each chain: its visual blocks at the frame's projection, the bone term and
the frame's own damping, with the parent-only joints eliminated; it reads
that frame alone, so it is built once, when the frame is projected, and the
two windows that cover the frame share it. Then a block LDL^T over blocks of
three frames (_Factor), each pivot the temporal blocks that every window
shares plus its frames' blocks, eliminated in order.

The streams are an energy.Observations (SequenceObservations adds the frame
rate), checked once where they enter, before any work: in refine_batch,
StreamingRefiner's first push and minimize_fragment, each checks them
against the poses and raises the MissingObservationError of an active term
that lacks its observations. Past that point nothing checks them again.

The solve runs over a stack of windows: one energy pass, one elimination
and one step call serve them all, while each window keeps its own stopping
rule. Every window minimizes the same objective, each term divided by its
stream variance (energy.EnergyConfig), so its result does not depend on
where it starts. Its state (values, step counts, flags and behind-camera
counts) is held in arrays over the window axis, and a window that stops
keeps its point, value and gradient under a mask. Batch and streaming reach
the solve through one driver, _WindowRun, which holds a run's _ChainSolver,
projection ring, next window, last solved window and behind-camera count.
Its build() projects frames and builds their blocks, each frame once;
solve() builds what its windows still lack, eliminates what is left of
their factorization, gathers their rows from the sequence arrays or the
streaming rings straight into one WindowStack, solves it, and averages each
window with the one before. refine_batch calls solve() once per group of
about _STACK_FRAMES frames, which shares numpy's per-call cost among the
windows, and eliminates every block of a group at once. StreamingRefiner
factors the next window as its frames arrive, one block per push
(_WindowRun.advance), so the push that completes the window eliminates its
last block and runs the Gauss-Newton steps; finish() solves the trailing
windows. minimize_fragment solves a stack of one. The _ChainSolver keeps
the pivot storage from stack to stack instead of mapping it afresh, and an
elimination builds each pivot in that storage, each LDL multiplier written
straight into it. A stack forms each trial point in its step's buffer and
updates its point and gradient in place. Every matrix product and inverse
runs once per window or chain, so a window's result is bitwise the same in
any stack and whichever pushes eliminated its blocks. The chains, with
their slots among the chain joints, come from the rig's one layout
(energy.RigLayout), built once per rig; the temporal part of every window's
normal matrix is one array per solve, whose pivot and coupling blocks
_ChainSolver builds once per chain size. Without the visual term every
frame's block is the same one, built once per solver. A stack evaluates its
start for the value no result may end above, then its projection (the
start without the visual term) for the first step, then each trial point.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .camera import Camera
from .energy import (Chains, EnergyConfig, Fragment, Observations, RigLayout, WindowStack,
                     is_finite_positive, is_integer, normal_parts, stack_energy, visual_blocks,
                     visual_minimum)
from .energy import total_energy  # noqa: F401 - not called here; perfbench/spans.py wraps this name

# Levenberg-Marquardt damping of each frame of a chain, relative to the
# scale of the chain's normal matrix in that frame: its largest visual or
# bone diagonal entry there plus the largest temporal entry. It keeps a chain
# solvable where no term pins a direction (a joint without pixels or bone
# rows, a linear trajectory without the visual term) and is far below the
# curvature elsewhere. Each frame's own scale, not the window's, makes a
# frame's block a function of that frame alone, so it can be built as the
# frame arrives; without the visual term every frame has the same scale.
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


# Row and column i + 1 and i + 2 of a 3x3 matrix, indices mod 3.
_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _inv3(a: np.ndarray) -> np.ndarray:
    """Inverses of symmetric (..., 3, 3) matrices, by their adjugate: entry
    (i, j) is the cofactor a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1],
    indices mod 3, and the determinant is row 0 of a against row 0 of the
    adjugate. Gathering the four cofactor factors as whole 3x3 arrays takes
    about half the numpy calls of one product per cofactor, which the
    stream pays at every build: `stream_rtof` ran 3% more frames/s so."""
    adj = (a[..., _NEXT[:, None], _NEXT] * a[..., _AFTER[:, None], _AFTER]
           - a[..., _NEXT[:, None], _AFTER] * a[..., _AFTER[:, None], _NEXT])
    det = a[..., 0, :] * adj[..., 0, :]
    return adj / (det[..., 0] + det[..., 1] + det[..., 2])[..., None, None]


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
    """The chain solve of a run's windows in two steps: build() turns frames
    into their blocks of the chains' damped normal matrices, and a _Factor
    of a stack of windows eliminates, block by block, the blocks whose
    frames are built.

    A frame's block of a chain is a function of that frame alone: its visual
    blocks at its projected point (energy.visual_blocks), the bone term and
    its own damping, with the parent-only joints eliminated through their
    3x3 blocks. So the two windows that cover a frame share its blocks,
    which build() writes into a ring of `rows` rows, frame t at row
    t % rows. Without the visual term every frame's block is the same one,
    built here. Every window of a run shares the temporal part of its normal
    matrix, so the solver builds its pivot and coupling blocks once per
    chain size (_temporal_blocks), and a stack's pivots start from them.

    The solver also keeps each chain group's pivot and multiplier storage,
    sized by the largest stack so far, for one factorization at a time: the
    next stack of a refine_batch call, or the next window of a stream,
    works in the same bytes, a smaller stack in a contiguous leading part.
    Fresh arrays per stack, about 1 MB each at six windows, sat at glibc's
    mmap threshold and were faulted in again for every stack: about 9,000
    minor faults per refine_batch call on the default 60 s capture, against
    1,000-1,800 with the storage kept.
    """

    def __init__(self, rig: RigLayout, cfg: EnergyConfig, fps: float, n: int,
                 camera: Camera | None, rows: int):
        self.camera, self.n, self.nb, self.rows = camera, n, -(-n // 3), rows
        self.visual, temporal, self.bone = normal_parts(cfg, fps, n)
        self.chain_joints = rig.chain_joints
        self._temporal_max = temporal.max()
        shared = {m: _temporal_blocks(temporal, m) for m in sorted(
            {ch.joints.shape[1] for ch in rig.chains})}
        # Per chain group: the chains, their temporal blocks, and the blocks
        # of the frames and inverse parent-only blocks, by ring row or alike.
        self.groups = []
        for ch in rig.chains:
            c, m = ch.joints.shape
            if self.visual:
                blocks = (np.empty((rows, c, 3 * m, 3 * m)),
                          np.empty((rows, *ch.parents.shape, 3, 3)))
            else:
                blocks = self._frame_blocks(ch, None)
            self.groups.append((ch, shared[m], *blocks))
        self._storage: dict[int, np.ndarray] = {}  # flat pivot storage by chain group

    def build(self, rows: np.ndarray, positions: np.ndarray, pixels: np.ndarray) -> None:
        """Build the blocks of frames at their projected `positions` (F, J, 3)
        with their `pixels` (F, J, 2) into ring `rows` (F,)."""
        if self.groups:
            joints = self.chain_joints
            visual = visual_blocks(positions[:, joints], pixels[:, joints], self.camera,
                                   self.visual)
            for ch, _, a, d_inv in self.groups:
                a[rows], d_inv[rows] = self._frame_blocks(ch, visual)

    def _frame_blocks(self, ch: Chains, visual: np.ndarray | None):
        """The blocks of chain group `ch` in F frames whose visual blocks over
        the rig's chain joints are `visual` (F, C, 3, 3), or in every frame
        alike without the visual term (None): the (..., c, 3m, 3m) block of
        each chain's sensor joints once its parent-only joints are
        eliminated, and those joints' inverse blocks (..., c, p, 3, 3)."""
        bone = self.bone
        c, m = ch.joints.shape
        size = 3 * m
        lead = () if visual is None else visual.shape[:1]
        # Each frame's block of the sensor joints from the visual and bone
        # terms, built in place: `by_joint` is `a` by joint and coordinate.
        by_joint = np.zeros((*lead, c, m, 3, m, 3))
        if visual is not None:
            np.einsum("...ixiy->...ixy", by_joint)[...] = visual[:, ch.joint_slots]
        a = by_joint.reshape(*lead, c, size, size)
        a += bone * ch.joint_bones
        diagonal = np.einsum("...ii->...i", a)  # writes go through to `a`
        largest = diagonal.max(axis=-1) + self._temporal_max
        mu = (_DAMPING * np.where(largest > 0.0, largest, 1.0))[..., None]
        diagonal += mu
        # Eliminate each parent-only joint through its own 3x3 block.
        parent = (bone * ch.parent_bones + mu)[..., None, None] * _identity(3)
        if visual is not None:
            parent = visual[:, ch.parent_slots] + parent
        d_inv = _inv3(parent)
        schur = (ch.pairs @ d_inv.reshape(*lead, c, -1, 9)).reshape(*lead, c, m, m, 3, 3)
        schur *= bone * bone
        by_joint -= schur.swapaxes(-3, -2)
        return a, d_inv

    def storage(self, group: int, shape: tuple[int, ...]) -> np.ndarray:
        """Chain group `group`'s pivot storage as a contiguous array of
        `shape`, its contents left as they are: the leading part of one flat
        buffer, which grows only when a stack needs more than any stack
        before it."""
        size = math.prod(shape)
        flat = self._storage.get(group)
        if flat is None or flat.size < size:
            flat = self._storage[group] = np.empty(size)
        return flat[:size].reshape(shape)


class _Factor:
    """The block LDL^T of the chain normal matrices of a stack of windows,
    whose slots are the run's `frames` (W, N), over blocks of three frames
    padded with decoupled identity frames. seed() starts each block's pivot
    once its frames' blocks are built, and advance() eliminates the blocks
    in order; once every block is eliminated, sweep() and step() solve for
    Gauss-Newton steps.

    The chains of all windows are factored as one stack: the chain axis runs
    over window x chain, and every matrix product and inverse runs once per
    chain, so a window's steps are bitwise the same in any stack and
    whichever calls seeded and eliminated its blocks.
    """

    def __init__(self, solver: _ChainSolver, frames: np.ndarray):
        self.solver, self.frames = solver, frames
        self.seeded = self.done = 0
        w, nb = len(frames), solver.nb
        self._pivots, self._d_inv = [], None
        for group, (ch, *_) in enumerate(solver.groups):
            c, m = ch.joints.shape
            blocks = solver.storage(group, (2 * nb - 1, w * c, 9 * m, 9 * m))
            self._pivots.append((blocks[:nb], blocks[nb:]))

    def seed(self, stop: int) -> None:
        """Start the pivots of blocks [seeded, stop) from their temporal
        blocks and their frames' blocks, which must be built."""
        solver, start, w = self.solver, self.seeded, len(self.frames)
        if stop <= start:
            return
        lo, hi = 3 * start, min(3 * stop, solver.n)
        full, rest = divmod(hi - lo, 3)
        rows = self.frames[:, lo:hi].T % solver.rows if solver.visual else None
        for (ch, shared, a, _), (diag, _) in zip(solver.groups, self._pivots):
            c, m = ch.joints.shape
            size = 3 * m
            diag[start:stop] = shared[start:stop, None]
            # (block, frame, window, chain, size, size): writes go through to `diag`
            parts = np.einsum("bwcfifj->bfwcij",
                              diag[start:stop].reshape(stop - start, w, c, 3, size, 3, size))
            if rows is not None:
                a = a[rows]  # (frame, window, chain, size, size)
            if full:
                parts[:full] += a if rows is None else a[:3 * full].reshape(full, 3, *a.shape[1:])
            if rest:
                parts[full, :rest] += a if rows is None else a[3 * full:]
        self.seeded = stop

    def advance(self, stop: int) -> None:
        """Eliminate blocks [done, stop), seeding those not yet seeded: each
        pivot takes its Schur term in place and becomes its inverse, and the
        multiplier coupling @ pivot^-1 of the block before is written, each
        straight into its storage."""
        self.seed(stop)
        for (_, shared, *_), (diag, sub) in zip(self.solver.groups, self._pivots):
            couplings = shared[self.solver.nb:]
            for b in range(self.done, stop):
                if b:
                    np.matmul(couplings[b - 1], diag[b - 1], out=sub[b - 1])
                    diag[b] -= sub[b - 1] @ couplings[b - 1].T
                diag[b] = np.linalg.inv(diag[b])
        self.done = max(self.done, stop)

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
        solver = self.solver
        if self._d_inv is None:  # each slot's inverse parent-only blocks, frames first
            rows = self.frames.T % solver.rows if solver.visual else None
            self._d_inv = [d_inv if rows is None else d_inv[rows] for *_, d_inv in solver.groups]
        w, n = grad.shape[:2]
        bone = solver.bone
        g = grad.swapaxes(0, 1)  # frames first
        quad = np.zeros(w)
        self._swept = []
        for (ch, *_), d_inv, (inv, mult) in zip(solver.groups, self._d_inv, self._pivots):
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
        bone = self.solver.bone
        step = np.zeros(self._shape)
        out = step.swapaxes(0, 1)  # frames first
        for (ch, *_), d_inv, (inv, mult), (g_p, x) in zip(
                self.solver.groups, self._d_inv, self._pivots, self._swept):
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
                 factor: _Factor) -> list[FragmentResult]:
    """minimize_fragment for every window of `stack` from its positions in
    `start` (W, N, J, 3); `projected`, an array of its own, holds their
    visual_minimum, or their positions again when the visual term is
    inactive, and becomes the windows' point, updated in place. `starts`
    are the windows' first frame indices, and `factor` the windows'
    factorization at `projected`, every block eliminated.

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
    x = projected
    tv = stack_energy(x, stack, cfg)
    behind = np.maximum(behind, tv.behind_camera)
    values, grad = tv.value, tv.grad
    del tv
    iterations = np.zeros(len(x), int)
    converged = np.zeros(len(x), bool)
    going = np.ones(len(x), bool)
    while True:
        quad = factor.sweep(grad)
        converged |= going & (0.5 * quad <= settings.grad_tol * values)
        stepping = going & ~converged & (iterations < settings.max_iterations)
        if not stepping.any():
            break
        moved = factor.step()
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
    projected = (visual_minimum(start, stack.pixels, stack.camera) if cfg.k_visual > 0.0
                 else start.copy())
    return _solve_stack(start, projected, stack, [frag.start], cfg, settings,
                        _factored(stack, cfg, projected))[0]


def _factored(stack: WindowStack, cfg: EnergyConfig, x: np.ndarray) -> _Factor:
    """The factorization of every window of `stack` at its projected
    positions x (W, N, J, 3), each window slot a frame of its own: the
    factor of a window solved outside a run."""
    w, n = x.shape[:2]
    solver = _ChainSolver(stack.rig, cfg, stack.key[2], n, stack.camera, w * n)
    if solver.visual:
        solver.build(np.arange(w * n), x.reshape(w * n, *x.shape[2:]),
                     stack.pixels.reshape(w * n, *stack.pixels.shape[2:]))
    factor = _Factor(solver, np.arange(w * n).reshape(w, n))
    factor.advance(solver.nb)
    return factor


def _average_halves(first: np.ndarray, second: np.ndarray, stride: int) -> np.ndarray:
    """Average window k-1's second half with window k's first half: the
    `stride` frames from window k's start. Windows lie on axis -3 of (..., N, J, 3)."""
    return (first[..., stride:, :, :] + second[..., :stride, :, :]) * 0.5


class _WindowRun:
    """The solve of one sequence's windows in order, batch or as frames
    arrive: the run's _ChainSolver, its ring of projected frames (the poses
    themselves without the visual term), the number of frames projected and
    built, the factorization a stream has begun of the next window with
    each of its blocks' last frame, the next window to solve, the last
    solved window's positions and the run's behind-camera count.

    `poses` and `obs` hold either the whole sequence or a ring of its last
    len(poses) frames, frame t at row t % len(poses); the projection ring
    and the solver's ring of frame blocks hold `ring` frames in the same
    way. A solve reads every frame of its windows from the rings, so they
    must still hold them.
    """

    def __init__(self, poses: np.ndarray, obs: SequenceObservations, cfg: EnergyConfig,
                 settings: SolverSettings, ring: int):
        self.poses, self.obs, self.cfg, self.settings = poses, obs, cfg, settings
        visual = cfg.k_visual > 0.0
        self.projected = np.empty((ring, *poses.shape[1:])) if visual else poses
        self.solver = _ChainSolver(obs.rig_layout(poses.shape[1]), cfg, obs.fps,
                                   cfg.fragment_len, obs.camera, ring if visual else 0)
        self.built, self.factor, self.ends = 0, None, []
        self.next, self.prev, self.behind = 0, None, 0

    def build(self, stop: int) -> None:
        """Project frames [built, stop) onto their rays and build their blocks."""
        if stop > self.built and self.projected is not self.poses:
            fresh = np.arange(self.built, stop)
            rows, ring = fresh % len(self.poses), fresh % len(self.projected)
            pixels = self.obs.pixels[rows]
            self.projected[ring] = x = visual_minimum(self.poses[rows], pixels, self.obs.camera)
            self.solver.build(ring, x, pixels)
        self.built = max(self.built, stop)

    def advance(self, arrived: int) -> None:
        """Factor the next window of a stream of `arrived` frames as its
        frames arrive, one block per call: the next block, once its frames
        have arrived and are built. A block waits for its frames to be built
        unless the window has no more calls left before the one that solves
        it than blocks before its last; then this call builds every frame
        that has arrived. So a stride's frames are built in a few groups, and
        the push that solves the window finds only its last block left."""
        n, nb = self.solver.n, self.solver.nb
        stride = n // 2
        solve_at = (self.next + 1) * stride  # the frame count at which the window is solved
        factor = self.factor
        if factor is None:  # the frames to come are taken as real until the stream ends
            first = (self.next - 1) * stride
            frames = np.maximum(np.arange(first, first + n), 0)
            factor = self.factor = _Factor(self.solver, frames[None])
            self.ends = frames[np.minimum(np.arange(2, 3 * nb, 3), n - 1)].tolist()
        b, ends = factor.done, self.ends  # ends: each block's last frame
        if b == nb - 1 or ends[b] >= arrived:
            return
        if b == factor.seeded:
            if ends[b] >= self.built:  # its frames are not built yet
                if nb - 1 - b < solve_at - arrived:
                    return
                self.build(arrived)
            factor.seed(bisect.bisect_left(ends, self.built))
        factor.advance(b + 1)

    def solve(self, schedule: FragmentSchedule, stop: int) -> list[tuple[int, np.ndarray]]:
        """Solve windows [next, stop) of `schedule` as one stack, after
        building their frames and eliminating what is left of their
        factorization: all of it in a batch, the last block of a window a
        stream has factored as it filled. Returns, for each of them past
        window 0, the first frame and the merged rows of the frames it
        completes, averaged with the window before as merge_fragments
        averages them: they start at the window's start and stop at the
        stride or the sequence's end."""
        stride, windows = schedule.stride, range(self.next, stop)
        self.build(min(schedule.frame_count, stop * stride))
        frames = np.stack([schedule.window_frames(k) for k in windows])
        factor, self.factor = self.factor, None
        if factor is None:
            factor = _Factor(self.solver, frames)
        else:
            factor.frames = frames  # the stream's end turns its last slots into replicas
        factor.advance(self.solver.nb)
        rows = frames % len(self.poses)
        stack = WindowStack(self.obs, rows, self.poses.shape, self.obs.fps)
        results = _solve_stack(self.poses[rows], self.projected[frames % len(self.projected)],
                               stack, [schedule.window_start(k) for k in windows], self.cfg,
                               self.settings, factor)
        self.next, blocks = stop, []
        for k, res in zip(windows, results):
            cur = res.fragment.positions
            if k > 0:
                start = schedule.window_start(k)
                blocks.append((start, _average_halves(self.prev, cur, stride)
                               [:schedule.frame_count - start]))
            self.prev, self.behind = cur, self.behind + res.behind_camera
        return blocks


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
    frames by the driver StreamingRefiner solves through; each window's
    result is bitwise the one it gets alone. The driver projects each
    stack's new frames and builds their blocks into rings that carry the
    stride a stack shares with the next, so every frame is projected and
    built once, then eliminates every block of the stack in one call of
    the elimination a stream advances push by push, and each merged block
    is written into the output as its stack is solved.
    """
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3 or poses.shape[2] != 3:
        raise ValueError(f"poses must have shape (T, J, 3), got {poses.shape}")
    seq_obs.check(poses.shape)
    schedule = FragmentSchedule(poses.shape[0], cfg.fragment_len)
    seq_obs.require(cfg.active_terms, cfg.fragment_len)
    t0 = time.perf_counter()
    per_stack = max(1, _STACK_FRAMES // schedule.fragment_len)
    # a stack of windows [first, stop) reads (stop - first + 1) strides
    run = _WindowRun(poses, seq_obs, cfg, settings,
                     min(len(poses), (per_stack + 1) * schedule.stride))
    merged = np.empty(poses.shape)
    while run.next < schedule.window_count:
        for start, rows in run.solve(schedule, min(run.next + per_stack, schedule.window_count)):
            merged[start:start + len(rows)] = rows
    seconds, count = max(time.perf_counter() - t0, 1e-9), schedule.window_count
    return merged, RefineStats(count, seconds, count / seconds, len(poses) / seconds, run.behind)


_ROWS = ("positions", "pixels", "accel", "bones")  # the rows of a push, in argument order


class StreamingRefiner:
    """Frame-at-a-time variant of refine_batch with bounded latency and memory.

    Poses and their observation rows are pushed together, one frame per call,
    into ring buffers of N rows (frame t at row t % N). A window is optimized
    as soon as its last real frame arrives, when all N of its frames are still
    in the ring. The rings are solved through the driver refine_batch uses,
    built at the first push, which factors the next window as its frames
    arrive: a push that completes no window eliminates at most one block of
    it, one whose frames have arrived, and projects and builds the frames
    that have arrived only when the window would otherwise fall behind, a
    few times per stride, into rings of their own, so each frame is built
    once. The push that completes the window builds its newest frames,
    eliminates its last block and runs the Gauss-Newton steps; it keeps only
    the previous window's solution: solving window k emits the N/2 frames it
    shares with window k-1, averaged as merge_fragments averages them (at
    most N frames plus one solve behind the input). finish() factors and
    solves the trailing replica-padded windows. Output is bitwise-identical
    to refine_batch on the same data.
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
            fps=fps, camera=camera, sensor_joints=sensor_joints, sensor_parents=sensor_parents)
        self._pos: np.ndarray | None = None
        self._run: _WindowRun | None = None  # the solve over the rings, built on the first push
        self._frames = 0
        self._finished = False

    def _solve(self, schedule: FragmentSchedule, stop: int) -> list[tuple[int, np.ndarray]]:
        """Solve the windows up to `stop`; each emits the frames it shares with the one before."""
        return [(start + i, row) for start, rows in self._run.solve(schedule, stop)
                for i, row in enumerate(rows)]

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
            self._run = _WindowRun(self._pos, self._obs, self._cfg, self._settings, self._len)
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
            self._run.advance(self._frames)
            return []
        return self._solve(FragmentSchedule(self._frames, self._len), self._frames // stride)

    def finish(self) -> list[tuple[int, np.ndarray]]:
        """Flush trailing windows; returns the remaining frames in order."""
        if self._finished:
            return []
        self._finished = True
        if self._frames == 0:
            return []
        # one window at a time, each from the factorization its frames began
        schedule = FragmentSchedule(self._frames, self._len)
        return [row for stop in range(self._run.next + 1, schedule.window_count + 1)
                for row in self._solve(schedule, stop)]


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
