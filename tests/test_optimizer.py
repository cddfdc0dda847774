import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifuse import (
    DEFAULT_NOISE,
    Camera,
    EnergyConfig,
    Fragment,
    FragmentSchedule,
    MissingObservationError,
    Observations,
    SequenceObservations,
    SolverSettings,
    StreamingRefiner,
    apply_mode,
    calibrate_stream,
    default_script,
    make_dataset,
    merge_fragments,
    minimize_fragment,
    refine_batch,
    run_stream,
    total_energy,
    visual_minimum,
)
from vifuse import energy, optimizer
from vifuse.rotmath import IDENTITY, quat_matrix

from conftest import dense_calibration
from test_energy import reference_values, stream_variances, visual_blocks_of_every_joint


def seq_problem(rng, t_n=30, j_n=3, fps=10.0, sensors=(1, 2), parents=(0, 1)):
    truth = rng.uniform(-200.0, 200.0, (t_n, j_n, 3))
    truth[..., 2] += 2000.0
    cam = Camera(500.0, 500.0, 0.0, 0.0, IDENTITY, np.zeros(3))
    noisy = truth + rng.normal(0.0, 8.0, truth.shape)
    k = len(sensors)
    obs = SequenceObservations(
        fps=fps,
        pixels=cam.project(truth) + rng.normal(0.0, 0.5, (t_n, j_n, 2)),
        camera=cam,
        accel=rng.normal(0.0, 50.0, (t_n, k, 3)),
        bones=rng.normal(0.0, 30.0, (t_n, k, 3)),
        sensor_joints=np.array(sensors),
        sensor_parents=np.array(parents),
    )
    return noisy, obs


def test_settings_validation():
    for bad in (
        dict(max_iterations=0),
        dict(grad_tol=0.0),
    ):
        with pytest.raises(ValueError):
            SolverSettings(**bad)


@pytest.mark.parametrize("value", [True, False, np.True_])
def test_settings_refuse_a_bool_for_a_number(value):
    with pytest.raises(ValueError, match=rf"^grad_tol must be finite and positive, got {value}$"):
        SolverSettings(grad_tol=value)
    with pytest.raises(ValueError, match=rf"^max_iterations must be an integer >= 1, got {value!r}$"):
        SolverSettings(max_iterations=value)


def window_problem(rng, n=8, j_n=4, fps=25.0, sensors=(1, 2), parents=(0, 1)):
    """One window whose observations agree, up to noise, with joints moving at
    constant acceleration 3 m in front of the camera; the start is the truth
    plus 20 mm noise."""
    t = np.arange(n)[:, None, None] / fps
    acc = rng.normal(0.0, 500.0, (1, j_n, 3))
    truth = (rng.uniform(-300.0, 300.0, (1, j_n, 3)) + [0.0, 0.0, 3000.0]
             + rng.normal(0.0, 200.0, (1, j_n, 3)) * t + 0.5 * acc * t * t)
    cam = Camera(500.0, 500.0, 0.0, 0.0, IDENTITY, np.zeros(3))
    sensors, parents = list(sensors), list(parents)
    obs = Observations(
        pixels=cam.project(truth) + rng.normal(0.0, 0.5, (n, j_n, 2)),
        camera=cam,
        accel=acc[:, sensors] + rng.normal(0.0, 50.0, (n, len(sensors), 3)),
        bones=truth[:, sensors] - truth[:, parents] + rng.normal(0.0, 5.0, (n, len(sensors), 3)),
        sensor_joints=sensors,
        sensor_parents=parents,
    )
    return Fragment(truth + rng.normal(0.0, 20.0, truth.shape), fps), obs


def objective(frag, obs, cfg):
    """total_energy over positions in `frag`'s place: the objective minimize_fragment minimizes."""
    return lambda x: total_energy(Fragment(x, frag.fps, frag.start), obs, cfg)


@pytest.fixture
def sweeps(monkeypatch):
    """Every stopping value g^T H^-1 g the solve reads off a forward sweep,
    next to -grad . step of the step that sweep starts, per window."""
    pairs = []

    class Checked(optimizer._Factor):
        def sweep(self, grad):
            quad = super().sweep(grad)
            step = self.step()
            again = super().sweep(grad)  # the solve goes on from a fresh sweep
            assert again.tobytes() == quad.tobytes()
            pairs.append((quad, [-float(np.vdot(g, d)) for g, d in zip(grad, step)]))
            return again

    monkeypatch.setattr(optimizer, "_Factor", Checked)
    return pairs


def assert_sweeps_give_the_steps_decrease(pairs):
    assert pairs
    for quad, want in pairs:
        np.testing.assert_allclose(quad, want, rtol=1e-12, atol=0.0)


def test_quadratic_converges_fast(rng):
    # Without the visual term the energy is quadratic in the chain joints, and
    # the damped normal matrix is its Hessian: one step lands on the minimum.
    # Joint 3 is free, and without the visual term nothing moves it.
    frag, obs = window_problem(rng, j_n=4)
    cfg = EnergyConfig(k_visual=0.0, k_inertial=1.0, fragment_len=8)
    res = minimize_fragment(frag, obs, cfg, SolverSettings())
    assert res.converged and res.iterations == 1
    grad = objective(frag, obs, cfg)(res.fragment.positions).grad
    start_grad = objective(frag, obs, cfg)(frag.positions).grad
    assert np.max(np.abs(grad)) <= 1e-6 * np.max(np.abs(start_grad))
    np.testing.assert_array_equal(res.fragment.positions[:, 3], frag.positions[:, 3])


def test_iteration_cap_respected(rng):
    frag, obs = window_problem(rng)
    cfg = EnergyConfig(fragment_len=8)
    assert minimize_fragment(frag, obs, cfg, SolverSettings()).iterations > 1
    res = minimize_fragment(frag, obs, cfg, SolverSettings(max_iterations=1))
    assert res.iterations == 1
    assert not res.converged


def test_fragment_solve_spends_few_evaluations_beyond_its_iterations(rng, monkeypatch):
    frag, window = window_problem(rng, n=50)
    calls, steps = [], []
    monkeypatch.setattr(optimizer, "stack_energy",
                        lambda *a, **kw: calls.append(1) or energy.stack_energy(*a, **kw))
    step = optimizer._Factor.step
    monkeypatch.setattr(optimizer._Factor, "step", lambda self: steps.append(1) or step(self))
    res = minimize_fragment(frag, window, EnergyConfig(fragment_len=50), SolverSettings())
    assert res.converged and res.iterations > 0
    assert len(calls) == res.iterations + 2  # the start, the projected start, then one per step
    assert len(steps) == res.iterations  # no step is built past the last stopping test


def test_result_is_monotone(rng, monkeypatch):
    # The result is the best point evaluated, and never above the start.
    for max_iterations in (1, 2, 1, 2, 30, 30):
        frag, obs = window_problem(rng, j_n=4)
        values = []
        monkeypatch.setattr(optimizer, "stack_energy",
                            lambda *a, **kw: values.append(energy.stack_energy(*a, **kw)) or values[-1])
        res = minimize_fragment(frag, obs, EnergyConfig(fragment_len=8),
                                SolverSettings(max_iterations=max_iterations))
        assert res.final_value <= res.initial_value == values[0].value[0]
        assert res.final_value == min(v.value[0] for v in values)


def test_failed_step_keeps_the_best_iterate(rng, monkeypatch):
    # A gradient with the wrong sign makes every step go uphill.
    frag, obs = window_problem(rng)
    cfg = EnergyConfig(fragment_len=8)

    def liar(*a, **kw):
        tv = energy.stack_energy(*a, **kw)
        return tv if tv.grad is None else tv._replace(grad=-tv.grad)

    monkeypatch.setattr(optimizer, "stack_energy", liar)
    res = minimize_fragment(frag, obs, cfg, SolverSettings())
    assert not res.converged and res.iterations == 0
    projected = visual_minimum(frag.positions, obs.pixels, obs.camera)
    np.testing.assert_array_equal(res.fragment.positions, projected)
    assert res.final_value == objective(frag, obs, cfg)(projected).value < res.initial_value


def capture_problem(seed, duration, calib=None):
    """The sf2 poses, a start away from the input, and the observations of a
    default-noise capture."""
    ds = make_dataset(DEFAULT_NOISE, seed=seed, script=default_script(duration), calib=calib)
    start, _ = apply_mode("sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu)
    _, accel, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    seq = SequenceObservations(fps=ds.fps, pixels=ds.pixels, camera=ds.camera, accel=accel,
                               bones=bones, sensor_joints=joints,
                               sensor_parents=np.array(ds.skeleton.parents)[joints])
    return start, seq


DEEP = SolverSettings(max_iterations=100, grad_tol=1e-12)


def solve_windows(schedule, windows, start, seq, cfg, settings):
    """The driver's stack solve of windows of the whole sequence as one stack."""
    run = optimizer._WindowRun(start, seq, seq.fps, cfg, settings, n=schedule.fragment_len,
                               ring=len(start), windows=len(windows))
    return run.solve_stack(np.stack([schedule.window_frames(k) for k in windows]),
                           [schedule.window_start(k) for k in windows])


def test_default_solve_is_within_tolerance_of_deep_solve(sweeps):
    # Every window of a short default-noise capture, started from sf2.
    start, seq = capture_problem(3, 4.0)
    cfg = EnergyConfig()
    schedule = FragmentSchedule(len(start), cfg.fragment_len)
    windows = range(schedule.window_count)
    for default, best in zip(
            solve_windows(schedule, windows, start, seq, cfg, SolverSettings()),
            solve_windows(schedule, windows, start, seq, cfg, DEEP)):
        assert default.converged and best.converged
        assert default.iterations <= 3
        assert best.final_value <= default.final_value <= best.final_value * (1.0 + 1e-6)
    assert_sweeps_give_the_steps_decrease(sweeps)


def test_chain_joints_do_not_depend_on_the_start():
    # Every window divides its terms by the same stream variances, so the
    # chains reach one minimum from the input poses, rtof's start, and from
    # sf2's output alike.
    sf2, seq = capture_problem(0, 8.0)
    inputs = make_dataset(DEFAULT_NOISE, seed=0, script=default_script(8.0)).inputs
    assert np.abs(inputs - sf2).max() > 10.0  # two starts that differ
    chains = np.union1d(seq.sensor_joints, seq.sensor_parents)
    from_input, _ = refine_batch(inputs, seq, EnergyConfig(), SolverSettings())
    from_sf2, _ = refine_batch(sf2, seq, EnergyConfig(), SolverSettings())
    apart = np.linalg.norm(from_input[:, chains] - from_sf2[:, chains], axis=-1)
    assert apart.max() < 0.5


@pytest.mark.parametrize("calib", [None, dense_calibration()], ids=["default_rig", "dense_rig"])
def test_batch_factors_every_stack_in_one_storage(monkeypatch, calib):
    # Nine windows in stacks of four, four and one: every stack's pivots, the
    # short trailing one's too, lie in the storage the first stack filled.
    start, seq = capture_problem(3, 8.0, calib)
    factors = []

    class Spy(optimizer._Factor):
        def sweep(self, grad):
            if not factors or factors[-1] is not self:
                factors.append(self)
            return super().sweep(grad)

    monkeypatch.setattr(optimizer, "_Factor", Spy)
    monkeypatch.setattr(optimizer, "_STACK_FRAMES", 4 * EnergyConfig().fragment_len)
    refine_batch(start, seq, EnergyConfig(), SolverSettings())
    # Each stack's (pivots, multipliers) per chain group; the pivots run
    # over blocks, then over windows x chains.
    assert [len(f._pivots[0][0][0]) // len(f.solver.groups[0][0].joints)
            for f in factors] == [4, 4, 1]
    for before, after in zip(factors, factors[1:]):
        assert len(before._pivots) == len(after._pivots)
        for (pivots, _), (later, _) in zip(before._pivots, after._pivots):
            assert np.shares_memory(pivots, later)


def test_batch_output_does_not_depend_on_the_stack_size(monkeypatch, sweeps):
    # Deep settings make windows stop after different step counts; one chain
    # joint starts behind the camera in frame 30, which windows 1 and 2 hold.
    # The dense rig stacks chains of three shapes: a torso chain of eight
    # sensor joints, one of one and two of two.
    cfg = EnergyConfig()
    for calib, duration, windows, stack_sizes in ((None, 4.0, 5, (1, 3)),
                                                  (dense_calibration(), 8.0, 9, (1, 6))):
        start, seq = capture_problem(3, duration, calib)
        start[30, seq.sensor_joints[1]] = (seq.camera.center
                                           - 500.0 * quat_matrix(seq.camera.rotation)[2])
        schedule = FragmentSchedule(len(start), cfg.fragment_len)
        assert schedule.window_count == windows
        runs = []
        for per_stack in (*stack_sizes, windows):
            monkeypatch.setattr(optimizer, "_STACK_FRAMES", per_stack * cfg.fragment_len)
            runs.append(refine_batch(start, seq, cfg, DEEP))
        iterations = {res.iterations for res in solve_windows(
            schedule, range(windows), start, seq, cfg, DEEP)}
        assert len(iterations) > 1
        assert runs[0][1].behind_camera_skips > 0
        for merged, stats in runs[1:]:
            assert merged.tobytes() == runs[0][0].tobytes()
            assert stats.behind_camera_skips == runs[0][1].behind_camera_skips
    assert_sweeps_give_the_steps_decrease(sweeps)


def solve_as_one_stack(frags, observations, cfg, settings):
    """Solve windows of one layout, each with its own observations, as one
    stack: their rows are laid end to end in one source."""
    n = frags[0].frame_count
    source = replace(observations[0], **{
        name: np.concatenate([getattr(o, name) for o in observations])
        for name in ("pixels", "accel", "bones")})
    positions = np.concatenate([f.positions for f in frags])
    run = optimizer._WindowRun(positions, source, frags[0].fps, cfg, settings, n=n,
                               ring=len(positions), windows=len(frags))
    return run.solve_stack(np.arange(len(positions)).reshape(len(frags), n),
                           [f.start for f in frags])


def test_each_window_of_a_stack_is_solved_as_if_alone(rng, sweeps):
    # One window at its minimum, one that converges in two steps and one
    # stopped by the two-step cap, in the layout of problem_at_minimum.
    at_min, obs, cfg = problem_at_minimum()
    pos = at_min.positions
    frags, observations = [], []
    for sigma in (0.2, None, 0.01):
        if sigma is None:
            frags.append(at_min)
            observations.append(obs)
            continue
        frags.append(Fragment(pos + rng.normal(0.0, sigma, pos.shape), at_min.fps))
        observations.append(replace(
            obs, pixels=obs.pixels + rng.normal(0.0, 0.1 * sigma, obs.pixels.shape),
            accel=rng.normal(0.0, sigma, obs.accel.shape),
            bones=obs.bones + rng.normal(0.0, sigma, obs.bones.shape)))
    settings = SolverSettings(max_iterations=2)
    stacked = solve_as_one_stack(frags, observations, cfg, settings)
    capped, minimum, converging = stacked
    assert not capped.converged and capped.iterations == 2
    assert minimum.converged and minimum.iterations == 0 and minimum.final_value == 0.0
    assert converging.converged and converging.iterations == 2
    for res, frag, o in zip(stacked, frags, observations):
        alone = minimize_fragment(frag, o, cfg, settings)
        assert res.fragment.positions.tobytes() == alone.fragment.positions.tobytes()
        assert res.fragment.start == alone.fragment.start
        assert (res.initial_value, res.final_value, res.iterations, res.converged,
                res.behind_camera) == (alone.initial_value, alone.final_value, alone.iterations,
                                       alone.converged, alone.behind_camera)
    assert_sweeps_give_the_steps_decrease(sweeps)


def test_revert_to_the_start_is_per_window(rng, monkeypatch):
    # Every step goes uphill, as in test_failed_step_keeps_the_best_iterate,
    # so each window ends at the better of its start and its ray projection.
    # The projection lowers the energy of the first window. The second starts
    # where its inertial terms vanish, and the projection raises them more
    # than it lowers the visual term: it falls back to its start.
    frag, obs = window_problem(rng)
    x = frag.positions
    accel = np.zeros_like(obs.accel)
    accel[1:-1] = (x[2:] - 2.0 * x[1:-1] + x[:-2])[:, obs.sensor_joints] * frag.fps ** 2
    inertial_start = replace(obs, accel=accel, bones=x[:, obs.sensor_joints] - x[:, obs.sensor_parents])
    cfg = EnergyConfig(fragment_len=8)

    def liar(*a, **kw):
        tv = energy.stack_energy(*a, **kw)
        return tv if tv.grad is None else tv._replace(grad=-tv.grad)

    monkeypatch.setattr(optimizer, "stack_energy", liar)
    observations = [obs, inertial_start]
    stacked = solve_as_one_stack([frag, frag], observations, cfg, SolverSettings())
    for res, o in zip(stacked, observations):
        alone = minimize_fragment(frag, o, cfg, SolverSettings())
        assert res.fragment.positions.tobytes() == alone.fragment.positions.tobytes()
        assert (res.final_value, res.iterations, res.converged) == (
            alone.final_value, alone.iterations, alone.converged)
        assert not res.converged and res.iterations == 0
    assert stacked[0].final_value < stacked[0].initial_value
    np.testing.assert_array_equal(stacked[0].fragment.positions,
                                  visual_minimum(x, obs.pixels, obs.camera))
    assert stacked[1].final_value == stacked[1].initial_value
    np.testing.assert_array_equal(stacked[1].fragment.positions, x)


@pytest.mark.parametrize("n, k_visual", [(20, 1.0), (64, 0.0), (7, 1.0)],
                         ids=["20", "64-no_visual", "7"])
def test_a_fragment_is_solved_at_its_own_length(n, k_visual):
    # minimize_fragment takes its window length from the fragment, not from
    # cfg.fragment_len (N = 50 by default): a fragment of n frames gets the
    # bytes it gets under N = n, and one of an odd length, which no N has,
    # converges.
    start, seq = capture_problem(3, 4.0)
    rows = np.arange(10, 10 + n)
    frag = Fragment(start[rows], seq.fps, 10)
    obs = Observations(pixels=seq.pixels[rows], camera=seq.camera, accel=seq.accel[rows],
                       bones=seq.bones[rows], sensor_joints=seq.sensor_joints,
                       sensor_parents=seq.sensor_parents)
    res = minimize_fragment(frag, obs, EnergyConfig(k_visual=k_visual), SolverSettings())
    assert res.converged and res.final_value < res.initial_value
    assert res.fragment.start == 10 and res.fragment.positions.shape == frag.positions.shape
    if n % 2 == 0:
        at_n = minimize_fragment(frag, obs, EnergyConfig(k_visual=k_visual, fragment_len=n),
                                 SolverSettings())
        assert res.fragment.positions.tobytes() == at_n.fragment.positions.tobytes()
        assert (res.initial_value, res.final_value, res.iterations, res.converged,
                res.behind_camera) == (at_n.initial_value, at_n.final_value, at_n.iterations,
                                       at_n.converged, at_n.behind_camera)


def traced_peak(start, seq):
    """The tracemalloc peak of one refine_batch call, in bytes."""
    tracemalloc.start()
    try:
        refine_batch(start, seq, EnergyConfig(), SolverSettings())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_stays_bounded():
    # Stacking every window of the default 60 s capture at once peaks near
    # 50 MB; stacks of 400 frames peak near 8 MB.
    assert traced_peak(*capture_problem(0, 60.0)) < 12e6


def test_batch_memory_stays_bounded_on_the_dense_rig():
    # The torso chain's pivot storage alone is 11 MB; the peak is near 20 MB,
    # and 24.5 MB if every window is kept for one merge and the factor builds
    # its pivots through full-size copies.
    assert traced_peak(*capture_problem(0, 60.0, dense_calibration())) < 23e6


def test_batch_memory_grows_with_the_frames_by_the_output_alone():
    # Each stack's frames are projected when the stack is reached, into one
    # ring reused from stack to stack, so twice the frames add only the
    # (T, J, 3) output's 1500 more frames: 0.756 MB, plus 64 KiB of slack.
    # Projecting the whole sequence before the first stack adds as much again.
    peaks = {duration: traced_peak(*capture_problem(0, duration)) for duration in (60.0, 120.0)}
    output = 1500 * 21 * 3 * 8
    assert peaks[120.0] <= peaks[60.0] + output + 64 * 1024, peaks


@pytest.mark.parametrize("calib", [None, dense_calibration()], ids=["default_rig", "dense_rig"])
def test_batch_merges_as_merge_fragments_does(calib):
    # Nine windows: refine_batch merges a stack of eight and then one, each
    # window as its stack is solved.
    start, seq = capture_problem(3, 8.0, calib)
    cfg, settings = EnergyConfig(), SolverSettings()
    schedule = FragmentSchedule(len(start), cfg.fragment_len)
    results = solve_windows(schedule, range(schedule.window_count), start, seq, cfg, settings)
    merged, stats = refine_batch(start, seq, cfg, settings)
    assert merged.tobytes() == merge_fragments(schedule, [r.fragment for r in results]).tobytes()
    assert stats.fragment_count == schedule.window_count == 9
    assert stats.behind_camera_skips == sum(r.behind_camera for r in results)


def pin_pixels(obs, joints):
    """Observations with the pixels of `joints` missing in every frame."""
    pixels = obs.pixels.copy()
    pixels[:, joints] = np.nan
    return replace(obs, pixels=pixels)


@pytest.mark.parametrize("case", ["k_visual=0", "k_bone=0", "sensor joint unseen",
                                  "parent joint unseen, k_bone=0"])
def test_degenerate_chains_stay_solvable_and_monotone(rng, sweeps, case):
    frag, obs = window_problem(rng, j_n=4)
    cfg = EnergyConfig(fragment_len=8)
    if case == "k_visual=0":
        cfg = replace(cfg, k_visual=0.0)
    elif case == "k_bone=0":
        cfg = replace(cfg, k_bone=0.0)
    elif case == "sensor joint unseen":
        obs = pin_pixels(obs, [2])
    else:
        cfg = replace(cfg, k_bone=0.0)
        obs = pin_pixels(obs, [0])
    res = minimize_fragment(frag, obs, cfg, SolverSettings())
    assert np.isfinite(res.fragment.positions).all()
    assert res.final_value < res.initial_value
    if case.startswith("parent"):  # nothing acts on joint 0
        np.testing.assert_array_equal(res.fragment.positions[:, 0], frag.positions[:, 0])
    assert_sweeps_give_the_steps_decrease(sweeps)


def dense_minimum(frag, obs, cfg, chain):
    """Reference: Newton's method on the chain joints with a dense central-difference
    Hessian of the analytic gradient, from the ray projection of every joint."""
    energy_at = objective(frag, obs, cfg)
    x = visual_minimum(frag.positions, obs.pixels, obs.camera)
    mask = np.zeros(x.shape, dtype=bool)
    mask[:, chain] = True
    h = 1e-3
    for _ in range(8):
        hess = np.empty((mask.sum(), mask.sum()))
        for i, flat in enumerate(np.flatnonzero(mask)):
            e = np.zeros(x.size)
            e[flat] = h
            e = e.reshape(x.shape)
            hess[:, i] = (energy_at(x + e).grad - energy_at(x - e).grad)[mask] / (2.0 * h)
        x = x.copy()
        x[mask] -= np.linalg.solve(0.5 * (hess + hess.T), energy_at(x).grad[mask])
    return x, energy_at(x).value


@pytest.mark.parametrize("sensors, parents, chain", [
    ((2, 3), (1, 1), [1, 2, 3]),  # two chains touching at their shared parent
    ((1,), (0,), [0, 1]),  # one bone
    ((1, 2, 4), (0, 1, 3), [0, 1, 2, 3, 4]),  # two chains of different shapes
])
def test_chains_reach_the_dense_minimum(rng, sensors, parents, chain):
    frag, obs = window_problem(rng, j_n=5, sensors=sensors, parents=parents)
    cfg = EnergyConfig(fragment_len=8)
    res = minimize_fragment(frag, obs, cfg, SolverSettings(grad_tol=1e-12))
    x, value = dense_minimum(frag, obs, cfg, chain)
    assert res.converged
    assert res.final_value == pytest.approx(value, rel=1e-9)
    np.testing.assert_allclose(res.fragment.positions, x, rtol=0.0, atol=1e-3)


def test_schedule_frozen_layout():
    s = FragmentSchedule(500, 50)
    assert s.stride == 25
    assert s.window_count == 21
    assert s.window_start(0) == -25
    np.testing.assert_array_equal(s.window_frames(0), [0] * 26 + list(range(1, 25)))
    assert s.covering_windows(0) == (0, 1)
    assert s.covering_windows(499) == (19, 20)

    tiny = FragmentSchedule(4, 4)
    assert tiny.window_count == 3
    np.testing.assert_array_equal(tiny.window_frames(0), [0, 0, 0, 1])
    np.testing.assert_array_equal(tiny.window_frames(1), [0, 1, 2, 3])
    np.testing.assert_array_equal(tiny.window_frames(2), [2, 3, 3, 3])


def test_schedule_validation():
    with pytest.raises(ValueError):
        FragmentSchedule(0, 4)
    with pytest.raises(ValueError):
        FragmentSchedule(10, 5)
    with pytest.raises(ValueError):
        FragmentSchedule(10, 2)
    s = FragmentSchedule(10, 4)
    with pytest.raises(IndexError):
        s.window_frames(s.window_count)
    with pytest.raises(IndexError):
        s.covering_windows(10)


@pytest.mark.parametrize("frame_count, fragment_len, name, value", [
    (10.5, 50, "frame_count", "10.5"),
    (10.0, 4, "frame_count", "10.0"),
    (True, 4, "frame_count", "True"),
    (10, 50.0, "fragment_len", "50.0"),
    (10, np.float64(4.0), "fragment_len", repr(np.float64(4.0))),
    (10, False, "fragment_len", "False"),
])
def test_schedule_refuses_a_non_integer_length(frame_count, fragment_len, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(value)}$"):
        FragmentSchedule(frame_count, fragment_len)
    assert FragmentSchedule(np.int64(10), np.int32(4)).window_count == 6


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.sampled_from([4, 6, 8, 16, 50, 64]))
def test_every_frame_covered_exactly_twice(t_n, n):
    s = FragmentSchedule(t_n, n)
    count = np.zeros(t_n, dtype=int)
    holders: list[set] = [set() for _ in range(t_n)]
    for k in range(s.window_count):
        start = s.window_start(k)
        for t in range(start, start + n):
            if 0 <= t < t_n:
                count[t] += 1
                holders[t].add(k)
    assert np.all(count == 2)
    for t in range(t_n):
        assert holders[t] == set(s.covering_windows(t))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3), st.integers(0, 2 ** 32 - 1),
       st.floats(0.0, 3.0), st.floats(-6.0, 6.0))
def test_inv3_inverts_batched_symmetric_positive_definite_matrices(shape, seed, log_cond, log_scale):
    # Eigenvalues from 10**log_scale up to 10**log_cond times that, one at each end.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(*shape, 3, 3)))
    eig = 10.0 ** (log_scale + log_cond * np.concatenate(
        [np.zeros((*shape, 1)), rng.uniform(size=(*shape, 1)), np.ones((*shape, 1))], axis=-1))
    a = (q * eig[..., None, :]) @ q.swapaxes(-1, -2)
    a = 0.5 * (a + a.swapaxes(-1, -2))
    got, want = optimizer._inv3(a), np.linalg.inv(a)
    assert got.shape == a.shape == (*shape, 3, 3)
    largest = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(got - want) <= 1e-10 * largest).all()


def whole_window(seq):
    """The Observations of a whole SequenceObservations, as one window."""
    return Observations(seq.pixels, seq.camera, seq.accel, seq.bones, seq.sensor_joints,
                        seq.sensor_parents)


def test_minimize_fragment_normalized_start(rng):
    poses, obs = seq_problem(rng, t_n=8)
    frag = Fragment(poses, obs.fps, 0)
    res = minimize_fragment(frag, whole_window(obs), EnergyConfig(fragment_len=8), SolverSettings())
    want = sum(v / s for v, s in zip(reference_values(frag, whole_window(obs)),
                                     stream_variances(obs.fps)))
    assert res.initial_value == pytest.approx(want, rel=1e-9)
    assert res.final_value <= res.initial_value
    assert res.fragment.positions.shape == frag.positions.shape
    assert res.fragment.start == frag.start
    assert res.iterations > 0


def problem_at_minimum():
    # Every residual is exactly zero: the projections, bones and (constant)
    # trajectories below are exact in binary floating point.
    pos = np.zeros((4, 2, 3))
    pos[:, 0] = [1.0, 2.0, 4.0]
    pos[:, 1] = [3.0, -1.0, 2.0]
    cam = Camera(1.0, 1.0, 0.0, 0.0, IDENTITY, np.zeros(3))
    obs = Observations(pixels=cam.project(pos), camera=cam, accel=np.zeros((4, 1, 3)),
                       bones=pos[:, 1:] - pos[:, :1], sensor_joints=[1], sensor_parents=[0])
    return Fragment(pos, 1.0), obs, EnergyConfig(fragment_len=4)


def test_start_at_minimum_is_zero_iterations():
    frag, obs, cfg = problem_at_minimum()
    res = minimize_fragment(frag, obs, cfg, SolverSettings())
    assert res.converged and res.iterations == 0
    assert res.final_value == res.initial_value == 0.0
    np.testing.assert_array_equal(res.fragment.positions, frag.positions)


def test_fragment_at_minimum_evaluates_its_start_and_its_projection_once_each(monkeypatch):
    # The start gives the value no result ends above, without a gradient;
    # the projection, here the start itself, gives the stopping test, which
    # takes no step, so no trial point is evaluated.
    passes, gradients = [], []
    residuals = energy.WindowStack.residuals
    monkeypatch.setattr(energy.WindowStack, "residuals",
                        lambda self, *a: passes.append(1) or residuals(self, *a))
    monkeypatch.setattr(optimizer, "stack_energy", lambda *a, **kw: gradients.append(
        kw.get("gradient", True)) or energy.stack_energy(*a, **kw))
    res = minimize_fragment(*problem_at_minimum(), SolverSettings())
    assert res.converged and res.iterations == 0
    assert res.final_value == res.initial_value == 0.0
    assert len(passes) == 2 and gradients == [False, True]


def test_merge_average_of_covering_windows():
    s = FragmentSchedule(11, 4)
    frags = [
        Fragment(np.full((4, 2, 3), float(k)), 25.0, s.window_start(k))
        for k in range(s.window_count)
    ]
    merged = merge_fragments(s, frags)
    want = np.arange(11) // 2 + 0.5
    np.testing.assert_array_equal(merged, want[:, None, None] * np.ones((11, 2, 3)))


def test_merge_rejects_wrong_fragment_count():
    s = FragmentSchedule(11, 4)
    frags = [Fragment(np.zeros((4, 1, 3)), 25.0)] * (s.window_count - 1)
    with pytest.raises(ValueError):
        merge_fragments(s, frags)


def test_refine_batch_reduces_energy(rng):
    poses, obs = seq_problem(rng)
    cfg = EnergyConfig(fragment_len=8)
    merged, stats = refine_batch(poses, obs, cfg, SolverSettings())
    assert merged.shape == poses.shape
    assert stats.fragment_count == FragmentSchedule(poses.shape[0], 8).window_count
    assert stats.optimize_seconds > 0
    assert stats.fragments_per_second > 0
    # the merged output scores below the input on full-sequence energy, under
    # the objective every window minimizes
    whole = whole_window(obs)
    before = total_energy(Fragment(poses, obs.fps), whole, cfg)
    after = total_energy(Fragment(merged, obs.fps), whole, cfg)
    assert after.value < before.value


@pytest.mark.parametrize("name", ["pixels", "accel", "bones"])
@pytest.mark.parametrize("extra", [-10, 3])
def test_refine_batch_rejects_a_stream_of_another_length(rng, name, extra):
    poses, obs = seq_problem(rng, t_n=30)
    a = getattr(obs, name)
    a = a[:extra] if extra < 0 else np.concatenate([a, a[:extra]])
    with pytest.raises(ValueError, match=f"{name} has {30 + extra} frames, the positions have 30"):
        refine_batch(poses, replace(obs, **{name: a}), EnergyConfig(fragment_len=8),
                     SolverSettings())


# rig -> (sensor_joints, sensor_parents, refused when the observations are
# built rather than against the positions' joint count, message)
BAD_RIGS = {
    "parent missing": ([1, 2], [0], True, "sensor 1 has no parent"),
    "joint missing": ([1], [0, 1], True, "sensor 1 has no joint"),
    "negative parent": ([1, 2], [0, -1], True, "sensor 1 .* parent -1; .* non-negative"),
    "negative joint": ([-1, 2], [0, 1], True, "sensor 0 .* joint -1 .* non-negative"),
    "joint bound twice": ([2, 2], [1, 1], True, "sensor 1 .* joint 2 .* bound to sensor 0"),
    "joint its own parent": ([1, 2], [0, 2], True, "sensor 1 .* joint 2 with parent 2; .* own parent"),
    "not 1-D": ([[1], [2]], [[0], [1]], True, r"one index per sensor, got shapes \(2, 1\)"),
    "joint outside": ([1, 3], [0, 1], False, "sensor 1 .* joint 3 .* 3 joints"),
    "parent outside": ([1, 2], [0, 5], False, "sensor 1 .* parent 5, .* 3 joints"),
}


@pytest.mark.parametrize("joints, parents, at_build, message", BAD_RIGS.values(), ids=BAD_RIGS)
def test_a_bad_rig_is_refused(rng, joints, parents, at_build, message):
    poses, obs = seq_problem(rng, t_n=8)  # 3 joints, 2 sensors
    rig = dict(sensor_joints=joints, sensor_parents=parents)
    cfg, settings = EnergyConfig(fragment_len=4), SolverSettings()
    with pytest.raises(ValueError, match=message):
        refine_batch(poses, replace(obs, **rig), cfg, settings)
    with pytest.raises(ValueError, match=message):
        window = Observations(pixels=obs.pixels, camera=obs.camera, accel=obs.accel,
                              bones=obs.bones, **rig)
        total_energy(Fragment(poses, obs.fps), window, cfg)
    with pytest.raises(ValueError, match=message):
        refiner = StreamingRefiner(obs.fps, cfg, settings, camera=obs.camera, **rig)
        assert not at_build, "the constructor accepted the rig"
        refiner.push(poses[0], pixels=obs.pixels[0], accel=obs.accel[0], bones=obs.bones[0])


def test_refine_batch_rejects_poses_of_another_shape(rng):
    poses, obs = seq_problem(rng, t_n=10)
    for bad in (poses[..., :2], poses[0], poses[..., None]):
        with pytest.raises(ValueError, match=r"\(T, J, 3\)"):
            refine_batch(bad, obs, EnergyConfig(fragment_len=8), SolverSettings())


@pytest.mark.parametrize("t_n", [3, 8, 37])
def test_stream_matches_batch(rng, t_n):
    # At N = 8, finish() solves every window from a partial ring (3), one
    # window (8) or two windows, each from the factorization its pushes
    # began (37).
    poses, obs = seq_problem(rng, t_n=t_n)
    cfg = EnergyConfig(fragment_len=8)
    st_ = SolverSettings()
    batch, _ = refine_batch(poses, obs, cfg, st_)
    got = list(run_stream(poses, obs, cfg, st_))
    assert [t for t, _ in got] == list(range(t_n))
    streamed = np.stack([row for _, row in got])
    assert streamed.tobytes() == batch.tobytes()


@pytest.mark.parametrize("drop", [(), ("camera",), ("pixels", "camera")])
def test_stream_matches_batch_without_projection(rng, drop):
    # The visual term is off, so no frame is projected: the streaming
    # refiner's projection ring is its ring of positions.
    poses, obs = seq_problem(rng, t_n=37)
    obs = replace(obs, **dict.fromkeys(drop))
    cfg = EnergyConfig(k_visual=0.0, fragment_len=8)
    batch, _ = refine_batch(poses, obs, cfg, SolverSettings())
    r = StreamingRefiner(obs.fps, cfg, SolverSettings(), camera=obs.camera,
                         sensor_joints=obs.sensor_joints, sensor_parents=obs.sensor_parents)
    got = []
    for t in range(len(poses)):
        pixels = None if obs.pixels is None else obs.pixels[t]
        got += r.push(poses[t], pixels=pixels, accel=obs.accel[t], bones=obs.bones[t])
    got += r.finish()
    assert r._run.projected is r._pos
    assert [t for t, _ in got] == list(range(len(poses)))
    assert np.stack([row for _, row in got]).tobytes() == batch.tobytes()
    assert not np.array_equal(batch, poses)


@pytest.mark.parametrize("weights", [{}, {"k_visual": 0.0}], ids=["default", "no_visual"])
def test_stream_matches_batch_on_the_dense_rig(weights):
    # The 13-sensor rig stacks chains of three shapes: one of eight sensor
    # joints, one of one and two of two. Without the visual term no frame is
    # projected.
    start, seq = capture_problem(3, 8.0, dense_calibration())
    groups = energy._rig_layout(tuple(seq.sensor_joints.tolist()),
                                tuple(seq.sensor_parents.tolist()), start.shape[1]).chains
    assert sorted(ch.joints.shape for ch in groups) == [(1, 1), (1, 8), (2, 2)]
    cfg = EnergyConfig(**weights)
    batch, _ = refine_batch(start, seq, cfg, SolverSettings())
    streamed = list(run_stream(start, seq, cfg, SolverSettings()))
    assert [t for t, _ in streamed] == list(range(len(start)))
    assert np.stack([row for _, row in streamed]).tobytes() == batch.tobytes()


@pytest.mark.parametrize("calib", [None, dense_calibration()], ids=["default_rig", "dense_rig"])
def test_batch_and_stream_stacks_share_one_read_only_rig_layout(monkeypatch, calib):
    # The 13-sensor rig's shoulders share the chest as parent, so its chain
    # joints interleave sensor joints and parent-only joints.
    start, seq = capture_problem(3, 8.0, calib)
    layouts = []
    solve_stack = optimizer._solve_stack

    def recording(positions, projected, stack, *args):
        layouts.append(stack.rig)
        return solve_stack(positions, projected, stack, *args)

    monkeypatch.setattr(optimizer, "_solve_stack", recording)
    cfg, settings = EnergyConfig(), SolverSettings(max_iterations=1)
    refine_batch(start, seq, cfg, settings)
    batch_stacks = len(layouts)
    list(run_stream(start, seq, cfg, settings))
    assert batch_stacks > 1 and len(layouts) > batch_stacks + 1
    rig = layouts[0]
    assert all(layout is rig for layout in layouts)
    assert not any(a.flags.writeable for a in (rig.gather, rig.scatter, rig.chain_joints,
                                               *(a for ch in rig.chains for a in ch)))
    np.testing.assert_array_equal(rig.chain_joints,
                                  np.union1d(seq.sensor_joints, seq.sensor_parents))
    for ch in rig.chains:
        np.testing.assert_array_equal(ch.joint_slots, np.searchsorted(rig.chain_joints, ch.joints))
        np.testing.assert_array_equal(ch.parent_slots,
                                      np.searchsorted(rig.chain_joints, ch.parents))


@pytest.mark.parametrize("calib", [None, dense_calibration()], ids=["default_rig", "dense_rig"])
def test_batch_and_stream_factor_every_stack_from_one_read_only_set_of_temporal_blocks(
        monkeypatch, calib):
    # Every window of a solve shares the accel and smooth terms' normal
    # matrix, so each chain size's temporal pivots and couplings are built
    # once per refine_batch call and once per StreamingRefiner.
    start, seq = capture_problem(3, 8.0, calib)
    built, factored = [], []
    temporal_blocks = optimizer._temporal_blocks

    def recording(temporal, m):
        built.append((temporal, m, temporal_blocks(temporal, m)))
        return built[-1][2]

    monkeypatch.setattr(optimizer, "_temporal_blocks", recording)

    class Spy(optimizer._Factor):
        def advance(self, stop):
            super().advance(stop)
            factored.append((self.solver, {ch.joints.shape[1]: shared
                                           for ch, shared, *_ in self.solver.groups}))

    monkeypatch.setattr(optimizer, "_Factor", Spy)
    cfg, settings = EnergyConfig(), SolverSettings(max_iterations=1)
    for solve in (lambda: refine_batch(start, seq, cfg, settings),
                  lambda: list(run_stream(start, seq, cfg, settings))):
        built.clear()
        factored.clear()
        solve()
        solver, blocks = factored[0]
        sizes = {ch.joints.shape[1] for ch, *_ in solver.groups}
        assert len(factored) > 1 and len(built) == len(sizes) == len(blocks)
        assert {m: b for _, m, b in built} == blocks
        for later, later_blocks in factored[1:]:
            assert later is solver
            assert all(later_blocks[m] is blocks[m] for m in sizes)
        for temporal, m, b in built:
            assert not b.flags.writeable and not temporal.flags.writeable
            # The blocks are the band of the padded temporal matrix on each
            # of a chain's 3m sensor coordinates, the identity on padded frames.
            n, size = len(temporal), 3 * m
            nb = len(b) // 2 + 1
            padded = np.eye(3 * nb)
            padded[:n, :n] = temporal
            whole = np.kron(padded, np.eye(size))
            for i in range(nb):
                rows = slice(3 * size * i, 3 * size * (i + 1))
                np.testing.assert_array_equal(b[i], whole[rows, rows])
                if i:
                    np.testing.assert_array_equal(
                        b[nb + i - 1], whole[rows, rows.start - 3 * size:rows.start])
            assert not np.triu(whole, 6 * size).any()  # nothing beyond the couplings


def chain_normal_matrices(stack, obs, x, weights):
    """Reference: each window's damped Gauss-Newton normal matrix on each
    chain of the rig of `obs`, assembled term by term over the chain's
    (frame, joint, coordinate) triples, its sensor joints first. Yields the
    chain's joints and the (W, 3 N c, 3 N c) matrices of its c joints."""
    n, j, fps = stack.key
    wv, wa, wb, ws = 2.0 * weights
    d2 = (np.eye(n - 2, n) - 2.0 * np.eye(n - 2, n, 1) + np.eye(n - 2, n, 2)) * fps ** 2
    d1 = (np.eye(n - 3, n - 2, 1) - np.eye(n - 3, n - 2)) * fps
    temporal = wa * d2.T @ d2 + ws * (d1 @ d2).T @ (d1 @ d2)
    visual = np.zeros((len(x), n, j, 3, 3))
    if wv:
        visual = visual_blocks_of_every_joint(stack, x, wv)
    for ch in stack.rig.chains:
        for sensor_joints, parent_only in zip(ch.joints.tolist(), ch.parents.tolist()):
            joints = sensor_joints + parent_only
            m, c = len(sensor_joints), len(joints)
            bones = np.zeros((c, c))
            for s, p in zip(obs.sensor_joints, obs.sensor_parents):
                if s in sensor_joints:
                    e = np.zeros(c)
                    e[joints.index(s)], e[joints.index(p)] = 1.0, -1.0
                    bones += np.outer(e, e)
            h = np.zeros((len(x), n, c, 3, n, c, 3))
            for f in range(n):
                for i, joint in enumerate(joints):
                    h[:, f, i, :, f, i, :] = visual[:, f, joint]
            h = h.reshape(len(x), 3 * n * c, 3 * n * c)
            h += wb * np.kron(np.eye(n), np.kron(bones, np.eye(3)))
            # The damping of each frame: 1e-9 of the largest visual and bone
            # diagonal entry of a sensor joint in that frame plus the largest
            # temporal entry, on every joint of the chain in that frame.
            largest = np.diagonal(h, axis1=1, axis2=2).reshape(len(x), n, c, 3)[:, :, :m].max(
                axis=(2, 3)) + temporal.max()
            mu = 1e-9 * np.where(largest > 0.0, largest, 1.0)
            h += np.kron(temporal, np.kron(np.diag([1.0] * m + [0.0] * (c - m)), np.eye(3)))
            yield joints, h + np.repeat(mu, 3 * c, axis=1)[:, :, None] * np.eye(3 * n * c)


@pytest.mark.parametrize("calib, k_visual", [(None, 1.0), (dense_calibration(), 1.0), (None, 0.0)],
                         ids=["default_rig", "dense_rig", "no_visual"])
def test_chain_solve_equals_a_dense_solve_of_each_windows_normal_matrix(calib, k_visual):
    # Four windows of 20 frames, each padded with one identity frame to
    # seven blocks, factored at the start with each window slot a frame of
    # its own, so no block is shared between windows. The steps are compared
    # through the normal matrix: H step against H want = -g. Their own
    # difference is not, since the block inverses and LAPACK's LU reach it
    # by other roundings and the matrix is ill-conditioned (about 6e7, and
    # 3e9 without the visual term, where only the damping pins a chain's
    # linear trajectory): the steps differ by up to 3e-6 relative.
    start, seq = capture_problem(3, 4.0, calib)
    cfg = EnergyConfig(k_visual=k_visual, fragment_len=20)
    schedule = FragmentSchedule(len(start), cfg.fragment_len)
    rows = np.stack([schedule.window_frames(k) for k in range(2, 6)])
    stack = energy.WindowStack(seq, rows, start.shape, seq.fps)
    x = start[rows]
    tv = energy.stack_energy(x, stack, cfg)
    w, n = rows.shape
    solver = optimizer._ChainSolver(stack.rig, cfg, seq.fps, n, seq.camera, w * n, w)
    if solver.visual:
        solver.build(np.arange(w * n), x.reshape(w * n, *x.shape[2:]),
                     stack.pixels.reshape(w * n, *stack.pixels.shape[2:]))
    factor = optimizer._Factor(solver, np.arange(w * n).reshape(w, n))
    factor.advance(solver.nb)
    assert (factor.solver.visual == 0.0) == (k_visual == 0.0)
    quad, step = factor.sweep(tv.grad), factor.step()
    want_quad = np.zeros(len(x))
    for joints, h in chain_normal_matrices(stack, seq, x, tv.weights):
        g = tv.grad[:, :, joints].reshape(len(x), -1)
        want = np.linalg.solve(h, -g[..., None])[..., 0]
        got = step[:, :, joints].reshape(len(x), -1)
        apart = np.linalg.norm(np.einsum("wij,wj->wi", h, got - want), axis=1)
        assert (apart <= 1e-10 * np.linalg.norm(g, axis=1)).all()
        want_quad -= np.einsum("wi,wi->w", g, want)
    np.testing.assert_allclose(quad, want_quad, rtol=1e-10, atol=0.0)
    free = np.setdiff1d(np.arange(start.shape[1]), stack.rig.chain_joints)
    assert free.size and not step[:, :, free].any()


@pytest.mark.parametrize("t_n, per_stack", [
    pytest.param(t_n, per_stack, id=str(t_n) if per_stack is None else f"{t_n}-stack{per_stack}")
    for per_stack in (None, 1, 3) for t_n in (3, 8, 37, 100)])
def test_each_frame_is_projected_once(rng, monkeypatch, t_n, per_stack):
    # Batch stacks of one or three windows carry a stride from one stack to
    # the next; the default stack holds every window of these sequences.
    poses, obs = seq_problem(rng, t_n=t_n)
    cfg = EnergyConfig(fragment_len=8)
    if per_stack is not None:
        monkeypatch.setattr(optimizer, "_STACK_FRAMES", per_stack * cfg.fragment_len)
    frames = []

    def counting(positions, pixels, camera):
        frames.append(int(np.prod(np.shape(positions)[:-2])))
        return visual_minimum(positions, pixels, camera)

    monkeypatch.setattr(optimizer, "visual_minimum", counting)
    batch, _ = refine_batch(poses, obs, cfg, SolverSettings())
    assert sum(frames) == t_n
    frames.clear()
    streamed = [row for _, row in run_stream(poses, obs, cfg, SolverSettings())]
    assert sum(frames) == t_n
    assert np.stack(streamed).tobytes() == batch.tobytes()


@pytest.mark.parametrize("t_n, per_stack, k_visual", [
    pytest.param(t_n, per_stack, k_visual,
                 id=(str(t_n) if per_stack is None else f"{t_n}-stack{per_stack}")
                 + ("" if k_visual else "-no_visual"))
    for per_stack in (None, 1, 3)
    for t_n, k_visual in ((3, 1.0), (8, 1.0), (37, 1.0), (100, 1.0), (37, 0.0))])
def test_each_frames_blocks_are_built_once(rng, monkeypatch, t_n, per_stack, k_visual):
    # The two windows that cover a frame share its blocks, in batch stacks
    # of one, three or every window and in a stream. Without the visual term
    # every frame reads the one block the solver built when it was made.
    poses, obs = seq_problem(rng, t_n=t_n)
    cfg = EnergyConfig(k_visual=k_visual, fragment_len=8)
    if per_stack is not None:
        monkeypatch.setattr(optimizer, "_STACK_FRAMES", per_stack * cfg.fragment_len)
    built = []
    build = optimizer._ChainSolver.build

    def counting(self, rows, positions, pixels):
        built.extend(rows.tolist())
        return build(self, rows, positions, pixels)

    monkeypatch.setattr(optimizer._ChainSolver, "build", counting)
    batch, _ = refine_batch(poses, obs, cfg, SolverSettings())
    assert len(built) == (t_n if k_visual else 0)
    built.clear()
    streamed = [row for _, row in run_stream(poses, obs, cfg, SolverSettings())]
    # each into its ring row, in order
    assert built == ([t % cfg.fragment_len for t in range(t_n)] if k_visual else [])
    assert np.stack(streamed).tobytes() == batch.tobytes()


def test_a_frames_blocks_read_that_frame_alone(rng):
    # Each frame's damping comes from its own blocks, so new pixels in frame
    # 5 change its blocks and no other frame's.
    poses, obs = seq_problem(rng, t_n=12, j_n=4, sensors=(1, 2, 3), parents=(0, 1, 0))
    cfg = EnergyConfig(fragment_len=8)
    solver = optimizer._ChainSolver(obs.rig_layout(4), cfg, obs.fps, 8, obs.camera, 12, 1)
    projected = visual_minimum(poses, obs.pixels, obs.camera)
    solver.build(np.arange(12), projected, obs.pixels)
    before = [(a.copy(), d_inv.copy()) for _, _, a, d_inv in solver.groups]
    pixels = obs.pixels.copy()
    pixels[5] += 40.0
    solver.build(np.arange(12), visual_minimum(poses, pixels, obs.camera), pixels)
    others = np.arange(12) != 5
    for (a, d_inv), (_, _, a_now, d_inv_now) in zip(before, solver.groups):
        assert a[others].tobytes() == a_now[others].tobytes()
        assert d_inv[others].tobytes() == d_inv_now[others].tobytes()
        assert not np.array_equal(a[5], a_now[5])
    # Frames built one by one, in any order, give the same bytes.
    alone = optimizer._ChainSolver(obs.rig_layout(4), cfg, obs.fps, 8, obs.camera, 12, 1)
    projected = visual_minimum(poses, pixels, obs.camera)
    for t in (7, 0, 11, 3, 1, 2, 4, 5, 6, 8, 9, 10):
        alone.build(np.array([t]), projected[t:t + 1], pixels[t:t + 1])
    for (_, _, a, d_inv), (_, _, a_alone, d_inv_alone) in zip(solver.groups, alone.groups):
        assert a.tobytes() == a_alone.tobytes() and d_inv.tobytes() == d_inv_alone.tobytes()


@pytest.mark.parametrize("n, t_n, calib, k_visual", [
    (8, 37, None, 1.0), (6, 23, None, 1.0), (50, 160, None, 1.0),
    (50, 160, dense_calibration(), 1.0),
    (8, 37, None, 0.0), (50, 160, None, 0.0), (50, 160, dense_calibration(), 0.0)],
    ids=["N8", "N6", "N50", "N50-dense_rig", "N8-no_visual", "N50-no_visual",
         "N50-dense_rig-no_visual"])
def test_a_stream_eliminates_each_block_as_its_frames_arrive(rng, monkeypatch, n, t_n, calib,
                                                             k_visual):
    # An ordinary push eliminates at most one block of each window being
    # factored, and only a block whose frames have arrived; the push that
    # solves a window eliminates at most its last block; finish() eliminates
    # what is left, the blocks of trailing replicas among it. No time is
    # read: the pivot inverses are counted, one per chain group and block.
    # Without the visual term every frame's block is built before the first
    # push, and the blocks are eliminated in the same order.
    if calib is None:
        poses, obs = seq_problem(rng, t_n=t_n)
    else:
        poses, obs = capture_problem(3, t_n / 25.0, calib)
    cfg = EnergyConfig(k_visual=k_visual, fragment_len=n)
    nb, groups = -(-n // 3), len(obs.rig_layout(poses.shape[1]).chains)
    eliminated, inverses = [], []
    advance = optimizer._Factor.advance

    def recording(self, stop):
        if stop > self.done:
            eliminated.append((self, self.done, stop, self.frames.copy()))
        return advance(self, stop)

    inv = np.linalg.inv
    monkeypatch.setattr(optimizer._Factor, "advance", recording)
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(len(a)) or inv(a))
    r = StreamingRefiner(obs.fps, cfg, SolverSettings(), camera=obs.camera,
                         sensor_joints=obs.sensor_joints, sensor_parents=obs.sensor_parents)
    blocks = {}  # each factorization's blocks, in the order eliminated
    streamed = []
    for t in range(t_n):
        eliminated.clear()
        inverses.clear()
        got = r.push(poses[t], pixels=obs.pixels[t], accel=obs.accel[t], bones=obs.bones[t])
        streamed += got
        assert len(inverses) == groups * sum(stop - b for _, b, stop, _ in eliminated)
        for factor, b, stop, frames in eliminated:
            assert (frames[:, 3 * b:3 * stop] <= t).all()  # every frame has arrived
            blocks.setdefault(factor, []).extend(range(b, stop))
        if got:  # the solved window's last block alone
            assert [(b, stop) for _, b, stop, _ in eliminated] == [(nb - 1, nb)]
        else:
            assert all(stop == b + 1 for _, b, stop, _ in eliminated)
            assert len({factor for factor, *_ in eliminated}) == len(eliminated)
    eliminated.clear()
    streamed += r.finish()
    for factor, b, stop, frames in eliminated:
        blocks.setdefault(factor, []).extend(range(b, stop))
    # finish() took the blocks whose slots repeat the last frame
    assert any((frames[:, 3 * i:3 * i + 3] == t_n - 1).sum() > 1
               for _, b, stop, frames in eliminated for i in range(b, stop))
    assert len(blocks) == FragmentSchedule(t_n, n).window_count
    assert all(order == list(range(nb)) for order in blocks.values())
    batch, _ = refine_batch(poses, obs, cfg, SolverSettings())
    assert [t for t, _ in streamed] == list(range(t_n))
    assert np.stack([row for _, row in streamed]).tobytes() == batch.tobytes()


def test_stream_buffers_stay_bounded(rng):
    t_n, n = 2001, 4
    poses, obs = seq_problem(rng, t_n=t_n)
    cfg = EnergyConfig(fragment_len=n)
    st_ = SolverSettings(max_iterations=3)
    batch, _ = refine_batch(poses, obs, cfg, st_)
    r = StreamingRefiner(obs.fps, cfg, st_, camera=obs.camera,
                         sensor_joints=obs.sensor_joints, sensor_parents=obs.sensor_parents)
    streamed = np.full_like(batch, np.nan)
    for t in range(t_n):
        for i, row in r.push(poses[t], pixels=obs.pixels[t], accel=obs.accel[t], bones=obs.bones[t]):
            streamed[i] = row
        if t == 0:
            rings = (r._pos, r._obs.pixels, r._obs.accel, r._obs.bones)
            storage = list(r._run.solver.storage)
        # the only solved window held is the last one, to average with the next
        assert r._run.prev is None or r._run.prev.shape == (n, *poses.shape[1:])
    for i, row in r.finish():
        streamed[i] = row
    # the rings allocated by the first push are the only ones, at N rows each
    assert all(a is b for a, b in zip(rings, (r._pos, r._obs.pixels, r._obs.accel, r._obs.bones)))
    assert [a.shape[0] for a in rings] == [n] * 4
    # each chain group's pivot storage, allocated for one window, is the only one
    assert storage and all(a is b for a, b in zip(storage, r._run.solver.storage))
    assert streamed.tobytes() == batch.tobytes()


def test_stream_emission_latency(rng):
    poses, obs = seq_problem(rng, t_n=24)
    cfg = EnergyConfig(fragment_len=8)
    r = StreamingRefiner(
        obs.fps,
        cfg,
        SolverSettings(),
        camera=obs.camera,
        sensor_joints=obs.sensor_joints,
        sensor_parents=obs.sensor_parents,
    )
    emitted: list[int] = []
    for t in range(24):
        out = r.push(poses[t], pixels=obs.pixels[t], accel=obs.accel[t], bones=obs.bones[t])
        emitted.extend(i for i, _ in out)
        if t < 7:
            assert emitted == []
        if t == 7:
            # windows 0 and 1 are done once frame N-1 arrives
            assert emitted == [0, 1, 2, 3]
    tail = r.finish()
    emitted.extend(i for i, _ in tail)
    assert emitted == list(range(24))


# A visual-only config, which needs no rows but the pixels.
VISUAL_ONLY = EnergyConfig(fragment_len=4, k_inertial=0.0)


def test_stream_requires_consistent_rows(rng):
    poses, obs = seq_problem(rng, t_n=10)
    r = StreamingRefiner(obs.fps, VISUAL_ONLY, SolverSettings(), camera=obs.camera)
    r.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError):
        r.push(poses[1])  # pixels vanished
    r2 = StreamingRefiner(obs.fps, VISUAL_ONLY, SolverSettings(), camera=obs.camera)
    r2.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError):
        r2.push(poses[1], pixels=obs.pixels[1], accel=obs.accel[1])  # accel appeared


def test_stream_rejects_row_shape_change(rng):
    poses, obs = seq_problem(rng, t_n=6)
    r = StreamingRefiner(obs.fps, VISUAL_ONLY, SolverSettings(), camera=obs.camera)
    r.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError, match="positions row of frame 1"):
        r.push(poses[1][0], pixels=obs.pixels[1])  # a (3,) row would broadcast into (J, 3)
    with pytest.raises(ValueError, match="pixels row of frame 1"):
        r.push(poses[1], pixels=obs.pixels[1][:2])


def test_stream_rejects_a_bad_positions_row_at_frame_0(rng):
    poses, obs = seq_problem(rng, t_n=6)
    for bad in (poses[0][:, :2], poses[0][0], poses[:2]):
        r = StreamingRefiner(obs.fps, EnergyConfig(fragment_len=4), SolverSettings(),
                             camera=obs.camera)
        with pytest.raises(ValueError, match="positions row of frame 0"):
            r.push(bad, pixels=obs.pixels[0])


@pytest.mark.parametrize("weights, dropped, missing", [
    ({}, ("camera",), "visual term"),
    ({}, ("pixels",), "visual term"),
    ({}, ("accel",), "acceleration term"),
    ({"k_accel": 0.0}, ("accel",), "smoothness term"),
    ({}, ("bones",), "bone term"),
])
def test_stream_refuses_missing_observations_at_the_first_push(rng, weights, dropped, missing):
    # The stream refuses before it buffers a frame, as refine_batch and the
    # one-window entries do before they project or solve anything.
    poses, obs = seq_problem(rng, t_n=30)
    obs = replace(obs, **dict.fromkeys(dropped))
    cfg = EnergyConfig(**weights)
    r = StreamingRefiner(obs.fps, cfg, SolverSettings(), camera=obs.camera,
                         sensor_joints=obs.sensor_joints, sensor_parents=obs.sensor_parents)
    rows = {name: getattr(obs, name) for name in ("pixels", "accel", "bones")}
    with pytest.raises(MissingObservationError, match=f"^{missing} requires "):
        r.push(poses[0], **{name: None if a is None else a[0] for name, a in rows.items()})
    with pytest.raises(MissingObservationError, match=f"^{missing} requires "):
        refine_batch(poses, obs, cfg, SolverSettings())
    window = Fragment(poses, obs.fps)
    with pytest.raises(MissingObservationError, match=f"^{missing} requires "):
        minimize_fragment(window, obs, cfg, SolverSettings())
    with pytest.raises(MissingObservationError, match=f"^{missing} requires "):
        total_energy(window, obs, cfg)


@pytest.mark.parametrize("solve", [
    lambda poses, obs, cfg: refine_batch(poses, obs, cfg, SolverSettings()),
    lambda poses, obs, cfg: minimize_fragment(Fragment(poses, obs.fps), obs, cfg, SolverSettings()),
], ids=["refine_batch", "minimize_fragment"])
def test_missing_observations_are_refused_before_anything_is_projected(rng, monkeypatch, solve):
    poses, obs = seq_problem(rng, t_n=30)

    def fail(*args):
        raise AssertionError("projected before the observations were checked")

    monkeypatch.setattr(optimizer, "visual_minimum", fail)
    with pytest.raises(MissingObservationError, match="^acceleration term requires "):
        solve(poses, replace(obs, accel=None), EnergyConfig())


def test_stream_finish_then_push_rejected(rng):
    poses, obs = seq_problem(rng, t_n=6)
    r = StreamingRefiner(
        obs.fps,
        EnergyConfig(fragment_len=4),
        SolverSettings(),
        camera=obs.camera,
        sensor_joints=obs.sensor_joints,
        sensor_parents=obs.sensor_parents,
    )
    for t in range(6):
        r.push(poses[t], pixels=obs.pixels[t], accel=obs.accel[t], bones=obs.bones[t])
    r.finish()
    assert r.finish() == []
    with pytest.raises(RuntimeError):
        r.push(poses[0], pixels=obs.pixels[0], accel=obs.accel[0], bones=obs.bones[0])


def test_stream_empty_finish():
    r = StreamingRefiner(25.0, EnergyConfig(), SolverSettings())
    assert r.finish() == []
