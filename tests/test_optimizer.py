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


def frozen_energy(frag, obs, cfg):
    """total_energy under the scales of `frag`'s start, as minimize_fragment uses it."""
    scales = total_energy(frag, obs, cfg).scales
    return lambda x: total_energy(Fragment(x, frag.fps, frag.start), obs, replace(cfg, scales=scales))


def test_quadratic_converges_fast(rng):
    # Without the visual term the energy is quadratic in the chain joints, and
    # the damped normal matrix is its Hessian: one step lands on the minimum.
    # Joint 3 is free, and without the visual term nothing moves it.
    frag, obs = window_problem(rng, j_n=4)
    cfg = EnergyConfig(k_visual=0.0, k_inertial=1.0, fragment_len=8)
    res = minimize_fragment(frag, obs, cfg, SolverSettings())
    assert res.converged and res.iterations == 1
    grad = frozen_energy(frag, obs, cfg)(res.fragment.positions).grad
    start_grad = frozen_energy(frag, obs, cfg)(frag.positions).grad
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
    calls = []
    monkeypatch.setattr(optimizer, "stack_energy",
                        lambda *a, **kw: calls.append(1) or energy.stack_energy(*a, **kw))
    res = minimize_fragment(frag, window, EnergyConfig(fragment_len=50), SolverSettings())
    assert res.converged and res.iterations > 0
    assert len(calls) == res.iterations + 2  # the start, the projected start, then one per step


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
    assert res.final_value == frozen_energy(frag, obs, cfg)(projected).value < res.initial_value


def capture_problem(seed, duration):
    """The sf2 start poses and the observations of a default-noise capture, as rtof solves them."""
    ds = make_dataset(DEFAULT_NOISE, seed=seed, script=default_script(duration))
    start, _ = apply_mode("sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu)
    _, accel, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    seq = SequenceObservations(ds.fps, ds.pixels, ds.camera, accel, bones, joints,
                               np.array(ds.skeleton.parents)[joints])
    return start, seq


DEEP = SolverSettings(max_iterations=100, grad_tol=1e-12)


def test_default_solve_is_within_tolerance_of_deep_solve():
    # Every window of a short default-noise capture, started from sf2 as in rtof.
    start, seq = capture_problem(3, 4.0)
    cfg = EnergyConfig()
    schedule = FragmentSchedule(len(start), cfg.fragment_len)
    for k in range(schedule.window_count):
        default = optimizer._solve_window(schedule, k, start, seq, cfg, SolverSettings())
        best = optimizer._solve_window(schedule, k, start, seq, cfg, DEEP)
        assert default.converged and best.converged
        assert default.iterations <= 3
        assert best.final_value <= default.final_value <= best.final_value * (1.0 + 1e-6)


def test_batch_output_does_not_depend_on_the_stack_size(monkeypatch):
    # Deep settings make windows stop after different step counts; one chain
    # joint starts behind the camera in frame 30, which windows 1 and 2 hold.
    start, seq = capture_problem(3, 4.0)
    start[30, seq.sensor_joints[1]] = seq.camera.center - 500.0 * quat_matrix(seq.camera.rotation)[2]
    cfg = EnergyConfig()
    schedule = FragmentSchedule(len(start), cfg.fragment_len)
    assert schedule.window_count == 5
    runs = []
    for windows in (1, 3, schedule.window_count):
        monkeypatch.setattr(optimizer, "_STACK_FRAMES", windows * cfg.fragment_len)
        runs.append(refine_batch(start, seq, cfg, DEEP))
    iterations = {optimizer._solve_window(schedule, k, start, seq, cfg, DEEP).iterations
                  for k in range(schedule.window_count)}
    assert len(iterations) > 1
    assert runs[0][1].behind_camera_skips > 0
    for merged, stats in runs[1:]:
        assert merged.tobytes() == runs[0][0].tobytes()
        assert stats.behind_camera_skips == runs[0][1].behind_camera_skips


def test_each_window_of_a_stack_is_solved_as_if_alone(rng):
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
    stacked = optimizer._solve_stack(frags, observations, cfg, settings)
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


def test_revert_to_the_start_is_per_window(rng, monkeypatch):
    # Every step goes uphill, as in test_failed_step_keeps_the_best_iterate,
    # so each window ends at the better of its start and its ray projection.
    # The projection lowers the energy of the first window. The second starts
    # where its inertial terms vanish, so their scales sit at the floor and
    # the projection raises its energy: it falls back to its start.
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
    stacked = optimizer._solve_stack([frag, frag], observations, cfg, SolverSettings())
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


def test_batch_memory_stays_bounded():
    # Stacking every window of the default 60 s capture at once peaks near
    # 53 MB; stacks of about 150 frames stay near 4 MB.
    start, seq = capture_problem(0, 60.0)
    tracemalloc.start()
    try:
        refine_batch(start, seq, EnergyConfig(), SolverSettings())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def pin_pixels(obs, joints):
    """Observations with the pixels of `joints` missing in every frame."""
    pixels = obs.pixels.copy()
    pixels[:, joints] = np.nan
    return replace(obs, pixels=pixels)


@pytest.mark.parametrize("case", ["k_visual=0", "k_bone=0", "sensor joint unseen",
                                  "parent joint unseen, k_bone=0"])
def test_degenerate_chains_stay_solvable_and_monotone(rng, case):
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


def dense_minimum(frag, obs, cfg, chain):
    """Reference: Newton's method on the chain joints with a dense central-difference
    Hessian of the analytic gradient, from the ray projection of every joint."""
    energy_at = frozen_energy(frag, obs, cfg)
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


def test_sequence_observations_window_slices(rng):
    _, obs = seq_problem(rng, t_n=12)
    frames = np.array([0, 0, 1, 2])
    w = obs.window(frames)
    np.testing.assert_array_equal(w.pixels, obs.pixels[frames])
    np.testing.assert_array_equal(w.accel, obs.accel[frames])
    np.testing.assert_array_equal(w.bones, obs.bones[frames])
    assert w.camera is obs.camera


def test_minimize_fragment_normalized_start(rng):
    poses, obs = seq_problem(rng, t_n=8)
    frames = np.arange(8)
    frag = Fragment(poses[frames], obs.fps, 0)
    res = minimize_fragment(frag, obs.window(frames), EnergyConfig(fragment_len=8), SolverSettings())
    assert res.initial_value == pytest.approx(1.0, rel=1e-9)
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


def test_fragment_at_minimum_costs_one_evaluation(monkeypatch):
    passes = []
    residuals = energy.WindowStack.residuals
    monkeypatch.setattr(energy.WindowStack, "residuals",
                        lambda self, *a: passes.append(1) or residuals(self, *a))
    res = minimize_fragment(*problem_at_minimum(), SolverSettings())
    assert res.converged and res.iterations == 0
    assert res.final_value == res.initial_value == 0.0
    assert len(passes) == 1


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
    # the merged output scores below the input on full-sequence energy
    frames = np.arange(poses.shape[0])
    before = total_energy(Fragment(poses, obs.fps), obs.window(frames), cfg.with_scales(Fragment(poses, obs.fps), obs.window(frames)))
    frozen = cfg.with_scales(Fragment(poses, obs.fps), obs.window(frames))
    after = total_energy(Fragment(merged, obs.fps), obs.window(frames), frozen)
    assert after.value < before.value


def test_stream_matches_batch(rng):
    poses, obs = seq_problem(rng, t_n=37)
    cfg = EnergyConfig(fragment_len=8)
    st_ = SolverSettings()
    batch, _ = refine_batch(poses, obs, cfg, st_)
    got = list(run_stream(poses, obs, cfg, st_))
    assert [t for t, _ in got] == list(range(37))
    streamed = np.stack([row for _, row in got])
    np.testing.assert_array_equal(streamed, batch)


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
        # the only solved window held is the last one, to average with the next
        assert r._prev is None or r._prev.shape == (n, *poses.shape[1:])
    for i, row in r.finish():
        streamed[i] = row
    # the rings allocated by the first push are the only ones, at N rows each
    assert all(a is b for a, b in zip(rings, (r._pos, r._obs.pixels, r._obs.accel, r._obs.bones)))
    assert [a.shape[0] for a in rings] == [n] * 4
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


def test_stream_requires_consistent_rows(rng):
    poses, obs = seq_problem(rng, t_n=10)
    r = StreamingRefiner(obs.fps, EnergyConfig(fragment_len=4), SolverSettings(), camera=obs.camera)
    r.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError):
        r.push(poses[1])  # pixels vanished
    r2 = StreamingRefiner(obs.fps, EnergyConfig(fragment_len=4), SolverSettings(), camera=obs.camera)
    r2.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError):
        r2.push(poses[1], pixels=obs.pixels[1], accel=obs.accel[1])  # accel appeared


def test_stream_rejects_row_shape_change(rng):
    poses, obs = seq_problem(rng, t_n=6)
    r = StreamingRefiner(obs.fps, EnergyConfig(fragment_len=4), SolverSettings(), camera=obs.camera)
    r.push(poses[0], pixels=obs.pixels[0])
    with pytest.raises(ValueError, match="positions row of frame 1"):
        r.push(poses[1][0], pixels=obs.pixels[1])  # a (3,) row would broadcast into (J, 3)
    with pytest.raises(ValueError, match="pixels row of frame 1"):
        r.push(poses[1], pixels=obs.pixels[1][:2])


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
