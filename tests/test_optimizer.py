import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifuse import (
    Camera,
    EnergyConfig,
    Fragment,
    FragmentSchedule,
    Observations,
    SequenceObservations,
    SolverSettings,
    StreamingRefiner,
    merge_fragments,
    minimize_array,
    minimize_fragment,
    refine_batch,
    run_stream,
    total_energy,
)
from vifuse import energy, optimizer
from vifuse.rotmath import IDENTITY


def quadratic(a):
    a = np.asarray(a, dtype=float)

    def fun(x):
        d = x - a
        return float(d @ d), 2.0 * d

    return fun


def rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    g = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return f, g


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
        dict(history=0),
        dict(grad_tol=0.0),
    ):
        with pytest.raises(ValueError):
            SolverSettings(**bad)


def test_quadratic_converges_fast():
    target = np.array([3.0, -1.0, 2.0, 0.5])
    res = minimize_array(quadratic(target), np.zeros(4), SolverSettings())
    assert res.converged
    assert not res.line_search_failed
    assert res.iterations <= 3
    np.testing.assert_allclose(res.x, target, atol=1e-6)
    assert res.grad_norm <= 1e-6


def test_start_at_minimum_is_zero_iterations():
    target = np.array([1.0, 2.0])
    res = minimize_array(quadratic(target), target.copy(), SolverSettings())
    assert res.converged and res.iterations == 0
    assert res.value == 0.0


def test_rosenbrock_converges():
    res = minimize_array(
        rosenbrock, np.array([-1.2, 1.0]), SolverSettings(max_iterations=500, grad_tol=1e-8)
    )
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_iteration_cap_respected():
    res = minimize_array(
        rosenbrock, np.array([-1.2, 1.0]), SolverSettings(max_iterations=2)
    )
    assert res.iterations == 2
    assert not res.converged


def test_first_step_is_polyak_for_positive_values():
    # f = |x - a|^2 with |a| = 2000 from x = 0: the Polyak step f/|g|^2 lands
    # at a/2, which meets both line-search conditions, so the first line search
    # probes once; a unit-length first step doubles 8 times before it stops.
    a = np.full(4, 1000.0)
    calls = []

    def fun(x):
        calls.append(1)
        return quadratic(a)(x)

    x0 = np.zeros(4)
    res = minimize_array(fun, x0, SolverSettings(max_iterations=1), quadratic(a)(x0))
    assert res.iterations == 1
    assert len(calls) == 1
    np.testing.assert_allclose(res.x, a / 2)


def test_first_step_has_unit_length_for_nonpositive_values():
    # f is not bounded below by 0 here, so the Polyak step does not apply.
    # The unit step still descends steeply along the line; the line search
    # accepts it rather than lengthening it, so one probe follows the start.
    a = np.array([30.0, -40.0])
    probes = []

    def fun(x):
        probes.append(x.copy())
        f, g = quadratic(a)(x)
        return f - 1e4, g

    minimize_array(fun, np.zeros(2), SolverSettings(max_iterations=1))
    assert np.linalg.norm(probes[1]) == pytest.approx(1.0)
    assert len(probes) == 2


def test_fragment_solve_spends_few_evaluations_beyond_its_iterations(rng, monkeypatch):
    poses, obs = seq_problem(rng, t_n=50)
    frag = Fragment(poses, obs.fps, 0)
    window = obs.window(np.arange(50))
    calls = []
    monkeypatch.setattr(optimizer, "total_energy",
                        lambda *a: calls.append(1) or total_energy(*a))
    one = minimize_fragment(frag, window, EnergyConfig(fragment_len=50),
                            SolverSettings(max_iterations=1))
    assert one.iterations == 1 and len(calls) == 2  # the start, then one probe
    calls.clear()
    res = minimize_fragment(frag, window, EnergyConfig(fragment_len=50), SolverSettings())
    assert res.iterations > 0
    assert len(calls) <= res.iterations + 3


def test_result_is_monotone(rng):
    # track every accepted value through a wrapper: never above the start
    for _ in range(10):
        n = 6
        m = rng.standard_normal((n, n))
        h = m @ m.T + 0.1 * np.eye(n)
        b = rng.standard_normal(n)

        def fun(x):
            return 0.5 * float(x @ h @ x) - float(b @ x), h @ x - b

        x0 = rng.standard_normal(n)
        f0 = fun(x0)[0]
        res = minimize_array(fun, x0, SolverSettings(max_iterations=50))
        assert res.value <= f0
        assert res.converged


def test_line_search_failure_returns_start():
    # gradient with the wrong sign: every "descent" direction increases f
    def liar(x):
        return float(x @ x), -2.0 * x

    x0 = np.ones(3)
    res = minimize_array(liar, x0, SolverSettings())
    assert res.line_search_failed
    assert not res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, x0)
    assert res.value == 3.0


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


def test_fragment_at_minimum_costs_one_evaluation(monkeypatch):
    # Every residual is exactly zero: the projections, bones and (constant)
    # trajectories below are exact in binary floating point.
    pos = np.zeros((4, 2, 3))
    pos[:, 0] = [1.0, 2.0, 4.0]
    pos[:, 1] = [3.0, -1.0, 2.0]
    cam = Camera(1.0, 1.0, 0.0, 0.0, IDENTITY, np.zeros(3))
    obs = Observations(pixels=cam.project(pos), camera=cam, accel=np.zeros((4, 1, 3)),
                       bones=pos[:, 1:] - pos[:, :1], sensor_joints=[1], sensor_parents=[0])
    passes = []
    residuals = energy._Window.residuals
    monkeypatch.setattr(energy._Window, "residuals",
                        lambda self, *a: passes.append(1) or residuals(self, *a))
    res = minimize_fragment(Fragment(pos, 1.0), obs, EnergyConfig(fragment_len=4), SolverSettings())
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
    assert stats.line_search_failures == 0
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
