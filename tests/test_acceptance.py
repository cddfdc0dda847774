"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantities. Heavier shared artifacts (the default noisy
dataset and its refined outputs) are computed once and cached at module
level so later criteria can reuse them.
"""

import json
import time

import numpy as np

from vifuse import (
    DEFAULT_NOISE,
    EnergyConfig,
    Fragment,
    FragmentSchedule,
    MotionParams,
    MotionScript,
    NoiseSpec,
    Observations,
    SequenceObservations,
    SolverSettings,
    TranslationWave,
    accel_energy,
    apply_mode,
    bone_energy,
    calibrate_stream,
    default_calibration,
    default_script,
    default_skeleton,
    derive_imu,
    finite_acceleration,
    forward_kinematics,
    generate_truth,
    global_rotations,
    inverse_kinematics,
    make_dataset,
    mpjje,
    mpjpe,
    per_joint_mpjpe,
    refine_batch,
    run_stream,
    smooth_energy,
    total_energy,
    visual_energy,
)
from vifuse.cli import main
from vifuse.camera import Camera
from vifuse.rotmath import IDENTITY

from conftest import fd_gradient, max_rel_err, random_rotation, rot_distance

_cache = {}


def report(num, label, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def default_dataset():
    if "ds" not in _cache:
        _cache["ds"] = make_dataset(DEFAULT_NOISE, seed=0)
    return _cache["ds"]


def sf2_output(ds):
    if "sf2" not in _cache:
        out, _ = apply_mode(
            "sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu
        )
        _cache["sf2"] = out
    return _cache["sf2"]


def rtof_output(ds, energy=None, solver=None, key="rtof"):
    if key not in _cache:
        _cache[key] = apply_mode(
            "rtof",
            ds.skeleton,
            ds.inputs,
            ds.fps,
            pixels=ds.pixels,
            camera=ds.camera,
            calib=ds.calibration,
            imu=ds.imu,
            energy=energy,
            solver=solver,
        )
    return _cache[key]


def smooth_random_fragment(rng, n=8, j=5, fps=5.0):
    """Plausible optimization state: sinusoidal truth, observations consistent
    with it up to small noise, fragment perturbed off the truth."""
    t = np.arange(n)[:, None, None] / fps
    amp = rng.uniform(20.0, 60.0, (1, j, 3))
    freq = rng.uniform(0.2, 0.9, (1, j, 3))
    phase = rng.uniform(0.0, 6.0, (1, j, 3))
    center = rng.uniform(-120.0, 120.0, (1, j, 3))
    base = center + amp * np.sin(2.0 * np.pi * freq * t + phase)
    cam = Camera(900.0, 900.0, 12.0, -7.0, IDENTITY, [0.0, 0.0, -2500.0])
    sj, sp = np.array([2, 4]), np.array([1, 3])
    acc = finite_acceleration(base, fps)
    obs = Observations(
        pixels=cam.project(base) + rng.normal(0.0, 0.5, (n, j, 2)),
        camera=cam,
        accel=acc[:, sj] + rng.normal(0.0, 5.0, (n, 2, 3)),
        bones=base[:, sj] - base[:, sp] + rng.normal(0.0, 5.0, (n, 2, 3)),
        sensor_joints=sj,
        sensor_parents=sp,
    )
    return Fragment(base + rng.normal(0.0, 2.0, base.shape), fps), obs


def test_c01_gradient_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n, j = 8, 5
    terms = [visual_energy, accel_energy, bone_energy, smooth_energy]
    worst = 0.0
    for _ in range(100):
        frag, obs = smooth_random_fragment(rng, n, j)
        cfg = EnergyConfig(fragment_len=n).with_scales(frag, obs)
        funs = [lambda f, t=t: t(f, obs) for t in terms]
        funs.append(lambda f: total_energy(f, obs, cfg))
        x0 = frag.positions.ravel()
        for fun in funs:
            analytic = fun(frag).grad.ravel()
            numeric = fd_gradient(
                lambda x: fun(Fragment(x.reshape(n, j, 3), frag.fps)).value,
                x0,
                h_rel=1e-5,
            )
            worst = max(worst, max_rel_err(analytic, numeric))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    report(1, "gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_c02_kinematic_round_trip():
    t0 = time.monotonic()
    skel = default_skeleton()
    rng = np.random.default_rng(202)
    parents = np.asarray(skel.parents)
    lengths = skel.bone_lengths[1:]
    worst_pos, worst_len = 0.0, 0.0
    for _ in range(1000):
        params = MotionParams(
            rng.uniform(-800.0, 800.0, 3),
            tuple(random_rotation(rng) for _ in range(skel.joint_count)),
        )
        p1 = forward_kinematics(skel, params)
        p2 = forward_kinematics(skel, inverse_kinematics(skel, p1))
        worst_pos = max(worst_pos, float(np.abs(p2 - p1).max()))
        for pose in (p1, p2):
            got = np.linalg.norm(pose[1:] - pose[parents[1:]], axis=1)
            worst_len = max(worst_len, float(np.abs(got / lengths - 1.0).max()))
    elapsed = time.monotonic() - t0
    ok = worst_pos < 1e-6 and worst_len < 1e-9 and elapsed < 10.0
    report(
        2,
        "kinematic round trip",
        ok,
        f"fixpoint {worst_pos:.2e} mm, length drift {worst_len:.2e}, {elapsed:.1f}s",
    )


def test_c03_calibration_round_trip():
    t0 = time.monotonic()
    skel = default_skeleton()
    calib = default_calibration(skel)
    joints = calib.joint_indices(skel)

    script = default_script(duration=2.0, fps=25.0)
    _, params = generate_truth(script, skel)
    imu = derive_imu(params, skel, calib, script.fps)
    rotations, _, _ = calibrate_stream(calib, imu, skel)
    worst_rot = 0.0
    for i, p in enumerate(params):
        truth_glob = global_rotations(skel, p)
        for k, jj in enumerate(joints):
            worst_rot = max(worst_rot, rot_distance(rotations[i][k], truth_glob[jj]))

    waves = (
        TranslationWave((1.0, 0.0, 0.0), 120.0, 0.7),
        TranslationWave((0.0, 0.0, 1.0), 80.0, 1.1, 0.3),
    )
    errs = []
    for fps in (10.0, 20.0):
        script = MotionScript(2.0, fps, {}, waves)
        _, params = generate_truth(script, skel)
        imu = derive_imu(params, skel, calib, fps)
        _, accels, _ = calibrate_stream(calib, imu, skel)
        times = script.times()
        want = np.stack([script.root_acceleration(t) for t in times])
        diff = accels[1:-1] - want[1:-1, None, :]
        errs.append(float(np.abs(diff).max()))
    ratio = errs[0] / errs[1]
    elapsed = time.monotonic() - t0
    ok = worst_rot < 1e-9 and ratio >= 3.0 and elapsed < 10.0
    report(
        3,
        "calibration round trip",
        ok,
        f"rot err {worst_rot:.2e}, accel err {errs[0]:.2f}->{errs[1]:.2f} mm/s^2 "
        f"(ratio {ratio:.2f}), {elapsed:.1f}s",
    )


def test_c04_depth_ambiguity_repair():
    t0 = time.monotonic()
    skel = default_skeleton()
    joints = default_calibration(skel).joint_indices(skel)
    sigma = np.zeros(skel.joint_count)
    sigma[joints] = 60.0
    ds = make_dataset(NoiseSpec(sigma_depth=sigma), seed=4)
    out, _ = apply_mode(
        "sf2",
        ds.skeleton,
        ds.inputs,
        ds.fps,
        calib=ds.calibration,
        imu=ds.imu,
        energy=EnergyConfig(theta_t=0.035),
    )
    base = float(per_joint_mpjpe(ds.inputs, ds.truth)[joints].mean())
    sf2 = float(per_joint_mpjpe(out, ds.truth)[joints].mean())
    reduction = 1.0 - sf2 / base
    elapsed = time.monotonic() - t0
    ok = reduction >= 0.40 and elapsed < 60.0
    report(
        4,
        "depth ambiguity repair",
        ok,
        f"sensor-joint MPJPE {base:.1f} -> {sf2:.1f} mm ({100 * reduction:.0f}% down), {elapsed:.1f}s",
    )


def test_c05_jitter_amplification_and_repair():
    t0 = time.monotonic()
    ds = default_dataset()
    sf2 = sf2_output(ds)
    rtof, _ = rtof_output(ds)
    jje_base = mpjje(ds.inputs, ds.truth, ds.fps)
    jje_sf2 = mpjje(sf2, ds.truth, ds.fps)
    jje_rtof = mpjje(rtof, ds.truth, ds.fps)
    pe_sf2 = mpjpe(sf2, ds.truth)
    pe_rtof = mpjpe(rtof, ds.truth)
    reduction = 1.0 - jje_rtof / jje_sf2
    elapsed = time.monotonic() - t0
    ok = jje_sf2 > jje_base and reduction >= 0.50 and pe_rtof <= pe_sf2 and elapsed < 300.0
    report(
        5,
        "jitter amplification and repair",
        ok,
        f"MPJJE base {jje_base:.3g}, sf2 {jje_sf2:.3g}, rtof {jje_rtof:.3g} "
        f"({100 * reduction:.0f}% down); MPJPE sf2 {pe_sf2:.1f}, rtof {pe_rtof:.1f} mm; "
        f"{elapsed:.1f}s",
    )


def test_c06_visual_only_smoothing():
    t0 = time.monotonic()
    noise = NoiseSpec(sigma_transverse=30.0, sigma_xyz=3.0, sigma_px=0.5)
    ds = make_dataset(noise, seed=6, script=default_script(duration=30.0, fps=25.0))
    out, _ = apply_mode(
        "rto", ds.skeleton, ds.inputs, ds.fps, pixels=ds.pixels, camera=ds.camera
    )
    jje_base = mpjje(ds.inputs, ds.truth, ds.fps)
    jje_rto = mpjje(out, ds.truth, ds.fps)
    pe_base = mpjpe(ds.inputs, ds.truth)
    pe_rto = mpjpe(out, ds.truth)
    reduction = 1.0 - jje_rto / jje_base
    growth = pe_rto / pe_base - 1.0
    elapsed = time.monotonic() - t0
    ok = reduction >= 0.50 and growth <= 0.05 and elapsed < 180.0
    report(
        6,
        "visual-only smoothing",
        ok,
        f"MPJJE {jje_base:.3g} -> {jje_rto:.3g} ({100 * reduction:.0f}% down), "
        f"MPJPE {pe_base:.1f} -> {pe_rto:.1f} mm ({100 * growth:+.1f}%), {elapsed:.1f}s",
    )


def test_c07_schedule_and_streaming():
    t0 = time.monotonic()
    checked = 0
    for n in range(4, 65, 2):
        for t_n in range(1, 201):
            s = FragmentSchedule(t_n, n)
            count = np.zeros(t_n, dtype=int)
            holders = [set() for _ in range(t_n)]
            for k in range(s.window_count):
                start = s.window_start(k)
                for t in range(max(start, 0), min(start + n, t_n)):
                    count[t] += 1
                    holders[t].add(k)
            assert np.all(count == 2), f"T={t_n} N={n}"
            for t in range(t_n):
                assert holders[t] == set(s.covering_windows(t)), f"T={t_n} N={n} t={t}"
            checked += 1

    rng = np.random.default_rng(707)
    t_n, j_n = 500, 3
    truth = rng.uniform(-200.0, 200.0, (t_n, j_n, 3))
    truth[..., 2] += 2000.0
    cam = Camera(500.0, 500.0, 0.0, 0.0, IDENTITY, np.zeros(3))
    obs = SequenceObservations(
        fps=25.0,
        pixels=cam.project(truth) + rng.normal(0.0, 0.5, (t_n, j_n, 2)),
        camera=cam,
        accel=rng.normal(0.0, 50.0, (t_n, 2, 3)),
        bones=rng.normal(0.0, 30.0, (t_n, 2, 3)),
        sensor_joints=np.array([1, 2]),
        sensor_parents=np.array([0, 1]),
    )
    noisy = truth + rng.normal(0.0, 8.0, truth.shape)
    cfg = EnergyConfig(fragment_len=50)
    batch, _ = refine_batch(noisy, obs, cfg, SolverSettings())
    streamed = np.empty_like(batch)
    seen = []
    for idx, frame in run_stream(noisy, obs, cfg, SolverSettings()):
        streamed[idx] = frame
        seen.append(idx)
    identical = seen == list(range(t_n)) and batch.tobytes() == streamed.tobytes()
    elapsed = time.monotonic() - t0
    ok = identical and elapsed < 120.0
    report(
        7,
        "schedule and streaming",
        ok,
        f"{checked} schedules 2-covered, stream bitwise equal to batch: {identical}, {elapsed:.1f}s",
    )


def test_c08_fragment_length_tradeoff():
    # The length trade-off is a statement about fragments at their minima.
    # Default windows already stop within about 1e-6 of theirs; the sweep
    # shares one tighter stopping rule across every N, so that the comparison
    # does not depend on where each length's windows happened to stop.
    t0 = time.monotonic()
    ds = default_dataset()
    solver = SolverSettings(max_iterations=100, grad_tol=1e-12)
    rows = []
    for n in (20, 50, 100, 200):
        out, stats = rtof_output(
            ds, energy=EnergyConfig(fragment_len=n), solver=solver, key=f"rtof{n}"
        )
        rows.append((n, stats, mpjje(out, ds.truth, ds.fps), mpjpe(out, ds.truth)))
    for n, stats, jje, pe in rows:
        print(
            f"  N={n:3d}: {stats.fragment_count:3d} fragments, "
            f"{stats.fragments_per_second:8.2f} frag/s, {stats.output_frames_per_second:8.1f} "
            f"frames/s, MPJPE {pe:6.2f} mm, MPJJE {jje:.4g}"
        )
    speeds = [r[1].fragments_per_second for r in rows]
    decreasing = all(a > b for a, b in zip(speeds, speeds[1:]))
    smoother = rows[-1][2] <= rows[0][2]
    elapsed = time.monotonic() - t0
    ok = decreasing and smoother and elapsed < 600.0
    report(
        8,
        "fragment length trade-off",
        ok,
        f"frag/s {['%.1f' % s for s in speeds]}, MPJJE N200 {rows[-1][2]:.4g} <= "
        f"N20 {rows[0][2]:.4g}: {smoother}, {elapsed:.1f}s",
    )


def test_c09_inertial_weight_sanity():
    t0 = time.monotonic()
    ds = default_dataset()
    rtof_default, _ = rtof_output(ds)
    visual_only, _ = rtof_output(
        ds, energy=EnergyConfig(k_visual=1.0, k_inertial=0.0), key="rtof_vis"
    )
    jje_def = mpjje(rtof_default, ds.truth, ds.fps)
    jje_vis = mpjje(visual_only, ds.truth, ds.fps)
    elapsed = time.monotonic() - t0
    ok = jje_vis > jje_def and elapsed < 180.0
    report(
        9,
        "inertial weight sanity",
        ok,
        f"MPJJE visual-only {jje_vis:.4g} > default {jje_def:.4g}, {elapsed:.1f}s",
    )


def test_c10_cli_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"seed": 1, "duration": 4.0, "fps": 25.0}))
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = main(
            ["run", "--config", str(data_dir / "run_config.json"), "--out", str(out_dir)]
        )
        assert code == 0
        outs.append(out_dir)
    same = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("refined_pose3d.txt", "metrics.txt", "metrics.json")
    )
    report(10, "run determinism", same, f"two rtof runs byte-identical: {same}")
