import dataclasses
import json
import re
import weakref

import numpy as np
import pytest

from vifuse import (
    ConfigError,
    DataError,
    EnergyConfig,
    FormatError,
    Fragment,
    ImuStream,
    MissingInputError,
    NoiseSpec,
    Observations,
    RunConfig,
    SequenceObservations,
    SolverSettings,
    StreamingRefiner,
    SynthConfig,
    apply_mode,
    calibrate_stream,
    default_script,
    generate_dataset,
    make_dataset,
    mpjje,
    mpjpe,
    read_imu,
    read_pose2d,
    read_pose3d,
    refine_batch,
    refine_sequence,
    run_pipeline,
    visual_energy,
    visual_minimum,
    write_dataset,
    write_imu,
    write_pose2d,
    write_pose3d,
    write_results,
)
from vifuse import pipeline
from vifuse.cli import main

from conftest import dense_calibration


@pytest.fixture(scope="module")
def ds():
    noise = NoiseSpec(
        sigma_depth=20.0, sigma_xyz=5.0, sigma_px=1.0, sigma_rot=0.01, sigma_acc=30.0
    )
    return make_dataset(noise, seed=5, script=default_script(duration=3.0, fps=10.0))


def small_energy():
    return EnergyConfig(fragment_len=6)


def test_baseline_copies_input(ds):
    out, stats = apply_mode("baseline", ds.skeleton, ds.inputs, ds.fps)
    assert stats is None
    np.testing.assert_array_equal(out, ds.inputs)
    assert out is not ds.inputs


def test_mode_requirements(ds):
    with pytest.raises(ConfigError):
        apply_mode("turbo", ds.skeleton, ds.inputs, ds.fps)
    with pytest.raises(MissingInputError):
        apply_mode("rto", ds.skeleton, ds.inputs, ds.fps)
    with pytest.raises(MissingInputError):
        apply_mode("sf2", ds.skeleton, ds.inputs, ds.fps)
    with pytest.raises(MissingInputError):
        apply_mode(
            "rtof", ds.skeleton, ds.inputs, ds.fps, pixels=ds.pixels, camera=ds.camera
        )


@pytest.fixture(scope="module")
def default_noise_captures():
    """8 s default-noise captures on the default and the dense rig."""
    return {rig: make_dataset(pipeline.DEFAULT_NOISE, seed=0, script=default_script(duration=8.0),
                              calib=calib)
            for rig, calib in (("default", None), ("dense", dense_calibration()))}


@pytest.mark.parametrize("rig, weight", [
    pytest.param(rig, weight, id=weight if rig == "default" else f"{rig}-{weight}")
    for rig in ("default", "dense")
    for weight in ("k_visual", "k_inertial", "k_accel", "k_bone", "k_smooth")])
def test_rtof_with_one_weight_zeroed_beats_the_input_or_is_refused(default_noise_captures, rig,
                                                                   weight):
    ds = default_noise_captures[rig]
    energy = dataclasses.replace(EnergyConfig(), **{weight: 0.0})
    kw = dict(pixels=ds.pixels, camera=ds.camera, calib=ds.calibration, imu=ds.imu, energy=energy)
    if weight == "k_bone":  # the chains' depth along their rays is then free
        d = EnergyConfig()
        weights = f"k_inertial {d.k_inertial:g}, k_accel {d.k_accel:g}, k_smooth {d.k_smooth:g}"
        with pytest.raises(ConfigError, match=r"k_bone > 0 .*" + re.escape(weights)):
            apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, **kw)
        return
    out, _ = apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, **kw)
    assert mpjpe(out, ds.truth) < mpjpe(ds.inputs, ds.truth)


def test_rtof_refuses_k_bone_0_only_with_an_active_inertial_term(ds):
    kw = dict(pixels=ds.pixels, camera=ds.camera, calib=ds.calibration, imu=ds.imu)
    for energy in (EnergyConfig(k_bone=0.0, k_accel=0.0), EnergyConfig(k_bone=0.0, k_smooth=0.0)):
        with pytest.raises(ConfigError, match="k_bone"):
            apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, energy=energy, **kw)
    for energy in (EnergyConfig(k_bone=0.0, k_inertial=0.0),
                   EnergyConfig(k_bone=0.0, k_accel=0.0, k_smooth=0.0)):
        assert apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, energy=energy, **kw)[1] is None
    out, _ = apply_mode("sf2", ds.skeleton, ds.inputs, ds.fps, energy=EnergyConfig(k_bone=0.0), **kw)
    assert out.shape == ds.inputs.shape


def test_shape_mismatches(ds):
    with pytest.raises(DataError):
        apply_mode("baseline", ds.skeleton, ds.inputs[:, :5], ds.fps)
    with pytest.raises(DataError):
        apply_mode(
            "sf2", ds.skeleton, ds.inputs[:-1], ds.fps, calib=ds.calibration, imu=ds.imu
        )
    with pytest.raises(DataError):
        apply_mode(
            "rto", ds.skeleton, ds.inputs, ds.fps, pixels=ds.pixels[:-1], camera=ds.camera
        )


@pytest.mark.parametrize("mode", pipeline.MODES)
def test_streams_without_their_coordinates_are_refused(ds, mode):
    # Poses of (T, J, 2) and, where the mode reads them, pixels of (T, J, 3).
    kw = dict(pixels=ds.pixels, camera=ds.camera, calib=ds.calibration, imu=ds.imu)
    with pytest.raises(DataError, match=r"pose stream shape \(30, 21, 2\)"):
        apply_mode(mode, ds.skeleton, ds.inputs[..., :2], ds.fps, **kw)
    kw["pixels"] = np.concatenate([ds.pixels, ds.pixels[..., :1]], axis=-1)
    if mode in ("rto", "rtof"):
        with pytest.raises(DataError, match=r"2D stream shape \(30, 21, 3\)"):
            apply_mode(mode, ds.skeleton, ds.inputs, ds.fps, **kw)
    else:  # a stream the mode does not read is not checked
        out, _ = apply_mode(mode, ds.skeleton, ds.inputs, ds.fps, **kw)
        assert out.shape == ds.inputs.shape


@pytest.mark.parametrize("rig", ["default", "dense"])
def test_sf2_gates_on_the_bones_the_window_solve_reads(default_noise_captures, rig):
    # sf2 swaps in calibrate_stream's bones, the ones rtof's bone term reads
    ds = default_noise_captures[rig]
    out, stats = apply_mode(
        "sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu
    )
    assert stats is None
    _, _, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    obs = Observations(bones=bones, sensor_joints=joints,
                       sensor_parents=np.array(ds.skeleton.parents)[joints])
    want = refine_sequence(ds.skeleton, ds.inputs, obs, EnergyConfig().theta_t)
    assert out.tobytes() == want.tobytes()
    # the gate fires on some sensor bones and stays shut on others
    fired = np.isclose(out[:, joints] - out[:, obs.sensor_parents], bones, atol=1e-9).all(-1)
    assert fired.any() and not fired.all()


def test_rto_forces_visual_only(ds):
    kw = dict(pixels=ds.pixels, camera=ds.camera, solver=SolverSettings())
    base, _ = apply_mode("rto", ds.skeleton, ds.inputs, ds.fps, energy=small_energy(), **kw)
    # inertial sub-weights are dead weight in this mode, and so are IMU inputs
    heavy, _ = apply_mode(
        "rto",
        ds.skeleton,
        ds.inputs,
        ds.fps,
        energy=EnergyConfig(fragment_len=6, k_accel=0.9, k_bone=0.05, k_smooth=0.05),
        calib=ds.calibration,
        imu=ds.imu,
        **kw,
    )
    np.testing.assert_array_equal(base, heavy)


def test_rto_is_the_visual_minimum_nearest_the_start(ds):
    out, stats = apply_mode("rto", ds.skeleton, ds.inputs, ds.fps, pixels=ds.pixels, camera=ds.camera)
    assert stats is None
    assert out.tobytes() == visual_minimum(ds.inputs, ds.pixels, ds.camera).tobytes()
    # Reference: the fragment solve of the same visual-only energy. Which of
    # the two lies nearer the truth depends on the solver's path, so compare
    # what the projection has by construction: no more visual energy, and no
    # farther from the start than the solver's output carried onto its rays.
    obs = SequenceObservations(fps=ds.fps, pixels=ds.pixels, camera=ds.camera)
    solved, _ = refine_batch(ds.inputs, obs, EnergyConfig(k_inertial=0.0), SolverSettings())
    visual = Observations(pixels=ds.pixels, camera=ds.camera)
    assert (visual_energy(Fragment(out, ds.fps), visual).value
            <= visual_energy(Fragment(solved, ds.fps), visual).value)
    on_rays = visual_minimum(solved, ds.pixels, ds.camera)
    moved = np.linalg.norm(out - ds.inputs, axis=-1)
    assert np.all(moved <= np.linalg.norm(on_rays - ds.inputs, axis=-1) + 1e-9)


def test_rtof_without_inertial_terms_projects_the_input(ds):
    kw = dict(pixels=ds.pixels, camera=ds.camera, calib=ds.calibration, imu=ds.imu)
    visual_only = EnergyConfig(k_visual=1.0, k_inertial=0.0)
    no_subterms = EnergyConfig(k_accel=0.0, k_bone=0.0, k_smooth=0.0)
    for energy in (visual_only, no_subterms):
        out, stats = apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, energy=energy, **kw)
        assert stats is None
        assert out.tobytes() == visual_minimum(ds.inputs, ds.pixels, ds.camera).tobytes()
    # Nothing active at all: the input comes back unchanged.
    nothing = EnergyConfig(k_visual=0.0, k_inertial=1.0, k_accel=0.0, k_bone=0.0, k_smooth=0.0)
    out, stats = apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, energy=nothing, **kw)
    assert stats is None
    assert out.tobytes() == ds.inputs.tobytes() and out is not ds.inputs
    out, _ = apply_mode("rto", ds.skeleton, ds.inputs, ds.fps, energy=nothing, **kw)
    assert out.tobytes() == ds.inputs.tobytes() and out is not ds.inputs


def test_rtof_runs_and_improves_jitter(ds):
    sf2_out, _ = apply_mode(
        "sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu
    )
    rtof_out, stats = apply_mode(
        "rtof",
        ds.skeleton,
        ds.inputs,
        ds.fps,
        pixels=ds.pixels,
        camera=ds.camera,
        calib=ds.calibration,
        imu=ds.imu,
        energy=small_energy(),
    )
    assert stats is not None and stats.fragment_count > 0
    assert rtof_out.shape == ds.inputs.shape
    assert mpjje(rtof_out, ds.truth, ds.fps) < mpjje(sf2_out, ds.truth, ds.fps)


def test_run_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig(mode="rto", skeleton="s", pose3d="p")  # no pixels for rto
    with pytest.raises(ConfigError):
        RunConfig(mode="baseline", skeleton="s", pose3d="p", fps=0.0)
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mode": "baseline", "skeleton": "s", "pose3d": "p", "zap": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"mode": "baseline", "skeleton": "s", "pose3d": "p", "energy": {"zap": 1}}
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"mode": "baseline", "skeleton": "s", "pose3d": "p", "solver": {"max_iterations": 0}}
        )
    cfg = RunConfig.from_dict(
        {
            "mode": "baseline",
            "skeleton": "rig/skel.txt",
            "pose3d": "in.txt",
            "energy": {"fragment_len": 8, "k_smooth": 0.5},
            "solver": {"max_iterations": 5},
        },
        base_dir=tmp_path,
    )
    assert cfg.skeleton == str(tmp_path / "rig/skel.txt")
    assert cfg.pose3d == str(tmp_path / "in.txt")
    assert cfg.energy.fragment_len == 8
    assert cfg.energy.k_smooth == 0.5
    assert cfg.solver.max_iterations == 5


def test_run_config_from_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        RunConfig.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        RunConfig.from_file(arr)


def test_synth_config_noise_lists():
    cfg = SynthConfig.from_dict(
        {
            "seed": 9,
            "duration": 1.0,
            "fps": 5.0,
            "noise": {"sigma_depth": [0.0] * 20 + [50.0], "occlusion": 0.1},
        }
    )
    assert cfg.noise.sigma_depth.shape == (21,)
    assert cfg.noise.occlusion == 0.1
    with pytest.raises(ConfigError):
        SynthConfig.from_dict({"noise": {"sigma_warp": 1.0}})
    with pytest.raises(ConfigError):
        SynthConfig.from_dict({"tempo": 3})


def test_write_dataset_and_run_pipeline(tmp_path, ds):
    data_dir = tmp_path / "data"
    manifest = write_dataset(ds, data_dir)
    assert manifest["frames"] == ds.frame_count
    for name in manifest["files"].values():
        assert (data_dir / name).exists()
    assert json.loads((data_dir / "manifest.json").read_text()) == manifest

    config = RunConfig.from_file(data_dir / "run_config.json")
    assert config.mode == "rtof"
    assert config.fps == ds.fps

    # baseline run against the same files: output equals the input stream
    base_cfg = RunConfig.from_dict(
        {
            "mode": "baseline",
            "skeleton": "skeleton.txt",
            "pose3d": "input_pose3d.txt",
            "truth": "truth_pose3d.txt",
            "fps": ds.fps,
        },
        base_dir=data_dir,
    )
    result = run_pipeline(base_cfg)
    np.testing.assert_array_equal(result.output, read_pose3d(data_dir / "input_pose3d.txt"))
    assert result.report is not None
    assert result.report.mpjpe > 0
    assert result.joint_names == ds.skeleton.names

    out_dir = tmp_path / "out"
    written = write_results(result, out_dir)
    assert sorted(written) == ["metrics.json", "metrics.txt", "refined_pose3d.txt"]
    rec = json.loads((out_dir / "metrics.json").read_text())
    assert rec["mpjpe_mm"] == pytest.approx(result.report.mpjpe)
    np.testing.assert_array_equal(
        read_pose3d(out_dir / "refined_pose3d.txt"), result.output
    )


def test_run_pipeline_truth_shape_check(tmp_path, ds):
    data_dir = tmp_path / "data"
    write_dataset(ds, data_dir)
    cfg = RunConfig.from_dict(
        {
            "mode": "baseline",
            "skeleton": "skeleton.txt",
            "pose3d": "input_pose3d.txt",
            "truth": "pose2d.txt",
            "fps": ds.fps,
        },
        base_dir=data_dir,
    )
    with pytest.raises(FormatError, match=re.escape(
            "pose2d.txt:1: expected header 'pose3d <version>'")):
        run_pipeline(cfg)


def test_generate_dataset_uses_config():
    cfg = SynthConfig(seed=2, duration=1.0, fps=5.0, noise=NoiseSpec(sigma_xyz=4.0))
    d = generate_dataset(cfg)
    assert d.frame_count == 5
    assert d.fps == 5.0
    assert d.seed == 2


def test_cli_synth_and_run(tmp_path, capsys):
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(
        json.dumps(
            {
                "seed": 1,
                "duration": 2.0,
                "fps": 10.0,
                "noise": {"sigma_xyz": 5.0, "sigma_px": 1.0},
            }
        )
    )
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    out = capsys.readouterr().out
    assert "wrote 20 frames" in out
    assert (data_dir / "run_config.json").exists()

    run_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--config",
            str(data_dir / "run_config.json"),
            "--out",
            str(run_dir),
            "--mode",
            "sf2",
            "--fps-report",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mode sf2: 20 frames" in out
    assert "MPJPE" in out
    assert (run_dir / "refined_pose3d.txt").exists()
    assert (run_dir / "metrics.json").exists()

    # seed override changes the synthesized inputs
    other = tmp_path / "data2"
    assert main(["synth", "--out", str(other), "--config", str(synth_cfg), "--seed", "2"]) == 0
    capsys.readouterr()
    a = (data_dir / "input_pose3d.txt").read_bytes()
    b = (other / "input_pose3d.txt").read_bytes()
    assert a != b


def test_cli_per_frame_metrics(tmp_path, capsys):
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"duration": 1.0, "fps": 10.0, "noise": {"sigma_xyz": 3.0}}))
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    run_dir = tmp_path / "run"
    code = main(
        [
            "run",
            "--config",
            str(data_dir / "run_config.json"),
            "--out",
            str(run_dir),
            "--mode",
            "baseline",
            "--per-frame-metrics",
        ]
    )
    assert code == 0
    capsys.readouterr()
    rec = json.loads((run_dir / "metrics.json").read_text())
    assert rec["per_second"] is False


def test_cli_error_codes(tmp_path, capsys):
    # config error: file missing
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err

    # missing-input error: rto without 2D streams
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "rto", "skeleton": "s.txt", "pose3d": "p.txt"}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "missing-input error" in capsys.readouterr().err

    # format error: corrupt stream file
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"duration": 1.0, "fps": 10.0}))
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    capsys.readouterr()
    (data_dir / "input_pose3d.txt").write_text("garbage\n")
    code = main(
        [
            "run",
            "--config",
            str(data_dir / "run_config.json"),
            "--out",
            str(tmp_path / "o2"),
            "--mode",
            "baseline",
        ]
    )
    assert code == 3
    assert "format error" in capsys.readouterr().err

    # io error: output path collides with an existing file
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    capsys.readouterr()
    blocked = tmp_path / "blocked"
    blocked.write_text("a file")
    code = main(
        [
            "run",
            "--config",
            str(data_dir / "run_config.json"),
            "--out",
            str(blocked),
            "--mode",
            "baseline",
        ]
    )
    assert code == 4
    assert "io error" in capsys.readouterr().err


def test_cli_synth_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("duration", [0.04, 0.08, 0.1])
def test_cli_synth_too_few_frames_exits_2(tmp_path, capsys, duration):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"duration": duration}))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    frames = round(duration * 25)
    assert "config error" in err and f"gives {frames} frame(s)" in err and "at least 4" in err
    assert not (tmp_path / "d").exists()


def test_cli_synth_infinite_duration_exits_2(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"duration": float("inf")}))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"duration": 1e9, "fps": 1e9}, "duration 1000000000.0 s at fps 1000000000.0 gives 1e+18"),
    ({"duration": 1e300, "fps": 1e300}, "duration 1e+300 s at fps 1e+300 gives inf frames"),
    ({"duration": -60.0, "fps": -25.0}, "duration must be a finite positive number, got -60.0"),
])
def test_cli_synth_that_cannot_be_built_exits_2(tmp_path, capsys, config, message):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("duration, fps", [(1e300, 1e300), (1e9, 1e9), (40000.1, 25.0)])
def test_api_synth_refuses_more_frames_than_can_be_built(duration, fps):
    message = (re.escape(f"duration {duration} s at fps {fps} gives ")
               + rf"\S+ frames; at most {pipeline.MAX_SYNTH_FRAMES} can be built$")
    with pytest.raises(ConfigError, match="^" + message):
        SynthConfig(duration=duration, fps=fps)
    assert SynthConfig(duration=40000.0, fps=25.0).fps == 25.0  # MAX_SYNTH_FRAMES frames


def synth_small(tmp_path, capsys):
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({"duration": 1.0, "fps": 10.0}))
    assert main(["synth", "--out", str(data_dir), "--config", str(synth_cfg)]) == 0
    capsys.readouterr()
    return data_dir


def test_cli_fps_report_prints_throughput_only_where_a_solver_runs(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    for mode, lines in (("rtof", 1), ("rto", 0)):
        assert main(["run", "--config", str(data_dir / "run_config.json"),
                     "--out", str(tmp_path / mode), "--mode", mode, "--fps-report"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("throughput: ") for line in out) == lines, out


def run_sf2(data_dir, out_dir):
    return main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(out_dir),
                 "--mode", "sf2"])


def test_cli_unknown_sensor_id_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    cal = data_dir / "calibration.txt"
    cal.write_text(cal.read_text().replace("sensor l_upper_arm ", "sensor spare "))
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'l_upper_arm'" in err


def test_cli_sensor_on_root_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    cal = data_dir / "calibration.txt"
    cal.write_text(cal.read_text().replace("sensor l_upper_arm l_elbow ", "sensor l_upper_arm pelvis "))
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'l_upper_arm'" in err and "root" in err


def test_cli_degenerate_bone_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    poses = read_pose3d(data_dir / "input_pose3d.txt")
    poses[3, 1] = poses[3, 0]  # zero-length bone from the root to joint 1 in frame 3
    write_pose3d(data_dir / "input_pose3d.txt", poses)
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "data error" in err and "frame 3" in err and "joint 1" in err


def test_cli_pose2d_joint_count_mismatch_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    pixels = read_pose2d(data_dir / "pose2d.txt")
    write_pose2d(data_dir / "pose2d.txt", pixels[:, :5])
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", "rto"])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "5 joints" in err and "21" in err


def drop_last_frame(path):
    if path.name == "imu.txt":
        imu = read_imu(path)
        write_imu(path, ImuStream(imu.sensor_ids, imu.orientations[:-1], imu.accels[:-1]))
    elif path.name == "pose2d.txt":
        write_pose2d(path, read_pose2d(path)[:-1])
    else:
        write_pose3d(path, read_pose3d(path)[:-1])


@pytest.mark.parametrize("name, message", [
    ("pose2d.txt", "2D stream has 9 frames, pose stream 10"),
    ("imu.txt", "IMU stream has 9 frames, pose stream 10"),
    ("truth_pose3d.txt", "truth shape (9, 21, 3) does not match output (10, 21, 3)"),
], ids=["pose2d", "imu", "truth"])
def test_cli_frame_count_mismatch_exits_3(tmp_path, capsys, name, message):
    data_dir = synth_small(tmp_path, capsys)
    drop_last_frame(data_dir / name)
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", "rtof"])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and message in err


def test_truth_stream_is_checked_before_the_solve(tmp_path, capsys, monkeypatch):
    data_dir = synth_small(tmp_path, capsys)
    drop_last_frame(data_dir / "truth_pose3d.txt")

    def no_solve(*args, **kwargs):
        pytest.fail("the mode's streams were checked before the truth stream")

    monkeypatch.setattr(pipeline, "_observations", no_solve)
    with pytest.raises(DataError, match=re.escape(
            "truth shape (9, 21, 3) does not match output (10, 21, 3)")):
        run_pipeline(RunConfig.from_file(data_dir / "run_config.json"))


@pytest.mark.parametrize("section, option, value", [
    ("energy", "scales", [1e9, 1e9, 1e9, 1e9]),  # set through the API alone
    ("solver", "wolfe_c1", 1e-4),  # nor are the constants of the deleted line search
    ("solver", "wolfe_c2", 0.9),
    ("solver", "history", 10),  # or the deleted quasi-Newton memory
])
def test_cli_non_option_exits_2(tmp_path, capsys, section, option, value):
    data_dir = synth_small(tmp_path, capsys)
    config = json.loads((data_dir / "run_config.json").read_text())
    config.setdefault(section, {})[option] = value
    (data_dir / "run_config.json").write_text(json.dumps(config))
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown {section} option(s): {option}" in err


def test_cli_rtof_with_k_bone_0_exits_2(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    config = json.loads((data_dir / "run_config.json").read_text())
    config["energy"] = {"k_bone": 0.0}
    for mode, code in (("sf2", 0), ("rto", 0), ("rtof", 2)):
        config["mode"] = mode
        (data_dir / "run_config.json").write_text(json.dumps(config))
        assert main(["run", "--config", str(data_dir / "run_config.json"),
                     "--out", str(tmp_path / mode)]) == code
    err = capsys.readouterr().err
    assert ("config error: mode rtof needs k_bone > 0" in err
            and f"k_inertial {EnergyConfig().k_inertial:g}" in err)
    assert not (tmp_path / "rtof").exists()
    config["mode"] = "sf2"
    (data_dir / "run_config.json").write_text(json.dumps(config))
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", "rtof"])
    assert code == 2 and "k_bone" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [{"pose2d": None}, {"energy": {"k_bone": 0.0}}],
                         ids=["no_pose2d", "k_bone_0"])
def test_cli_mode_override_is_checked_in_place_of_the_files_mode(tmp_path, capsys, edit):
    # The file's rtof could not run on this config; the sf2 asked for can.
    data_dir = synth_small(tmp_path, capsys)
    config = json.loads((data_dir / "run_config.json").read_text())
    assert config["mode"] == "rtof"
    (data_dir / "edited.json").write_text(json.dumps({**config, **edit}))
    assert main(["run", "--config", str(data_dir / "edited.json"), "--out", str(tmp_path / "o"),
                 "--mode", "sf2", "--per-frame-metrics"]) == 0
    assert capsys.readouterr().out.startswith("mode sf2:")
    assert json.loads((tmp_path / "o" / "metrics.json").read_text())["per_second"] is False


def test_cli_mode_override_still_needs_its_streams(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    config = json.loads((data_dir / "run_config.json").read_text())
    config.update(mode="sf2", pose2d=None)
    (data_dir / "edited.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(data_dir / "edited.json"), "--out", str(tmp_path / "o"),
                 "--mode", "rtof"]) == 2
    assert "missing-input error: mode rtof requires 2D observations" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_pose3d_joint_count_mismatch_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    poses = read_pose3d(data_dir / "input_pose3d.txt")
    write_pose3d(data_dir / "input_pose3d.txt", poses[:, :20])
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", "baseline"])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "(10, 20, 3)" in err and "21-joint skeleton" in err


@pytest.mark.parametrize("frames", [1, 2, 3])
@pytest.mark.parametrize("mode", ["baseline", "sf2", "rto", "rtof"])
def test_cli_short_truth_stream_exits_3(tmp_path, capsys, frames, mode):
    data_dir = synth_small(tmp_path, capsys)
    for name in ("truth_pose3d.txt", "input_pose3d.txt"):
        write_pose3d(data_dir / name, read_pose3d(data_dir / name)[:frames])
    write_pose2d(data_dir / "pose2d.txt", read_pose2d(data_dir / "pose2d.txt")[:frames])
    imu = read_imu(data_dir / "imu.txt")
    write_imu(data_dir / "imu.txt", ImuStream(
        imu.sensor_ids, imu.orientations[:frames], imu.accels[:frames]))
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", mode])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{frames} frame(s)" in err and "at least 4" in err


def zero_quaternion(imu_path, row):
    lines = imu_path.read_text().splitlines()
    fields = lines[row].split(" ")
    fields[2:6] = ["0", "0", "0", "0"]
    lines[row] = " ".join(fields)
    imu_path.write_text("\n".join(lines) + "\n")


def test_cli_zero_quaternion_exits_3(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    imu_path = data_dir / "imu.txt"
    zero_quaternion(imu_path, 5)
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "format error" in err and f"{imu_path}:6" in err and "quaternion" in err


@pytest.mark.parametrize("edit, message", [
    (lambda line: line.replace("joint 2 chest 1 ", "joint 2 chest -1 "), "root"),
    (lambda line: " ".join(line.split(" ")[:4] + ["0", "1120", "0"]), "zero length"),
], ids=["second_root", "zero_tpose_bone"])
def test_cli_bad_skeleton_topology_exits_3(tmp_path, capsys, edit, message):
    data_dir = synth_small(tmp_path, capsys)
    skel_path = data_dir / "skeleton.txt"
    lines = skel_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("joint 2 chest 1 "))
    lines[row] = edit(lines[row])
    skel_path.write_text("\n".join(lines) + "\n")
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "format error" in err and str(skel_path) in err and message in err


@pytest.mark.parametrize("name, row, edit, message", [
    ("calibration.txt", 2, lambda f: f[:3] + ["0", "0", "0", "0"] + f[7:], "zero-norm quaternion"),
    ("calibration.txt", 2, lambda f: f[:8] + ["nan"] + f[9:], "non-finite quaternion component"),
    ("camera.txt", 5, lambda f: ["rotation", "0", "0", "0", "0"], "zero-norm quaternion"),
    ("camera.txt", 1, lambda f: ["fx", "nan"], "non-finite fx"),
    ("camera.txt", 1, lambda f: ["fx", "0"], "fx must be positive"),
    ("skeleton.txt", 4, lambda f: f[:4] + ["nan"] + f[5:], "non-finite coordinate"),
    ("calibration.txt", 1, lambda f: ["gravity", "0", "inf", "0"], "non-finite gravity component"),
], ids=["calibration_zero_quat", "calibration_nan", "camera_zero_quat", "camera_fx_nan", "camera_fx_zero",
        "skeleton_nan", "gravity_inf"])
def test_cli_bad_rig_value_exits_3(tmp_path, capsys, name, row, edit, message):
    data_dir = synth_small(tmp_path, capsys)
    path = data_dir / name
    lines = path.read_text().splitlines()
    lines[row] = " ".join(edit(lines[row].split(" ")))
    path.write_text("\n".join(lines) + "\n")
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o"),
                 "--mode", "rtof"])
    assert code == 3
    err = capsys.readouterr().err
    assert "format error" in err and f"{path}:{row + 1}:" in err and message in err


@pytest.mark.parametrize("mode, opened", [
    ("baseline", set()),
    ("rto", {"pose2d", "camera"}),
    ("sf2", {"calibration", "imu"}),
    ("rtof", {"pose2d", "camera", "calibration", "imu"}),
])
def test_run_opens_only_the_streams_its_mode_reads(tmp_path, capsys, monkeypatch, mode, opened):
    data_dir = synth_small(tmp_path, capsys)
    seen = set()
    for name in ("pose2d", "camera", "calibration", "imu"):
        def reader(path, name=name, read=getattr(pipeline, f"read_{name}")):
            if name not in opened:
                pytest.fail(f"mode {mode} opened its {name} stream {path}")
            seen.add(name)
            return read(path)

        monkeypatch.setattr(pipeline, f"read_{name}", reader)
    config = dataclasses.replace(RunConfig.from_file(data_dir / "run_config.json"), mode=mode)
    assert run_pipeline(config).report is not None
    assert seen == opened


@pytest.mark.parametrize("mode, solve", [("rtof", "refine_batch"), ("sf2", "refine_sequence")])
def test_run_releases_the_raw_imu_stream_before_the_solve(tmp_path, capsys, monkeypatch, mode,
                                                          solve):
    # Nothing after the calibration reads the raw stream, so no local, dict
    # or caller reference keeps it alive into sf2 or the window solve.
    data_dir = synth_small(tmp_path, capsys)
    streams, released = [], []

    def reading(path, read=pipeline.read_imu):
        stream = read(path)
        streams.append(weakref.ref(stream))
        return stream

    def solving(*args, solve=getattr(pipeline, solve), **kwargs):
        released.append(streams[0]() is None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "read_imu", reading)
    monkeypatch.setattr(pipeline, solve, solving)
    config = dataclasses.replace(RunConfig.from_file(data_dir / "run_config.json"), mode=mode)
    assert run_pipeline(config).report is not None
    assert len(streams) == 1 and released == [True]


def test_cli_rto_does_not_read_the_imu_stream(tmp_path, capsys):
    data_dir = synth_small(tmp_path, capsys)
    config = str(data_dir / "run_config.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "valid"), "--mode", "rto"]) == 0
    zero_quaternion(data_dir / "imu.txt", 5)
    assert main(["run", "--config", config, "--out", str(tmp_path / "zero"), "--mode", "rto"]) == 0
    for name in ("refined_pose3d.txt", "metrics.txt", "metrics.json"):
        assert (tmp_path / "zero" / name).read_bytes() == (tmp_path / "valid" / name).read_bytes()


@pytest.mark.parametrize("edit, row, message", [
    (lambda lines: lines + [lines[4]], 11, "duplicate sensor r_upper_arm"),
    (lambda lines: lines[:5] + [lines[5].replace(" r_wrist ", " l_elbow ")] + lines[6:], 6,
     "joint l_elbow is bound to more than one sensor"),
], ids=["repeated_sensor", "repeated_joint"])
def test_cli_repeated_calibration_record_exits_3(tmp_path, capsys, edit, row, message):
    data_dir = synth_small(tmp_path, capsys)
    path = data_dir / "calibration.txt"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert run_sf2(data_dir, tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "format error" in err and f"{path}:{row}: {message}" in err


@pytest.mark.parametrize("option, value, message", [
    ("pose3d", 5, "config option pose3d must be a string, got 5"),
    ("truth", ["a"], 'config option truth must be a string or null, got ["a"]'),
    ("energy", 5, "energy options must be a JSON object, got 5"),
    ("energy", {"fragment_len": 50.0}, "energy option fragment_len must be an integer, got 50.0"),
    ("fps", True, "config option fps must be a finite number, got true"),
    ("fps", float("nan"), "config option fps must be a finite number, got NaN"),
    ("per_second_metrics", "no", 'config option per_second_metrics must be true or false, got "no"'),
    ("solver", {"max_iterations": True}, "solver option max_iterations must be an integer, got true"),
    ("solver", {"grad_tol": "1e-6"}, 'solver option grad_tol must be a finite number, got "1e-6"'),
])
def test_cli_mistyped_run_config_exits_2(tmp_path, capsys, option, value, message):
    data_dir = synth_small(tmp_path, capsys)
    config = json.loads((data_dir / "run_config.json").read_text())
    config[option] = value
    (data_dir / "run_config.json").write_text(json.dumps(config))
    code = main(["run", "--config", str(data_dir / "run_config.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cls, name, bad, good", [
    (EnergyConfig, "k_accel", float("nan"), 0.5),
    (EnergyConfig, "k_visual", float("inf"), np.float64(0.5)),
    (EnergyConfig, "k_inertial", float("nan"), 0.1),
    (EnergyConfig, "fragment_len", 50.0, np.int64(50)),
    (EnergyConfig, "fragment_len", True, 4),
    (SolverSettings, "grad_tol", float("nan"), 1e-6),
    (SolverSettings, "grad_tol", float("inf"), 1e-6),
    (SolverSettings, "max_iterations", 30.0, 30),
    (NoiseSpec, "sigma_px", float("nan"), 1.0),
    (NoiseSpec, "sigma_acc", float("inf"), 0.05),
    (NoiseSpec, "occlusion", float("nan"), 0.1),
    (SynthConfig, "seed", 1.5, 2),
    (SynthConfig, "script_seed", 7.0, np.int64(7)),
    (SynthConfig, "duration", float("nan"), 2.0),
    (SynthConfig, "fps", float("inf"), 30.0),
])
def test_api_config_refuses_what_json_configs_refuse(cls, name, bad, good):
    # NaN, infinite and non-integer values, which JSON configs already refuse.
    with pytest.raises(ValueError, match=f"^{name} must be"):
        cls(**{name: bad})
    assert getattr(cls(**{name: good}), name) == good


@pytest.mark.parametrize("fps", [float("nan"), float("inf"), True, 0.0])
@pytest.mark.parametrize("build", [
    lambda fps: RunConfig(mode="baseline", skeleton="skeleton.txt", pose3d="pose3d.txt", fps=fps),
    lambda fps: Fragment(np.zeros((4, 2, 3)), fps),
    lambda fps: SequenceObservations(fps=fps),
    lambda fps: StreamingRefiner(fps, EnergyConfig(), SolverSettings()),
], ids=["RunConfig", "Fragment", "SequenceObservations", "StreamingRefiner"])
def test_api_frame_rates_refuse_what_json_configs_refuse(build, fps):
    # refine_batch and run_stream take the rate of their SequenceObservations.
    with pytest.raises(ValueError, match=f"^fps must be a finite positive number, got {fps!r}$"):
        build(fps)
    build(30.0)


@pytest.mark.parametrize("command", ["run", "synth"])
def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"mode": "rtof\xe9"}')
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{path}: not UTF-8 text" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, message", [
    ({"seed": 1.5}, "synth option seed must be an integer, got 1.5"),
    ({"duration": "1"}, 'synth option duration must be a finite number, got "1"'),
    ({"noise": 5}, "noise options must be a JSON object, got 5"),
    ({"noise": {"sigma_px": False}}, "noise option sigma_px must be a finite number, got false"),
    ({"noise": {"occlusion": ["a"]}}, "noise option occlusion must be a finite number or a list of them"),
    ({"duration": 1.0, "seed": -1}, "synth option seed must be non-negative, got -1"),
    ({"duration": 1.0, "script_seed": -3}, "synth option script_seed must be non-negative, got -3"),
    ({"noise": {"sigma_depth": [1.0]}}, "noise option sigma_depth must be a number or a list of 21"),
    ({"noise": {"occlusion": []}}, "noise option occlusion must be a number or a list of 21"),
])
def test_cli_mistyped_synth_config_exits_2(tmp_path, capsys, config, message):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(config))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
