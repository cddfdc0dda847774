import math
import re

import numpy as np
import pytest

from vifuse import (
    DEFAULT_JOINT_NAMES,
    DEFAULT_PARENTS,
    DEFAULT_SENSOR_SITES,
    JointTrack,
    MotionScript,
    NoiseSpec,
    Sinusoid,
    TranslationWave,
    calibrate_stream,
    corrupt_imu,
    corrupt_pixels,
    corrupt_poses,
    default_calibration,
    default_camera,
    default_script,
    default_skeleton,
    derive_imu,
    finite_acceleration,
    forward_kinematics,
    generate_truth,
    global_rotations,
    make_dataset,
    project_sequence,
)
from vifuse import pipeline, synth
from vifuse.rotmath import quat_apply, quat_normalize

from conftest import rot_angle, rot_angle_between, rot_distance


def small_script(duration=2.0, fps=10.0):
    tracks = {
        1: JointTrack((0.0, 0.0, 1.0), (Sinusoid(0.4, 0.5),)),
        2: JointTrack((1.0, 0.0, 0.0), (Sinusoid(0.3, 0.8, 1.0), Sinusoid(0.1, 1.3))),
    }
    waves = (TranslationWave((1.0, 0.0, 0.0), 50.0, 0.4),)
    return MotionScript(duration=duration, fps=fps, tracks=tracks, root_waves=waves)


def test_sinusoid_derivatives_match_finite_differences():
    s = Sinusoid(2.0, 0.7, 0.3)
    h = 1e-6
    for t in (0.0, 0.31, 1.7):
        fd_rate = (s.value(t + h) - s.value(t - h)) / (2 * h)
        fd_accel = (s.value(t + h) - 2 * s.value(t) + s.value(t - h)) / (h * h)
        assert s.rate(t) == pytest.approx(fd_rate, abs=1e-6)
        assert s.accel(t) == pytest.approx(fd_accel, abs=1e-3)


def test_joint_track_rotation_axis_angle():
    tr = JointTrack((0.0, 0.0, 1.0), (Sinusoid(0.5, 0.25),))
    t = 1.0  # sin(pi/2) = 1 -> angle 0.5
    assert tr.angle(t) == pytest.approx(0.5)
    r = tr.rotation(t)
    assert rot_angle(r) == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(quat_apply(r, [1, 0, 0]), [math.cos(0.5), math.sin(0.5), 0.0], atol=1e-12)


def test_translation_wave_accel_is_second_derivative():
    w = TranslationWave((0.0, 1.0, 0.0), 30.0, 0.2, 0.5)
    h = 1e-5
    t = 0.7
    fd = (w.offset(t + h) - 2 * w.offset(t) + w.offset(t - h)) / (h * h)
    np.testing.assert_allclose(w.acceleration(t), fd, atol=1e-3)


def test_script_frame_layout():
    s = small_script(duration=2.0, fps=10.0)
    assert s.frame_count == 20
    np.testing.assert_allclose(s.times(), np.arange(20) / 10.0)
    with pytest.raises(ValueError):
        MotionScript(duration=0.0, fps=10.0)


@pytest.mark.parametrize("duration, fps, message", [
    (float("nan"), 25.0, "duration must be a finite positive number, got nan"),
    (math.inf, 25.0, "duration must be a finite positive number, got inf"),
    (-60.0, 25.0, "duration must be a finite positive number, got -60.0"),
    (True, 25.0, "duration must be a finite positive number, got True"),
    (60.0, float("nan"), "fps must be a finite positive number, got nan"),
    (60.0, math.inf, "fps must be a finite positive number, got inf"),
    (60.0, 0.0, "fps must be a finite positive number, got 0.0"),
    (60.0, True, "fps must be a finite positive number, got True"),
])
def test_script_refuses_a_duration_or_fps_that_is_not_a_finite_positive_number(
        duration, fps, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        default_script(duration, fps)


@pytest.mark.parametrize("duration, fps", [(1e9, 1e9), (1e300, 1e300), (40000.1, 25.0)])
def test_script_refuses_more_frames_than_can_be_built(duration, fps):
    message = (re.escape(f"duration {duration} s at fps {fps} gives ")
               + rf"\S+ frames; at most {synth.MAX_SYNTH_FRAMES} can be built$")
    with pytest.raises(ValueError, match="^" + message):
        MotionScript(duration=duration, fps=fps)
    assert MotionScript(duration=40000.0, fps=25.0).frame_count == synth.MAX_SYNTH_FRAMES
    assert pipeline.MAX_SYNTH_FRAMES == synth.MAX_SYNTH_FRAMES


def test_generate_truth_rolls_out_params():
    skel = default_skeleton()
    script = small_script()
    poses, params = generate_truth(script, skel)
    assert poses.shape == (script.frame_count, skel.joint_count, 3)
    assert len(params) == script.frame_count
    i = 7
    np.testing.assert_array_equal(poses[i], forward_kinematics(skel, params[i]))
    # root follows tpose + offset
    t = script.times()[i]
    np.testing.assert_allclose(poses[i, 0], skel.tpose[0] + script.root_offset(t), atol=1e-12)


def test_generate_truth_preserves_bone_lengths():
    skel = default_skeleton()
    poses, _ = generate_truth(small_script(), skel)
    parents = np.array(DEFAULT_PARENTS)
    vec = poses[:, 1:] - poses[:, parents[1:]]
    lengths = np.linalg.norm(vec, axis=2)
    np.testing.assert_allclose(
        lengths, np.broadcast_to(skel.bone_lengths[1:], lengths.shape), rtol=1e-12
    )


def test_generate_truth_rejects_bad_track():
    skel = default_skeleton()
    script = MotionScript(
        duration=1.0, fps=5.0, tracks={0: JointTrack((0, 0, 1), (Sinusoid(0.1, 1.0),))}
    )
    with pytest.raises(ValueError):
        generate_truth(script, skel)


def test_project_sequence_matches_camera():
    skel = default_skeleton()
    cam = default_camera()
    poses, _ = generate_truth(small_script(), skel)
    px = project_sequence(poses, cam)
    assert px.shape == poses.shape[:2] + (2,)
    np.testing.assert_array_equal(px[3], cam.project(poses[3]))


def test_finite_acceleration_quadratic_is_exact():
    fps = 8.0
    t = np.arange(12) / fps
    pos = np.zeros((12, 2, 3))
    pos[:, 0, 0] = 3.0 * t * t  # second derivative 6
    pos[:, 1, 2] = 5.0 * t  # second derivative 0
    acc = finite_acceleration(pos, fps)
    np.testing.assert_allclose(acc[:, 0, 0], 6.0, atol=1e-9)
    np.testing.assert_allclose(acc[:, 1], 0.0, atol=1e-9)
    np.testing.assert_array_equal(acc[0], acc[1])
    np.testing.assert_array_equal(acc[-1], acc[-2])
    with pytest.raises(ValueError):
        finite_acceleration(pos[:2], fps)


def test_derive_imu_round_trips_through_calibration():
    skel = default_skeleton()
    calib = default_calibration(skel)
    script = small_script()
    poses, params = generate_truth(script, skel)
    stream = derive_imu(params, skel, calib, script.fps)
    assert stream.sensor_ids == tuple(c.sensor_id for c in calib.sensors)
    assert stream.frame_count == poses.shape[0]

    rots, accels, bones = calibrate_stream(calib, stream, skel)
    joints = calib.joint_indices(skel)
    acc_fd = finite_acceleration(poses, script.fps)
    parents = np.array(DEFAULT_PARENTS)
    for i in (0, 5, len(params) - 1):
        truth_globals = global_rotations(skel, params[i])
        for k, j in enumerate(joints):
            assert rot_distance(rots[i][k], truth_globals[j]) < 1e-12
        np.testing.assert_allclose(accels[i], acc_fd[i, joints], atol=1e-6)
        np.testing.assert_allclose(
            bones[i], poses[i, joints] - poses[i, parents[joints]], atol=1e-8
        )


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(sigma_px=-1.0)
    with pytest.raises(ValueError):
        NoiseSpec(occlusion=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(occlusion=np.array([0.5, -0.1]))
    NoiseSpec(sigma_depth=np.array([1.0, 2.0]), occlusion=0.3)


def test_corrupt_poses_zero_noise_is_passthrough(rng):
    skel = default_skeleton()
    poses, _ = generate_truth(small_script(), skel)
    out = corrupt_poses(poses, default_camera(), NoiseSpec(), rng)
    np.testing.assert_array_equal(out, poses)


def test_depth_noise_moves_along_rays(rng):
    skel = default_skeleton()
    cam = default_camera()
    poses, _ = generate_truth(small_script(), skel)
    out = corrupt_poses(poses, cam, NoiseSpec(sigma_depth=40.0), rng)
    delta = out - poses
    assert np.median(np.linalg.norm(delta, axis=2)) > 5.0
    rays = poses - cam.center
    rays /= np.linalg.norm(rays, axis=2, keepdims=True)
    cross = np.cross(delta, rays)
    np.testing.assert_allclose(cross, 0.0, atol=1e-9)
    # moving along the line of sight is invisible in 2D
    np.testing.assert_allclose(cam.project(out), cam.project(poses), atol=1e-9)


def test_transverse_noise_is_perpendicular_to_rays(rng):
    skel = default_skeleton()
    cam = default_camera()
    poses, _ = generate_truth(small_script(), skel)
    out = corrupt_poses(poses, cam, NoiseSpec(sigma_transverse=25.0), rng)
    delta = out - poses
    assert np.median(np.linalg.norm(delta, axis=2)) > 5.0
    rays = poses - cam.center
    rays /= np.linalg.norm(rays, axis=2, keepdims=True)
    np.testing.assert_allclose(np.sum(delta * rays, axis=2), 0.0, atol=1e-9)


def test_per_joint_depth_noise(rng):
    skel = default_skeleton()
    poses, _ = generate_truth(small_script(), skel)
    sigma = np.zeros(skel.joint_count)
    sigma[6] = 50.0
    out = corrupt_poses(poses, default_camera(), NoiseSpec(sigma_depth=sigma), rng)
    moved = np.linalg.norm(out - poses, axis=2)
    assert np.all(moved[:, [j for j in range(21) if j != 6]] == 0.0)
    assert np.mean(moved[:, 6]) > 10.0


def test_corrupt_pixels_occlusion(rng):
    px = rng.uniform(0, 100, (30, 4, 2))
    all_hidden = corrupt_pixels(px, NoiseSpec(occlusion=1.0), rng)
    assert np.all(np.isnan(all_hidden))
    none_hidden = corrupt_pixels(px, NoiseSpec(), rng)
    np.testing.assert_array_equal(none_hidden, px)
    per_joint = corrupt_pixels(
        px, NoiseSpec(occlusion=np.array([1.0, 0.0, 0.0, 0.0])), rng
    )
    assert np.all(np.isnan(per_joint[:, 0]))
    assert not np.any(np.isnan(per_joint[:, 1:]))


def test_corrupt_pixels_noise_spreads(rng):
    px = np.zeros((200, 3, 2))
    out = corrupt_pixels(px, NoiseSpec(sigma_px=2.0), rng)
    assert np.std(out) == pytest.approx(2.0, rel=0.1)
    assert not np.any(np.isnan(out))


def test_corrupt_imu_rotation_wobble(rng):
    skel = default_skeleton()
    calib = default_calibration(skel)
    script = small_script()
    _, params = generate_truth(script, skel)
    clean = derive_imu(params, skel, calib, script.fps)
    noisy = corrupt_imu(clean, NoiseSpec(sigma_rot=0.01), rng)
    np.testing.assert_array_equal(noisy.accels, clean.accels)
    angles = rot_angle_between(quat_normalize(clean.orientations), quat_normalize(noisy.orientations))
    assert 0.001 < np.mean(angles) < 0.1
    passthrough = corrupt_imu(clean, NoiseSpec(), rng)
    np.testing.assert_array_equal(passthrough.orientations, clean.orientations)


def test_default_rig_layout():
    skel = default_skeleton()
    assert skel.joint_count == 21
    assert skel.names == DEFAULT_JOINT_NAMES
    assert skel.parents == DEFAULT_PARENTS
    calib = default_calibration(skel)
    assert len(calib.sensors) == 8
    assert tuple(c.sensor_id for c in calib.sensors) == tuple(s for s, _ in DEFAULT_SENSOR_SITES)
    # seeded: two builds agree exactly
    again = default_calibration(skel)
    for a, b in zip(calib.sensors, again.sensors):
        assert rot_distance(a.r_global, b.r_global) == 0.0
    cam = default_camera()
    np.testing.assert_array_equal(cam.center, [0.0, 1200.0, 4000.0])
    assert (cam.fx, cam.fy, cam.cx, cam.cy) == (1150.0, 1150.0, 640.0, 360.0)
    script = default_script()
    assert script.frame_count == 1500
    assert 0 not in script.tracks and len(script.tracks) == 20


def test_make_dataset_deterministic_and_consistent():
    noise = NoiseSpec(sigma_xyz=5.0, sigma_px=1.0, sigma_rot=0.01, sigma_acc=20.0, occlusion=0.05)
    script = small_script()
    a = make_dataset(noise, seed=3, script=script)
    b = make_dataset(noise, seed=3, script=script)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.pixels, b.pixels)
    np.testing.assert_array_equal(a.imu.orientations, b.imu.orientations)
    np.testing.assert_array_equal(a.imu.accels, b.imu.accels)
    c = make_dataset(noise, seed=4, script=script)
    assert not np.array_equal(a.inputs, c.inputs)

    assert a.frame_count == script.frame_count
    assert a.truth.shape == a.inputs.shape
    assert a.pixels.shape == a.truth.shape[:2] + (2,)
    assert a.imu.frame_count == a.frame_count
    assert not np.array_equal(a.truth, a.inputs)
    # truth itself is untouched by the corruption stages
    clean = make_dataset(NoiseSpec(), seed=3, script=script)
    np.testing.assert_array_equal(clean.truth, a.truth)
    np.testing.assert_array_equal(clean.inputs, clean.truth)
