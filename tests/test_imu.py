import math

import numpy as np
import pytest

from vifuse import (
    DEFAULT_GRAVITY,
    CalibrationSet,
    ImuSample,
    ImuStream,
    Rotation,
    SensorCalibration,
    UnboundJointError,
    calibrate_acceleration,
    calibrate_orientation,
    calibrate_stream,
    imu_bone_vector,
)

from conftest import random_rotation, rot_distance
from test_skeleton import chain_skeleton


def make_cal(rng, joint="j1", sensor_id="s0"):
    return SensorCalibration(sensor_id, joint, random_rotation(rng), random_rotation(rng))


def test_default_gravity_points_down():
    np.testing.assert_array_equal(DEFAULT_GRAVITY, [0.0, -9810.0, 0.0])


def test_calibrate_orientation_formula(rng):
    cal = make_cal(rng)
    raw = random_rotation(rng)
    got = calibrate_orientation(cal, ImuSample(raw, np.zeros(3)))
    want = cal.r_joint.inverse() @ cal.r_global @ raw
    assert rot_distance(got, want) < 1e-14


def test_calibrate_orientation_inverts_known_truth(rng):
    # synthesize the raw reading a sensor tracking joint rotation g would report
    cal = make_cal(rng)
    g = random_rotation(rng)
    raw = cal.r_global.inverse() @ cal.r_joint @ g
    got = calibrate_orientation(cal, ImuSample(raw, np.zeros(3)))
    assert rot_distance(got, g) < 1e-13


def test_stationary_sample_calibrates_to_zero(rng):
    cal = make_cal(rng)
    raw_rot = random_rotation(rng)
    # a resting accelerometer reads the reaction to gravity in its own frame
    reading = (cal.r_global @ raw_rot).inverse().apply(-np.asarray(DEFAULT_GRAVITY))
    a = calibrate_acceleration(cal, ImuSample(raw_rot, reading), DEFAULT_GRAVITY)
    np.testing.assert_allclose(a, np.zeros(3), atol=1e-9)


def test_free_fall_reads_zero_calibrates_to_gravity(rng):
    cal = make_cal(rng)
    a = calibrate_acceleration(
        cal, ImuSample(random_rotation(rng), np.zeros(3)), DEFAULT_GRAVITY
    )
    np.testing.assert_allclose(a, DEFAULT_GRAVITY, atol=1e-12)


def test_calibrate_acceleration_round_trip(rng):
    cal = make_cal(rng)
    raw_rot = random_rotation(rng)
    truth = rng.uniform(-5000, 5000, 3)
    reading = (cal.r_global @ raw_rot).inverse().apply(truth - DEFAULT_GRAVITY)
    got = calibrate_acceleration(cal, ImuSample(raw_rot, reading), DEFAULT_GRAVITY)
    np.testing.assert_allclose(got, truth, atol=1e-8)


def test_imu_bone_vector_keeps_length(rng):
    skel = chain_skeleton(3)
    cal = make_cal(rng)
    v = imu_bone_vector(cal, ImuSample(random_rotation(rng), np.zeros(3)), skel)
    assert np.linalg.norm(v) == pytest.approx(100.0, rel=1e-12)


def test_imu_bone_vector_rejects_root(rng):
    skel = chain_skeleton(3)
    cal = make_cal(rng, joint="j0")
    with pytest.raises(UnboundJointError):
        imu_bone_vector(cal, ImuSample(random_rotation(rng), np.zeros(3)), skel)


def test_calibration_set_validation(rng):
    a = make_cal(rng, joint="j1", sensor_id="s0")
    b = make_cal(rng, joint="j2", sensor_id="s0")
    with pytest.raises(ValueError):
        CalibrationSet((a, b))
    c = make_cal(rng, joint="j1", sensor_id="s1")
    with pytest.raises(ValueError):
        CalibrationSet((a, c))
    with pytest.raises(ValueError):
        CalibrationSet((a,), gravity=[0.0, -9810.0])


def test_joint_indices_and_lookup(rng):
    skel = chain_skeleton(4)
    cs = CalibrationSet(
        (make_cal(rng, joint="j2", sensor_id="s0"), make_cal(rng, joint="j1", sensor_id="s1"))
    )
    np.testing.assert_array_equal(cs.joint_indices(skel), [2, 1])
    np.testing.assert_array_equal(cs.joint_indices(skel, ("s1", "s0")), [1, 2])
    with pytest.raises(UnboundJointError, match="'s2'"):
        cs.joint_indices(skel, ("s0", "s2"))
    assert cs.sensor("s1").joint == "j1"
    with pytest.raises(KeyError):
        cs.sensor("missing")
    rooted = CalibrationSet((make_cal(rng, joint="j0", sensor_id="s0"),))
    with pytest.raises(UnboundJointError):
        rooted.joint_indices(skel)


def test_imu_stream_validation(rng):
    with pytest.raises(ValueError):
        ImuStream(("s0",), np.zeros((5, 2, 4)), np.zeros((5, 1, 3)))
    with pytest.raises(ValueError):
        ImuStream(("s0",), np.zeros((5, 1, 4)), np.zeros((4, 1, 3)))
    q = np.zeros((3, 1, 4))
    q[..., 0] = 1.0
    stream = ImuStream(("s0",), q, np.arange(9, dtype=float).reshape(3, 1, 3))
    assert stream.frame_count == 3
    s = stream.sample(2, 0)
    assert rot_distance(s.orientation, Rotation.identity()) == 0.0
    np.testing.assert_array_equal(s.acceleration, [6, 7, 8])


def test_calibrate_stream_orders_and_shapes(rng):
    skel = chain_skeleton(4)
    cal1 = make_cal(rng, joint="j1", sensor_id="a")
    cal2 = make_cal(rng, joint="j3", sensor_id="b")
    cs = CalibrationSet((cal1, cal2))
    t_n = 5
    quats = rng.standard_normal((t_n, 2, 4))
    accs = rng.uniform(-100, 100, (t_n, 2, 3))
    stream = ImuStream(("b", "a"), quats, accs)  # reversed relative to cs
    rots, accels, bones = calibrate_stream(cs, stream, skel)
    assert len(rots) == t_n and len(rots[0]) == 2
    assert accels.shape == (t_n, 2, 3) and bones.shape == (t_n, 2, 3)
    # column 0 follows the stream order, so it is sensor "b" on joint 3
    s = stream.sample(3, 0)
    want = calibrate_orientation(cal2, s)
    assert rot_distance(rots[3][0], want) < 1e-14
    np.testing.assert_allclose(bones[3][0], want.apply(skel.bones[3]), atol=1e-12)
    np.testing.assert_allclose(
        accels[3][0], calibrate_acceleration(cal2, s, cs.gravity), atol=1e-12
    )


def test_calibrate_stream_rejects_root_binding(rng):
    skel = chain_skeleton(3)
    cs = CalibrationSet((make_cal(rng, joint="j0", sensor_id="s0"),))
    q = np.zeros((2, 1, 4))
    q[..., 0] = 1.0
    stream = ImuStream(("s0",), q, np.zeros((2, 1, 3)))
    with pytest.raises(UnboundJointError):
        calibrate_stream(cs, stream, skel)
