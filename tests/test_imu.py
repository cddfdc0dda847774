import math

import numpy as np
import pytest

from vifuse import (
    DEFAULT_GRAVITY,
    CalibrationSet,
    ImuStream,
    SensorCalibration,
    UnboundJointError,
    calibrate_stream,
)
from vifuse.rotmath import IDENTITY, quat_apply, quat_inverse, quat_mul, quat_normalize

from conftest import random_rotation, rot_distance
from test_skeleton import chain_skeleton


def make_cal(rng, joint="j1", sensor_id="s0"):
    return SensorCalibration(sensor_id, joint, random_rotation(rng), random_rotation(rng))


def test_default_gravity_points_down():
    np.testing.assert_array_equal(DEFAULT_GRAVITY, [0.0, -9810.0, 0.0])


def calibrate_one(cal, raw, reading, skel=None):
    """calibrate_stream over a one-frame, one-sensor stream: that sample's
    (rotation, acceleration, bone vector)."""
    stream = ImuStream((cal.sensor_id,), np.reshape(raw, (1, 1, 4)), np.reshape(reading, (1, 1, 3)))
    rots, accels, bones = calibrate_stream(CalibrationSet((cal,)), stream, skel or chain_skeleton(3))
    return rots[0, 0], accels[0, 0], bones[0, 0]


def test_calibrate_orientation_formula(rng):
    cal = make_cal(rng)
    raw = random_rotation(rng)
    got, _, _ = calibrate_one(cal, raw, np.zeros(3))
    want = quat_mul(quat_mul(quat_inverse(cal.r_joint), cal.r_global), raw)
    assert rot_distance(got, want) < 1e-14


def test_calibrate_orientation_inverts_known_truth(rng):
    # synthesize the raw reading a sensor tracking joint rotation g would report
    cal = make_cal(rng)
    g = random_rotation(rng)
    raw = quat_mul(quat_mul(quat_inverse(cal.r_global), cal.r_joint), g)
    got, _, _ = calibrate_one(cal, raw, np.zeros(3))
    assert rot_distance(got, g) < 1e-13


def test_stationary_sample_calibrates_to_zero(rng):
    cal = make_cal(rng)
    raw_rot = random_rotation(rng)
    # a resting accelerometer reads the reaction to gravity in its own frame
    reading = quat_apply(quat_inverse(quat_mul(cal.r_global, raw_rot)), -np.asarray(DEFAULT_GRAVITY))
    _, a, _ = calibrate_one(cal, raw_rot, reading)
    np.testing.assert_allclose(a, np.zeros(3), atol=1e-9)


def test_free_fall_reads_zero_calibrates_to_gravity(rng):
    cal = make_cal(rng)
    _, a, _ = calibrate_one(cal, random_rotation(rng), np.zeros(3))
    np.testing.assert_allclose(a, DEFAULT_GRAVITY, atol=1e-12)


def test_calibrate_acceleration_round_trip(rng):
    cal = make_cal(rng)
    raw_rot = random_rotation(rng)
    truth = rng.uniform(-5000, 5000, 3)
    reading = quat_apply(quat_inverse(quat_mul(cal.r_global, raw_rot)), truth - DEFAULT_GRAVITY)
    _, got, _ = calibrate_one(cal, raw_rot, reading)
    np.testing.assert_allclose(got, truth, atol=1e-8)


def test_imu_bone_vector_keeps_length(rng):
    skel = chain_skeleton(3)
    cal = make_cal(rng)
    _, _, v = calibrate_one(cal, random_rotation(rng), np.zeros(3), skel)
    assert np.linalg.norm(v) == pytest.approx(100.0, rel=1e-12)


def test_imu_bone_vector_rejects_root(rng):
    skel = chain_skeleton(3)
    cal = make_cal(rng, joint="j0")
    with pytest.raises(UnboundJointError):
        calibrate_one(cal, random_rotation(rng), np.zeros(3), skel)


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


@pytest.mark.parametrize("gravity", [(0.0, np.nan, 0.0), (0.0, -np.inf, 0.0)])
def test_calibration_set_refuses_a_non_finite_gravity(rng, gravity):
    # A NaN component would make every calibrated acceleration NaN.
    with pytest.raises(ValueError, match=r"^gravity must be finite, got \[0\.0, (nan|-inf), 0\.0\]$"):
        CalibrationSet((make_cal(rng),), gravity=gravity)


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
    # as CalibrationSet does, so no stream binds one joint to two sensors
    with pytest.raises(ValueError, match=r"^duplicate sensor ids in \('s0', 's1', 's0'\)$"):
        ImuStream(("s0", "s1", "s0"), np.zeros((5, 3, 4)), np.zeros((5, 3, 3)))
    q = np.zeros((3, 1, 4))
    q[..., 0] = 1.0
    stream = ImuStream(("s0",), q, np.arange(9, dtype=float).reshape(3, 1, 3))
    assert stream.frame_count == 3
    assert rot_distance(stream.orientations[2, 0], IDENTITY) == 0.0
    np.testing.assert_array_equal(stream.accels[2, 0], [6, 7, 8])


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
    assert rots.shape == (t_n, 2, 4)
    assert accels.shape == (t_n, 2, 3) and bones.shape == (t_n, 2, 3)
    # column 0 follows the stream order, so it is sensor "b" on joint 3
    raw = quat_normalize(quats[3, 0])
    want = quat_mul(quat_mul(quat_inverse(cal2.r_joint), cal2.r_global), raw)
    assert rot_distance(rots[3][0], want) < 1e-14
    np.testing.assert_allclose(bones[3][0], quat_apply(want, skel.bones[3]), atol=1e-12)
    np.testing.assert_allclose(
        accels[3][0], quat_apply(cal2.r_global, quat_apply(raw, accs[3, 0])) + cs.gravity, atol=1e-12
    )


def test_calibrate_stream_rejects_root_binding(rng):
    skel = chain_skeleton(3)
    cs = CalibrationSet((make_cal(rng, joint="j0", sensor_id="s0"),))
    q = np.zeros((2, 1, 4))
    q[..., 0] = 1.0
    stream = ImuStream(("s0",), q, np.zeros((2, 1, 3)))
    with pytest.raises(UnboundJointError):
        calibrate_stream(cs, stream, skel)
