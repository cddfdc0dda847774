import numpy as np
import pytest

from vifuse import BehindCameraError, Camera, SensorCalibration, W_MIN, ZeroVectorError, look_at
from vifuse.rotmath import IDENTITY, quat_apply, quat_inverse, quat_normalize

from conftest import random_rotation


def identity_camera():
    return Camera(1.0, 1.0, 0.0, 0.0, IDENTITY, np.zeros(3))


def test_identity_projection():
    cam = identity_camera()
    np.testing.assert_allclose(cam.project([1.0, 0.0, 1.0]), [1.0, 0.0])
    np.testing.assert_allclose(cam.project([[2.0, 3.0, 2.0]]), [[1.0, 1.5]])


def test_matrix_layout():
    cam = Camera(2.0, 3.0, 10.0, 20.0, IDENTITY, [0.0, 0.0, -5.0])
    want = np.array(
        [[2.0, 0.0, 10.0, 50.0], [0.0, 3.0, 20.0, 100.0], [0.0, 0.0, 1.0, 5.0]]
    )
    np.testing.assert_allclose(cam.matrix, want, atol=1e-12)
    np.testing.assert_allclose(cam.project([0.0, 0.0, 0.0]), [10.0, 20.0])


def test_project_matches_matrix(rng):
    cam = Camera(800.0, 820.0, 320.0, 240.0, random_rotation(rng), rng.uniform(-100, 100, 3))
    pts = cam.center + quat_apply(
        quat_inverse(cam.rotation),
        np.c_[rng.uniform(-50, 50, (20, 2)), rng.uniform(10.0, 500.0, 20)]
    )
    px = cam.project(pts)
    h = np.c_[pts, np.ones(20)] @ cam.matrix.T
    np.testing.assert_allclose(px, h[:, :2] / h[:, 2:], atol=1e-9)


def test_behind_camera_raises():
    cam = identity_camera()
    with pytest.raises(BehindCameraError):
        cam.project([0.0, 0.0, 0.0])
    with pytest.raises(BehindCameraError):
        cam.project([0.0, 0.0, -50.0])
    with pytest.raises(BehindCameraError):
        cam.project([[0.0, 0.0, 100.0], [0.0, 0.0, W_MIN]])
    cam.project([0.0, 0.0, 2 * W_MIN])  # just in front is fine


def test_center_validation():
    with pytest.raises(ValueError):
        Camera(1.0, 1.0, 0.0, 0.0, IDENTITY, np.zeros((3, 1)))


STORED_QUATERNION = {
    "camera": lambda q: Camera(1.0, 1.0, 0.0, 0.0, q, np.zeros(3)).rotation,
    "r_global": lambda q: SensorCalibration("s0", "j1", q, IDENTITY).r_global,
    "r_joint": lambda q: SensorCalibration("s0", "j1", IDENTITY, q).r_joint,
}


@pytest.mark.parametrize("field", sorted(STORED_QUATERNION))
def test_rig_quaternion_checked_and_read_only(field):
    store = STORED_QUATERNION[field]
    q = quat_normalize([1.0, -2.0, 3.0, 0.5])
    for bad, fragment in (
        (q * (1.0 + 1e-8), "unit"),
        (np.full(4, np.nan), "unit"),
        (-q, "canonical"),
        (q[:3], "shape"),
        (q[None], "shape"),
    ):
        with pytest.raises(ValueError, match=fragment):
            store(bad)
    store(q * (1.0 + 1e-12))  # within the 1e-9 unit tolerance
    kept = store(q)
    assert np.shares_memory(kept, q) and np.array_equal(kept, q)
    assert not kept.flags.writeable
    assert q.flags.writeable  # the caller's array is not frozen


def test_look_at_centers_target():
    cam = look_at([0, 1200, 4000], [0, 1000, 0], 1150.0, 1150.0, 640.0, 360.0)
    np.testing.assert_allclose(cam.project([0.0, 1000.0, 0.0]), [640.0, 360.0], atol=1e-9)


def test_look_at_pixel_y_points_down():
    cam = look_at([0, 1200, 4000], [0, 1000, 0], 1150.0, 1150.0, 640.0, 360.0)
    above = cam.project([0.0, 1500.0, 0.0])
    below = cam.project([0.0, 500.0, 0.0])
    assert above[1] < 360.0 < below[1]


def test_look_at_depth_increases_away():
    center = np.array([0.0, 1200.0, 4000.0])
    target = np.array([0.0, 1000.0, 0.0])
    cam = look_at(center, target, 1150.0, 1150.0, 640.0, 360.0)
    h = np.append(target, 1.0) @ cam.matrix.T
    assert h[2] == pytest.approx(np.linalg.norm(target - center), rel=1e-12)


def test_look_at_degenerate_inputs():
    with pytest.raises(ZeroVectorError):
        look_at([0, 0, 0], [0, 0, 0], 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ZeroVectorError):
        look_at([0, 0, 0], [0, 5, 0], 1.0, 1.0, 0.0, 0.0)  # forward parallel to up
