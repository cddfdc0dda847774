from dataclasses import replace

import numpy as np
import pytest

from vifuse import (
    CalibrationSet,
    FormatError,
    ImuStream,
    SensorCalibration,
    SkeletonDefinition,
    default_calibration,
    default_camera,
    default_skeleton,
    read_calibration,
    read_camera,
    read_imu,
    read_pose2d,
    read_pose3d,
    read_skeleton,
    write_calibration,
    write_camera,
    write_imu,
    write_pose2d,
    write_pose3d,
    write_skeleton,
)

from vifuse.rotmath import IDENTITY

from conftest import rot_distance


def rewrite(path, mutate):
    lines = path.read_text().splitlines()
    mutate(lines)
    path.write_text("\n".join(lines) + "\n")


def test_pose3d_round_trip(tmp_path, rng):
    poses = rng.uniform(-2000, 2000, (7, 4, 3))
    p = tmp_path / "a.txt"
    write_pose3d(p, poses)
    back = read_pose3d(p)
    np.testing.assert_allclose(back, poses, rtol=1e-8)
    # 9 significant digits are stable under a write/read/write cycle
    p2 = tmp_path / "b.txt"
    write_pose3d(p2, back)
    assert p.read_bytes() == p2.read_bytes()
    assert read_pose3d(p2).tobytes() == back.tobytes()


def test_pose3d_write_validation(tmp_path):
    with pytest.raises(ValueError):
        write_pose3d(tmp_path / "x.txt", np.zeros((3, 2)))
    bad = np.zeros((2, 1, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        write_pose3d(tmp_path / "x.txt", bad)


def _imu_stream(q1, a1=(0.0, 0.0, 0.0)):
    """One sensor over two frames: identity at rest, then quaternion q1 and reading a1."""
    return ImuStream(("s0",), np.array([[[1.0, 0.0, 0.0, 0.0]], [q1]]), np.array([[[0.0, 0.0, 0.0]], [a1]]))


def _skeleton_with_nan():
    skel = default_skeleton()
    tpose = skel.tpose.copy()
    tpose[4, 1] = np.nan
    return SkeletonDefinition(skel.names, skel.parents, tpose)


WRITES_A_READER_REFUSES = {
    "pose2d inf pixel": lambda p: write_pose2d(p, np.array([[[1.0, 2.0]], [[np.inf, 2.0]]])),
    "pose2d inf pair": lambda p: write_pose2d(p, np.array([[[1.0, 2.0]], [[np.inf, -np.inf]]])),
    "imu zero quaternion": lambda p: write_imu(p, _imu_stream([0.0, 0.0, 0.0, 0.0])),
    "imu nan quaternion": lambda p: write_imu(p, _imu_stream([np.nan, 0.0, 0.0, 0.0])),
    "imu inf acceleration": lambda p: write_imu(p, _imu_stream([1.0, 0.0, 0.0, 0.0], (0.0, np.inf, 0.0))),
    "calibration nan gravity": lambda p: write_calibration(
        p, CalibrationSet(default_calibration().sensors, (0.0, np.nan, 0.0))),
    "camera zero fx": lambda p: write_camera(p, replace(default_camera(), fx=0.0)),
    "camera negative fy": lambda p: write_camera(p, replace(default_camera(), fy=-1150.0)),
    "camera nan cx": lambda p: write_camera(p, replace(default_camera(), cx=np.nan)),
    "camera inf center": lambda p: write_camera(p, replace(default_camera(), center=(0.0, np.inf, 0.0))),
    "skeleton nan coordinate": lambda p: write_skeleton(p, _skeleton_with_nan()),
}


@pytest.mark.parametrize("case", list(WRITES_A_READER_REFUSES))
def test_writer_refuses_what_its_reader_refuses(tmp_path, case):
    p = tmp_path / "out.txt"
    with pytest.raises(ValueError):
        WRITES_A_READER_REFUSES[case](p)
    assert not p.exists()


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda l: l.__setitem__(0, "pose 1"), "expected header"),
        (lambda l: l.__setitem__(0, "pose3d 2"), "version"),
        (lambda l: l.__setitem__(1, l[1].replace("0 ", "5 ", 1)), "out of order"),
        (lambda l: l.__setitem__(2, l[2] + " 1 2 3"), "fields"),
        (
            lambda l: l.__setitem__(2, "1 oops " + l[2].split(" ", 2)[2]),
            "bad coordinate",
        ),
        (lambda l: l.insert(1, ""), "blank"),
        (lambda l: l.__delitem__(slice(1, None)), "no frames"),
    ],
)
def test_pose3d_read_errors(tmp_path, rng, mutate, fragment):
    p = tmp_path / "a.txt"
    write_pose3d(p, rng.uniform(-10, 10, (3, 2, 3)))
    rewrite(p, mutate)
    with pytest.raises(FormatError) as e:
        read_pose3d(p)
    assert fragment in str(e.value)
    assert str(p) in str(e.value)


def test_format_error_carries_line_number(tmp_path, rng):
    p = tmp_path / "a.txt"
    write_pose3d(p, rng.uniform(-10, 10, (3, 2, 3)))
    rewrite(p, lambda l: l.__setitem__(2, "zzz " + l[2].split(" ", 1)[1]))
    with pytest.raises(FormatError) as e:
        read_pose3d(p)
    assert f"{p}:3:" in str(e.value)
    assert e.value.line_no == 3


def test_pose3d_missing_file(tmp_path):
    with pytest.raises(FormatError):
        read_pose3d(tmp_path / "absent.txt")


def test_pose2d_round_trip_with_occlusion(tmp_path, rng):
    px = rng.uniform(0, 1280, (5, 3, 2))
    px[2, 1] = np.nan
    px[4, 0] = np.nan
    p = tmp_path / "a.txt"
    write_pose2d(p, px)
    back = read_pose2d(p)
    assert np.isnan(back[2, 1]).all() and np.isnan(back[4, 0]).all()
    finite = np.isfinite(px)
    np.testing.assert_allclose(back[finite], px[finite], rtol=1e-8)


def test_pose2d_half_missing_rejected(tmp_path, rng):
    px = rng.uniform(0, 100, (2, 2, 2))
    px[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        write_pose2d(tmp_path / "a.txt", px)
    good = rng.uniform(0, 100, (2, 2, 2))
    p = tmp_path / "b.txt"
    write_pose2d(p, good)
    rewrite(p, lambda l: l.__setitem__(1, "0 nan 1 2 3"))
    with pytest.raises(FormatError) as e:
        read_pose2d(p)
    assert "half-missing" in str(e.value)


def test_pose2d_infinite_pixel_rejected(tmp_path, rng):
    p = tmp_path / "a.txt"
    write_pose2d(p, rng.uniform(0, 100, (2, 1, 2)))
    rewrite(p, lambda l: l.__setitem__(1, "0 inf 3"))
    with pytest.raises(FormatError) as e:
        read_pose2d(p)
    assert "non-finite" in str(e.value)


def imu_stream(rng, t_n=4, ids=("alpha", "beta")):
    q = rng.standard_normal((t_n, len(ids), 4))
    q /= np.linalg.norm(q, axis=2, keepdims=True)
    a = rng.uniform(-9000, 9000, (t_n, len(ids), 3))
    return ImuStream(ids, q, a)


def test_imu_round_trip(tmp_path, rng):
    stream = imu_stream(rng)
    p = tmp_path / "a.txt"
    write_imu(p, stream)
    back = read_imu(p)
    assert back.sensor_ids == stream.sensor_ids
    assert back.frame_count == stream.frame_count
    np.testing.assert_allclose(back.orientations, stream.orientations, rtol=1e-8, atol=1e-9)
    np.testing.assert_allclose(back.accels, stream.accels, rtol=1e-8)
    p2 = tmp_path / "b.txt"
    write_imu(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_imu_id_with_space_rejected(tmp_path, rng):
    with pytest.raises(ValueError):
        write_imu(tmp_path / "a.txt", imu_stream(rng, ids=("bad id",)))


def test_imu_layout_errors(tmp_path, rng):
    p = tmp_path / "a.txt"
    write_imu(p, imu_stream(rng, t_n=3))

    def swap_frame1(lines):
        lines[3], lines[4] = (
            lines[4].replace("beta", "beta", 1),
            lines[3],
        )

    rewrite(p, swap_frame1)
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert "out of order" in str(e.value)

    write_imu(p, imu_stream(rng, t_n=3))
    rewrite(p, lambda l: l.__setitem__(2, l[1].replace("alpha", "alpha", 1)))
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert "duplicate sensor" in str(e.value)

    write_imu(p, imu_stream(rng, t_n=3))
    rewrite(p, lambda l: l.__delitem__(6))  # drop one sensor from the last frame
    with pytest.raises(FormatError):
        read_imu(p)

    write_imu(p, imu_stream(rng, t_n=3))
    rewrite(p, lambda l: l.__setitem__(1, l[1] + " 9"))
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert "9 fields" in str(e.value)

    write_imu(p, imu_stream(rng, t_n=3))
    rewrite(p, lambda l: l.__setitem__(5, "9" + l[5][1:]))
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert "out of order" in str(e.value)


def test_skeleton_round_trip(tmp_path):
    skel = default_skeleton()
    p = tmp_path / "a.txt"
    write_skeleton(p, skel)
    back = read_skeleton(p)
    assert back.names == skel.names
    assert back.parents == skel.parents
    np.testing.assert_allclose(back.tpose, skel.tpose, rtol=1e-8)
    p2 = tmp_path / "b.txt"
    write_skeleton(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_skeleton_errors(tmp_path):
    skel = default_skeleton()
    p = tmp_path / "a.txt"
    write_skeleton(p, skel)
    rewrite(p, lambda l: l.__setitem__(1, "joints 25"))
    with pytest.raises(FormatError):
        read_skeleton(p)

    write_skeleton(p, skel)
    rewrite(p, lambda l: l.__setitem__(3, l[3].replace("joint 1 ", "joint 7 ", 1)))
    with pytest.raises(FormatError) as e:
        read_skeleton(p)
    assert "out of order" in str(e.value)

    write_skeleton(p, skel)
    rewrite(p, lambda l: l.append("stray"))
    with pytest.raises(FormatError) as e:
        read_skeleton(p)
    assert "trailing" in str(e.value)


def test_calibration_round_trip(tmp_path):
    calib = default_calibration()
    p = tmp_path / "a.txt"
    write_calibration(p, calib)
    back = read_calibration(p)
    np.testing.assert_allclose(back.gravity, calib.gravity, rtol=1e-8)
    assert back.sensor_ids == calib.sensor_ids
    for a, b in zip(calib.sensors, back.sensors):
        assert a.joint == b.joint
        assert rot_distance(a.r_global, b.r_global) < 5e-9
        assert rot_distance(a.r_joint, b.r_joint) < 5e-9
    p2 = tmp_path / "b.txt"
    write_calibration(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_calibration_errors(tmp_path):
    calib = default_calibration()
    p = tmp_path / "a.txt"
    write_calibration(p, calib)
    rewrite(p, lambda l: l.__delitem__(slice(2, None)))
    with pytest.raises(FormatError) as e:
        read_calibration(p)
    assert "no sensors" in str(e.value)

    write_calibration(p, calib)
    rewrite(p, lambda l: l.__setitem__(1, "gravity 0 -9810"))
    with pytest.raises(FormatError):
        read_calibration(p)

    bad = CalibrationSet(
        (
            SensorCalibration(
                "s 0", "l_knee", IDENTITY, IDENTITY
            ),
        )
    )
    with pytest.raises(ValueError):
        write_calibration(tmp_path / "b.txt", bad)


def test_camera_round_trip(tmp_path):
    cam = default_camera()
    p = tmp_path / "a.txt"
    write_camera(p, cam)
    back = read_camera(p)
    assert (back.fx, back.fy, back.cx, back.cy) == (cam.fx, cam.fy, cam.cx, cam.cy)
    np.testing.assert_allclose(back.center, cam.center, rtol=1e-8)
    assert rot_distance(back.rotation, cam.rotation) < 5e-9
    p2 = tmp_path / "b.txt"
    write_camera(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_camera_errors(tmp_path):
    cam = default_camera()
    p = tmp_path / "a.txt"
    write_camera(p, cam)
    rewrite(p, lambda l: l.__setitem__(2, "fz 1150"))
    with pytest.raises(FormatError) as e:
        read_camera(p)
    assert "'fy'" in str(e.value)

    write_camera(p, cam)
    rewrite(p, lambda l: l.append("extra 1"))
    with pytest.raises(FormatError) as e:
        read_camera(p)
    assert "trailing" in str(e.value)


def test_undecodable_file_is_a_format_error(tmp_path):
    p = tmp_path / "a.txt"
    p.write_bytes(b"pose3d 1\n0 \xff\xfe 1 2\n")
    with pytest.raises(FormatError) as e:
        read_pose3d(p)
    assert str(p) in str(e.value) and "decode" in str(e.value)
