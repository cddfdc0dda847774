import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

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

from vifuse import fileio
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


def _skeleton_with_name(name):
    skel = default_skeleton()
    names = list(skel.names)
    names[3] = name
    return SkeletonDefinition(tuple(names), skel.parents, skel.tpose)


def _calibration_with(**fields):
    sensors = default_calibration().sensors
    return CalibrationSet((replace(sensors[0], **fields),) + sensors[1:])


WRITES_A_READER_REFUSES = {
    "pose2d inf pixel": lambda p: write_pose2d(p, np.array([[[1.0, 2.0]], [[np.inf, 2.0]]])),
    "pose2d inf pair": lambda p: write_pose2d(p, np.array([[[1.0, 2.0]], [[np.inf, -np.inf]]])),
    "pose2d (T, J, 3) array": lambda p: write_pose2d(p, np.zeros((3, 5, 3))),
    "pose2d (T, 2J) array": lambda p: write_pose2d(p, np.zeros((3, 10))),
    "imu zero quaternion": lambda p: write_imu(p, _imu_stream([0.0, 0.0, 0.0, 0.0])),
    "imu nan quaternion": lambda p: write_imu(p, _imu_stream([np.nan, 0.0, 0.0, 0.0])),
    "imu inf acceleration": lambda p: write_imu(p, _imu_stream([1.0, 0.0, 0.0, 0.0], (0.0, np.inf, 0.0))),
    "imu duplicate sensor ids": lambda p: write_imu(p, ImuStream(
        ("a", "a"), np.tile([1.0, 0.0, 0.0, 0.0], (2, 2, 1)), np.zeros((2, 2, 3)))),
    "imu sensor id with line break": lambda p: write_imu(p, ImuStream(
        ("a\nb",), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1, 1)), np.zeros((2, 1, 3)))),
    "imu zero frames": lambda p: write_imu(p, ImuStream(("s0",), np.zeros((0, 1, 4)), np.zeros((0, 1, 3)))),
    "calibration nan gravity": lambda p: write_calibration(
        p, CalibrationSet(default_calibration().sensors, (0.0, np.nan, 0.0))),
    "camera zero fx": lambda p: write_camera(p, replace(default_camera(), fx=0.0)),
    "camera negative fy": lambda p: write_camera(p, replace(default_camera(), fy=-1150.0)),
    "camera nan cx": lambda p: write_camera(p, replace(default_camera(), cx=np.nan)),
    "camera inf center": lambda p: write_camera(p, replace(default_camera(), center=(0.0, np.inf, 0.0))),
    "skeleton nan coordinate": lambda p: write_skeleton(p, _skeleton_with_nan()),
    "skeleton joint name with line break": lambda p: write_skeleton(p, _skeleton_with_name("left\nknee")),
    "calibration sensor id with line break": lambda p: write_calibration(
        p, _calibration_with(sensor_id="s\r0")),
    "calibration joint with line break": lambda p: write_calibration(
        p, _calibration_with(joint="l_knee\n")),
}


@pytest.mark.parametrize("case", list(WRITES_A_READER_REFUSES))
def test_writer_refuses_what_its_reader_refuses(tmp_path, case):
    p = tmp_path / "out.txt"
    with pytest.raises(ValueError):
        WRITES_A_READER_REFUSES[case](p)
    assert not p.exists()


def _poses(frames, joints, dim, faults):
    """Finite values (frames, joints, dim) with values[t, j, d] = x for each (t, j, d, x) of faults."""
    values = np.arange(frames * joints * dim, dtype=float).reshape(frames, joints, dim) + 1.0
    for t, j, d, x in faults:
        values[t, j, d] = x
    return values


def _imu(frames, faults):
    """Two sensors at identity over `frames` frames; each fault (t, k, column, x)
    sets column 0-3 of the quaternion or 4-6 of the acceleration to x."""
    rows = np.tile([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], (frames, 2, 1))
    for t, k, c, x in faults:
        rows[t, k, c] = x
    return ImuStream(("s0", "s1"), rows[..., :4], rows[..., 4:])


# Each fault a stream's reader can name, as the first of the written values.
# A writer checks this many pose3d frames of 21 joints in two chunks.
TWO_CHUNKS = fileio._CHECK_VALUES // 63 + 2
WRITER_FAULTS = {
    "pose3d nan": ("pose3d", _poses(3, 2, 3, [(1, 1, 2, np.nan)]), "non-finite coordinate"),
    "pose3d inf": ("pose3d", _poses(3, 2, 3, [(0, 0, 0, -np.inf)]), "non-finite coordinate"),
    "pose3d second chunk": ("pose3d", _poses(TWO_CHUNKS, 21, 3, [(TWO_CHUNKS - 1, 20, 1, np.inf)]),
                            "non-finite coordinate"),
    "pose2d half nan u": ("pose2d", _poses(3, 5, 2, [(1, 3, 0, np.nan)]),
                          "joint 3: half-missing observation"),
    "pose2d half nan v": ("pose2d", _poses(3, 5, 2, [(2, 0, 1, np.nan)]),
                          "joint 0: half-missing observation"),
    "pose2d nan inf": ("pose2d", _poses(3, 5, 2, [(1, 2, 0, np.nan), (1, 2, 1, np.inf)]),
                       "joint 2: half-missing observation"),
    "pose2d inf u": ("pose2d", _poses(3, 5, 2, [(0, 4, 0, np.inf)]), "joint 4: non-finite pixel"),
    "pose2d inf v": ("pose2d", _poses(3, 5, 2, [(2, 1, 1, -np.inf)]), "joint 1: non-finite pixel"),
    "pose2d inf pair": ("pose2d", _poses(3, 5, 2, [(1, 1, 0, np.inf), (1, 1, 1, np.inf)]),
                        "joint 1: non-finite pixel"),
    "pose2d first joint of a line": ("pose2d", _poses(3, 5, 2, [(1, 4, 0, np.nan), (1, 2, 1, np.inf)]),
                                     "joint 2: non-finite pixel"),
    "pose2d first line": ("pose2d", _poses(3, 5, 2, [(2, 0, 0, np.inf), (1, 4, 1, np.nan)]),
                          "joint 4: half-missing observation"),
    "imu nan quaternion": ("imu", _imu(3, [(1, 0, 2, np.nan)]), "non-finite value"),
    "imu inf acceleration": ("imu", _imu(3, [(2, 1, 6, np.inf)]), "non-finite value"),
    "imu zero quaternion": ("imu", _imu(3, [(1, 1, 0, 0.0)]), "zero-norm quaternion"),
    "imu inf before zero-norm": ("imu", _imu(3, [(1, 1, 0, 0.0), (1, 1, 5, np.inf)]),
                                 "non-finite value"),
    "imu zero-norm line first": ("imu", _imu(3, [(1, 0, 0, 0.0), (2, 0, 4, np.nan)]),
                                 "zero-norm quaternion"),
}
WRITERS = {"pose3d": (write_pose3d, read_pose3d), "pose2d": (write_pose2d, read_pose2d),
           "imu": (write_imu, read_imu)}


@pytest.mark.parametrize("case", list(WRITER_FAULTS))
def test_writer_names_the_fault_its_reader_names_first(tmp_path, monkeypatch, case):
    schema, value, fault = WRITER_FAULTS[case]
    write, read = WRITERS[schema]
    p = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=rf"^{schema}: {fault}$"):
        write(p, value)
    assert not p.exists()
    # Written without the check, the file's reader names the same fault.
    monkeypatch.setattr(fileio, "_refuse_faults", lambda *args: None)
    write(p, value)
    with pytest.raises(FormatError, match=rf":\d+: {fault}$"):
        read(p)


def test_read_imu_refuses_a_sensor_id_that_is_not_utf8(tmp_path):
    p = tmp_path / "imu.txt"
    p.write_bytes(b"imu 1\n0 s\xff 1 0 0 0 0 0 0\n")
    with pytest.raises(FormatError, match="utf-8") as e:
        read_imu(p)
    assert e.value.path == str(p) and e.value.line_no == 2


@pytest.mark.parametrize("read, data, line_no", [
    (read_pose3d, b"pose3d 1\n0 1 2 3\n1 4 5 6\xb3\n", 3),
    (read_pose3d, b"pose3d 1\r\n0 1 2 3\r1 4 5 6\xb3\n", 3),  # lines end as str.splitlines ends them
    (read_skeleton, b"skeleton 1\njoints 2\njoint 0 root -1 0 0 0\njoint 1 t\xe9te 0 0 1 0\n", 4),
], ids=["pose3d", "pose3d carriage returns", "skeleton"])
def test_a_byte_that_is_not_utf8_is_named_at_its_line(tmp_path, read, data, line_no):
    p = tmp_path / "file.txt"
    p.write_bytes(data)
    with pytest.raises(FormatError) as e:
        read(p)
    assert e.value.line_no == line_no
    assert str(e.value).startswith(f"{p}:{line_no}: 'utf-8' codec can't decode byte ")


def test_read_imu_refuses_a_file_with_no_frames(tmp_path):
    p = tmp_path / "imu.txt"
    p.write_text("imu 1\n")
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert str(e.value) == f"{p}: no frames"


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


def test_files_are_utf8_under_an_ascii_locale(tmp_path, rng):
    # An imu.txt written here, with a non-ASCII sensor id, is read, written
    # again and read with a bad value by a process whose locale encoding is
    # ASCII: every file is UTF-8, whatever the locale.
    p, again, broken = (tmp_path / name for name in ("imu.txt", "again.txt", "broken.txt"))
    write_imu(p, imu_stream(rng, t_n=3, ids=("h\u00e4nd", "beta")))
    assert "h\u00e4nd".encode("utf-8") in p.read_bytes()
    lines = p.read_bytes().split(b"\n")
    assert lines[3].startswith("1 h\u00e4nd ".encode("utf-8"))
    lines[3] = b" ".join(lines[3].split(b" ")[:2] + [b"x"] + lines[3].split(b" ")[3:])
    broken.write_bytes(b"\n".join(lines))
    script = "\n".join([
        "import sys",
        "from vifuse import FormatError, read_imu, write_imu",
        "stream = read_imu(sys.argv[1])",
        "assert stream.sensor_ids == ('h\\u00e4nd', 'beta'), ascii(stream.sensor_ids)",
        "write_imu(sys.argv[2], stream)",
        "try:",
        "    read_imu(sys.argv[3])",
        "except FormatError as e:",
        "    print(ascii(str(e)))",
        "else:",
        "    sys.exit('read a bad value')",
    ])
    env = {**os.environ, "LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, p, again, broken], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert again.read_bytes() == p.read_bytes()
    assert f"{broken}:4: bad value 'x'" in proc.stdout


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


def traced_peaks(path, write, make):
    """The traced memory peak of write(path, make(frames)) at 1500 and 20000 frames."""
    peaks = {}
    for frames in (1500, 20000):
        value = make(frames)
        tracemalloc.start()
        try:
            write(path, value)
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_write_pose3d_memory_does_not_grow_with_the_frames(tmp_path, rng):
    # The numbers are formatted a fixed number of rows at a time and the
    # finiteness check allocates nothing per value, so the traced peak stays
    # within 64 KiB whether the file holds 1500 or 20000 frames.
    peaks = traced_peaks(tmp_path / "p.txt", write_pose3d,
                         lambda frames: rng.uniform(-3000, 3000, (frames, 21, 3)))
    assert peaks[20000] <= peaks[1500] + 64 * 1024, peaks


def test_write_imu_memory_does_not_grow_with_the_frames(tmp_path, rng):
    # As for pose3d; the zero-norm check also goes a bounded number of rows at
    # a time, so 8 sensors over 20000 frames peak within 64 KiB of 1500 frames.
    def stream(frames):
        return ImuStream(tuple(f"s{k}" for k in range(8)), rng.uniform(-1, 1, (frames, 8, 4)),
                         rng.uniform(-2e4, 2e4, (frames, 8, 3)))

    peaks = traced_peaks(tmp_path / "i.txt", write_imu, stream)
    assert peaks[20000] <= peaks[1500] + 64 * 1024, peaks
