"""Line-oriented text formats for pose, observation, and rig files.

Every file starts with a header line `<schema> <version>`; records are
single-space-separated fields, one record per line. Floats are written with 9
significant digits, which round-trips exactly through the parser, so writing
is idempotent and reruns are byte-identical. Parse errors carry the file path
and 1-based line number; a schema or version mismatch is fatal. A writer
raises ValueError, before it opens the file, on a value its reader refuses: a
non-finite number (other than a `nan nan` pixel pair), a zero-norm quaternion
or a focal length at or below zero.

Fields: an integer is plain decimal (`str(int(token)) == token`); a number is
any spelling float() accepts that uses only ASCII digits, `+ - . e E` and the
letters of nan/inf/infinity (no underscores, no whitespace).

Schemas:
  pose3d 1      frame_idx then J x/y/z triples (mm)
  pose2d 1      frame_idx then J u/v pairs (px); occluded joints are `nan nan`
  imu 1         frame_idx sensor_id qw qx qy qz ax ay az (one sensor per line)
  skeleton 1    key-value document (joint tree + T-pose)
  calibration 1 key-value document (gravity + per-sensor mounting rotations)
  camera 1      key-value document (intrinsics + extrinsics)
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NoReturn

import numpy as np

from .camera import Camera
from .imu import CalibrationSet, ImuStream, SensorCalibration
from .rotmath import ZERO_EPS, quat_normalize
from .skeleton import SkeletonDefinition, TopologyError


class FormatError(ValueError):
    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


# A number field uses only these characters. On them float() and np.loadtxt
# read the same numbers; loadtxt also strips whitespace (\x1f too), and float()
# also takes underscores and non-ASCII digits.
_NUMBER_CHARS = "0123456789+-.eEnNaAiIfFtTyY"
_NUMBER_BYTES = (_NUMBER_CHARS + " \n").encode()


def _fmt(x: float) -> str:
    return "%.9g" % x


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


class _Reader:
    def __init__(self, path):
        self.path = Path(path)
        try:
            text = self.path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise FormatError(path, None, str(e)) from None
        self.lines = text.splitlines()
        self.pos = 0

    def fail(self, line_no, message) -> NoReturn:
        raise FormatError(self.path, line_no, message)

    @property
    def remaining(self) -> int:
        return len(self.lines) - self.pos

    def next_tokens(self, what: str) -> tuple[int, list[str]]:
        while self.pos < len(self.lines):
            line_no = self.pos + 1
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip() == "":
                self.fail(line_no, f"blank line where {what} expected")
            return line_no, line.split(" ")
        self.fail(len(self.lines) + 1, f"unexpected end of file, expected {what}")

    def expect_header(self, schema: str) -> None:
        line_no, tokens = self.next_tokens("header")
        if len(tokens) != 2 or tokens[0] != schema:
            self.fail(line_no, f"expected header '{schema} <version>'")
        if tokens[1] != "1":
            self.fail(line_no, f"unsupported {schema} version {tokens[1]}")

    def expect_end(self) -> None:
        if self.pos < len(self.lines):
            trailing = self.lines[self.pos:]
            if any(t.strip() for t in trailing):
                self.fail(self.pos + 1, "unexpected trailing content")

    def parse_int(self, line_no, token, what) -> int:
        try:
            value = int(token)
        except ValueError:
            value = None
        if value is None or str(value) != token:
            self.fail(line_no, f"bad {what} '{token}'")
        return value

    def parse_float(self, line_no, token, what) -> float:
        if not token.strip(_NUMBER_CHARS):  # every character is a number character
            try:
                return float(token)
            except ValueError:
                pass
        self.fail(line_no, f"bad {what} '{token}'")


def _write_text(path, lines) -> None:
    # Line by line, so that no copy of the whole file is held in memory.
    with open(path, "w") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def _zero_norm(q: np.ndarray) -> np.ndarray:
    """Whether each quaternion (..., 4) has norm at or below ZERO_EPS."""
    with np.errstate(over="ignore"):  # a huge component has a huge norm
        return np.sqrt(q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1]
                       + q[..., 2] * q[..., 2] + q[..., 3] * q[..., 3]) <= ZERO_EPS


def _check_quaternions(r: _Reader, line_no: int, q: np.ndarray) -> None:
    if not np.isfinite(q).all():
        r.fail(line_no, "non-finite quaternion component")
    if _zero_norm(q).any():
        r.fail(line_no, "zero-norm quaternion")


# -- stream records ----------------------------------------------------------
#
# A stream file is a header and one record per line: a fixed prefix (the frame
# index, and for imu the sensor id) and then numbers. A valid file is parsed by
# a few whole-file operations in `_records`. Any fault sends the reader to
# `_first_bad_record`, which walks the lines in order to name the first bad one.
#
# `faults(rows)` gives, for value rows (n, F), a mask (n, C) of the C value
# checks in the order a line applies them, and a function naming check c.


def _records(r: _Reader, prefixes: list[str], width: int, faults) -> np.ndarray | None:
    """The (n, width) numbers that follow each record's prefix, or None.

    Record i must be `prefixes[i]` followed by `width` numbers separated by
    single spaces, with no fault. None means some record breaks that.
    """
    lines = r.lines[r.pos:]
    if len(lines) != len(prefixes) or not all(map(str.startswith, lines, prefixes)):
        return None
    fields = [line[len(p):] for line, p in zip(lines, prefixes)]
    if not all(fields) or "\n".join(fields).encode().translate(None, _NUMBER_BYTES):
        return None
    try:
        values = np.loadtxt(fields, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(lines), width) or faults(values)[0].any():
        return None
    return values


def _first_bad_record(r: _Reader, what: str, check) -> NoReturn:
    """Raise the error of the first record `check(i, line_no, tokens)` rejects.

    Only runs once `_records` has refused the file, so it may go line by line.
    """
    for i in range(r.remaining):
        check(i, *r.next_tokens(what))
    r.fail(None, f"malformed {what}s")  # not reached: a refused file has a bad record


def _check_values(r: _Reader, line_no: int, tokens: list[str], what: str, faults) -> None:
    row = np.array([[r.parse_float(line_no, tok, what) for tok in tokens]])
    mask, name = faults(row)
    if mask.any():
        r.fail(line_no, name(int(np.argmax(mask[0]))))


# -- pose3d / pose2d ---------------------------------------------------------

def _coordinate_faults(rows):
    return ~np.isfinite(rows).all(axis=1, keepdims=True), lambda c: "non-finite coordinate"


def _pixel_faults(rows):
    u, v = rows[:, 0::2], rows[:, 1::2]
    nan_u = np.isnan(u)
    half = nan_u != np.isnan(v)
    bad = ~(nan_u | np.isfinite(u) & np.isfinite(v))
    mask = np.stack([half, bad], axis=2).reshape(len(rows), -1)
    kinds = ("half-missing observation", "non-finite pixel")
    return mask, lambda c: f"joint {c // 2}: {kinds[c % 2]}"


def _write_pose(path, schema: str, values: np.ndarray) -> None:
    flat = values.reshape(len(values), -1)
    fmt = "%d" + " %.9g" * flat.shape[1]
    rows = (fmt % (t, *row.tolist()) for t, row in enumerate(flat))
    _write_text(path, itertools.chain([f"{schema} 1"], rows))


def _read_pose(path, schema: str, dim: int, what: str, faults) -> np.ndarray:
    r = _Reader(path)
    r.expect_header(schema)
    n = r.remaining
    if n == 0:
        r.fail(None, "no frames")
    width = r.lines[r.pos].count(" ")
    values = None
    if width >= dim and width % dim == 0:
        values = _records(r, [f"{t} " for t in range(n)], width, faults)
    if values is None:
        def check(t, line_no, tokens):
            idx = r.parse_int(line_no, tokens[0], "frame index")
            if idx != t:
                r.fail(line_no, f"frame index {idx} out of order, expected {t}")
            if t == 0 and ((len(tokens) - 1) % dim != 0 or len(tokens) < 1 + dim):
                r.fail(line_no, f"expected 1 + {dim}*J fields, got {len(tokens)}")
            if t > 0 and len(tokens) != 1 + width:
                r.fail(line_no, f"expected {1 + width} fields, got {len(tokens)}")
            _check_values(r, line_no, tokens[1:], what, faults)

        _first_bad_record(r, "pose record", check)
    return values.reshape(n, width // dim, dim)


def write_pose3d(path, poses: np.ndarray) -> None:
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3 or poses.shape[2] != 3:
        raise ValueError(f"expected (T, J, 3), got {poses.shape}")
    if not np.all(np.isfinite(poses)):
        raise ValueError("pose3d values must be finite")
    _write_pose(path, "pose3d", poses)


def read_pose3d(path) -> np.ndarray:
    return _read_pose(path, "pose3d", 3, "coordinate", _coordinate_faults)


def write_pose2d(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 3 or pixels.shape[2] != 2:
        raise ValueError(f"expected (T, J, 2), got {pixels.shape}")
    if (np.isnan(pixels[..., 0]) != np.isnan(pixels[..., 1])).any():
        raise ValueError("occlusion must blank both pixel components")
    if np.isinf(pixels).any():
        raise ValueError("pose2d pixels must be finite or `nan nan`")
    _write_pose(path, "pose2d", pixels)


def read_pose2d(path) -> np.ndarray:
    return _read_pose(path, "pose2d", 2, "pixel", _pixel_faults)


# -- imu ---------------------------------------------------------------------

def _imu_faults(rows):
    mask = np.stack([~np.isfinite(rows).all(axis=1), _zero_norm(rows[:, :4])], axis=1)
    return mask, lambda c: ("non-finite value", "zero-norm quaternion")[c]


def write_imu(path, stream: ImuStream) -> None:
    for sid in stream.sensor_ids:
        if " " in sid or sid == "":
            raise ValueError(f"sensor id {sid!r} not serializable")
    if not (np.isfinite(stream.orientations).all() and np.isfinite(stream.accels).all()):
        raise ValueError("imu values must be finite")
    if _zero_norm(stream.orientations).any():
        raise ValueError("imu quaternions must have nonzero norm")
    fmt = "%d %s" + " %.9g" * 7

    def lines():
        yield "imu 1"
        for t in range(stream.frame_count):
            quats, accels = stream.orientations[t].tolist(), stream.accels[t].tolist()
            for sid, q, a in zip(stream.sensor_ids, quats, accels):
                yield fmt % (t, sid, *q, *a)

    _write_text(path, lines())


def read_imu(path) -> ImuStream:
    r = _Reader(path)
    r.expect_header("imu")
    lines = r.lines[r.pos:]
    if not lines:
        r.fail(None, "no frames")
    k = 0
    while k < len(lines) and lines[k].startswith("0 "):
        k += 1
    sensor_ids = [line.split(" ", 2)[1] for line in lines[:k]]
    values = None
    if k and len(set(sensor_ids)) == k and len(lines) % k == 0:
        prefixes = [f"{t} {sid} " for t in range(len(lines) // k) for sid in sensor_ids]
        values = _records(r, prefixes, 7, _imu_faults)
    if values is None:
        layout: list[str] = []
        counts: list[int] = []  # sensors seen per frame

        def check(i, line_no, tokens):
            if len(tokens) != 9:
                r.fail(line_no, f"expected 9 fields, got {len(tokens)}")
            idx = r.parse_int(line_no, tokens[0], "frame index")
            sid = tokens[1]
            _check_values(r, line_no, tokens[2:], "value", _imu_faults)
            if idx == len(counts):
                counts.append(0)
            elif idx != len(counts) - 1 or idx < 0:
                r.fail(line_no, f"frame index {idx} out of order")
            if idx == 0:
                if sid in layout:
                    r.fail(line_no, f"duplicate sensor {sid} in frame 0")
                layout.append(sid)
            elif counts[idx] >= len(layout) or layout[counts[idx]] != sid:
                r.fail(line_no, f"sensor {sid} out of order (expected layout of frame 0)")
            counts[idx] += 1
            if i == len(lines) - 1:
                for t, count in enumerate(counts):
                    if count != len(layout):
                        r.fail(None, f"frame {t} has {count} sensors, expected {len(layout)}")

        _first_bad_record(r, "imu record", check)
    values = values.reshape(-1, k, 7)
    return ImuStream(
        tuple(sensor_ids), np.ascontiguousarray(values[..., :4]), np.ascontiguousarray(values[..., 4:])
    )


# -- skeleton ----------------------------------------------------------------

def write_skeleton(path, skel: SkeletonDefinition) -> None:
    if not np.isfinite(skel.tpose).all():
        raise ValueError("T-pose coordinates must be finite")
    lines = ["skeleton 1", f"joints {skel.joint_count}"]
    for j, name in enumerate(skel.names):
        if " " in name or name == "":
            raise ValueError(f"joint name {name!r} not serializable")
        tp = skel.tpose[j]
        lines.append(f"joint {j} {name} {skel.parents[j]} {_fmt_row(tp)}")
    _write_text(path, lines)


def read_skeleton(path) -> SkeletonDefinition:
    r = _Reader(path)
    r.expect_header("skeleton")
    line_no, tokens = r.next_tokens("joint count")
    if len(tokens) != 2 or tokens[0] != "joints":
        r.fail(line_no, "expected 'joints <count>'")
    count = r.parse_int(line_no, tokens[1], "joint count")
    if count < 1:
        r.fail(line_no, "joint count must be >= 1")
    names, parents, tpose = [], [], []
    for j in range(count):
        line_no, tokens = r.next_tokens("joint record")
        if len(tokens) != 7 or tokens[0] != "joint":
            r.fail(line_no, "expected 'joint <idx> <name> <parent> <tx> <ty> <tz>'")
        idx = r.parse_int(line_no, tokens[1], "joint index")
        if idx != j:
            r.fail(line_no, f"joint index {idx} out of order, expected {j}")
        names.append(tokens[2])
        parents.append(r.parse_int(line_no, tokens[3], "parent index"))
        tpose.append([r.parse_float(line_no, tok, "coordinate") for tok in tokens[4:]])
        if not all(map(math.isfinite, tpose[-1])):
            r.fail(line_no, "non-finite coordinate")
    r.expect_end()
    try:
        return SkeletonDefinition(tuple(names), tuple(parents), tuple(tuple(p) for p in tpose))
    except TopologyError as e:
        r.fail(None, str(e))


# -- calibration -------------------------------------------------------------

def write_calibration(path, calib: CalibrationSet) -> None:
    if not np.isfinite(calib.gravity).all():
        raise ValueError("gravity must be finite")
    lines = ["calibration 1", "gravity " + _fmt_row(calib.gravity)]
    for cal in calib.sensors:
        for token in (cal.sensor_id, cal.joint):
            if " " in token or token == "":
                raise ValueError(f"token {token!r} not serializable")
        lines.append(
            f"sensor {cal.sensor_id} {cal.joint} "
            + _fmt_row(cal.r_global) + " " + _fmt_row(cal.r_joint)
        )
    _write_text(path, lines)


def read_calibration(path) -> CalibrationSet:
    r = _Reader(path)
    r.expect_header("calibration")
    line_no, tokens = r.next_tokens("gravity")
    if len(tokens) != 4 or tokens[0] != "gravity":
        r.fail(line_no, "expected 'gravity <gx> <gy> <gz>'")
    gravity = tuple(r.parse_float(line_no, tok, "gravity component") for tok in tokens[1:])
    if not all(map(math.isfinite, gravity)):
        r.fail(line_no, "non-finite gravity component")
    sensors = []
    while r.remaining:
        line_no, tokens = r.next_tokens("sensor record")
        if len(tokens) != 11 or tokens[0] != "sensor":
            r.fail(line_no, "expected 'sensor <id> <joint> <r_global quat> <r_joint quat>'")
        vals = np.array([r.parse_float(line_no, tok, "quaternion component") for tok in tokens[3:]])
        _check_quaternions(r, line_no, vals.reshape(2, 4))
        sensors.append(
            SensorCalibration(
                sensor_id=tokens[1],
                joint=tokens[2],
                r_global=quat_normalize(vals[:4]),
                r_joint=quat_normalize(vals[4:]),
            )
        )
    if not sensors:
        r.fail(None, "no sensors")
    return CalibrationSet(tuple(sensors), gravity)


# -- camera ------------------------------------------------------------------

def write_camera(path, cam: Camera) -> None:
    if not np.isfinite([cam.fx, cam.fy, cam.cx, cam.cy, *cam.center]).all():
        raise ValueError("camera values must be finite")
    if not (cam.fx > 0 and cam.fy > 0):
        raise ValueError("fx and fy must be positive")
    lines = [
        "camera 1",
        f"fx {_fmt(cam.fx)}",
        f"fy {_fmt(cam.fy)}",
        f"cx {_fmt(cam.cx)}",
        f"cy {_fmt(cam.cy)}",
        "rotation " + _fmt_row(cam.rotation),
        "center " + _fmt_row(cam.center),
    ]
    _write_text(path, lines)


def read_camera(path) -> Camera:
    r = _Reader(path)
    r.expect_header("camera")
    fields: dict[str, list[float]] = {}
    order = ("fx", "fy", "cx", "cy", "rotation", "center")
    widths = {"fx": 1, "fy": 1, "cx": 1, "cy": 1, "rotation": 4, "center": 3}
    for key in order:
        line_no, tokens = r.next_tokens(f"'{key}'")
        if tokens[0] != key or len(tokens) != 1 + widths[key]:
            r.fail(line_no, f"expected '{key}' with {widths[key]} value(s)")
        fields[key] = vals = [r.parse_float(line_no, tok, key) for tok in tokens[1:]]
        if key == "rotation":
            _check_quaternions(r, line_no, np.array([vals]))
        elif not all(map(math.isfinite, vals)):
            r.fail(line_no, f"non-finite {key}")
        elif key in ("fx", "fy") and vals[0] <= 0:
            r.fail(line_no, f"{key} must be positive")
    r.expect_end()
    return Camera(
        fx=fields["fx"][0],
        fy=fields["fy"][0],
        cx=fields["cx"][0],
        cy=fields["cy"][0],
        rotation=quat_normalize(fields["rotation"]),
        center=tuple(fields["center"]),
    )
