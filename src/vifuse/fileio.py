"""Line-oriented text formats for pose, observation, and rig files.

Every file starts with a header line `<schema> <version>`; records are
single-space-separated fields, one record per line. Floats are written with 9
significant digits, which round-trips exactly through the parser, so writing
is idempotent and reruns are byte-identical. Parse errors carry the file path
and 1-based line number; a schema or version mismatch is fatal.

Schemas:
  pose3d 1      frame_idx then J x/y/z triples (mm)
  pose2d 1      frame_idx then J u/v pairs (px); occluded joints are `nan nan`
  imu 1         frame_idx sensor_id qw qx qy qz ax ay az (one sensor per line)
  skeleton 1    key-value document (joint tree + T-pose)
  calibration 1 key-value document (gravity + per-sensor mounting rotations)
  camera 1      key-value document (intrinsics + extrinsics)
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .camera import Camera
from .imu import CalibrationSet, ImuStream, SensorCalibration
from .rotmath import ZERO_EPS, Rotation
from .skeleton import SkeletonDefinition, TopologyError


class FormatError(ValueError):
    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


def _fmt(x: float) -> str:
    return "%.9g" % x


def _fmt_row(values) -> str:
    return " ".join(_fmt(v) for v in values)


class _Reader:
    def __init__(self, path):
        self.path = Path(path)
        try:
            text = self.path.read_text()
        except OSError as e:
            raise FormatError(path, None, str(e)) from None
        self.lines = text.splitlines()
        self.pos = 0

    def fail(self, line_no, message) -> None:
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
            return int(token)
        except ValueError:
            self.fail(line_no, f"bad {what} '{token}'")

    def parse_float(self, line_no, token, what) -> float:
        try:
            return float(token)
        except ValueError:
            self.fail(line_no, f"bad {what} '{token}'")


def _write_text(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


# -- pose3d ------------------------------------------------------------------

def write_pose3d(path, poses: np.ndarray) -> None:
    poses = np.asarray(poses, dtype=float)
    if poses.ndim != 3 or poses.shape[2] != 3:
        raise ValueError(f"expected (T, J, 3), got {poses.shape}")
    if not np.all(np.isfinite(poses)):
        raise ValueError("pose3d values must be finite")
    lines = ["pose3d 1"]
    for t in range(poses.shape[0]):
        lines.append(f"{t} " + _fmt_row(poses[t].ravel()))
    _write_text(path, lines)


def read_pose3d(path) -> np.ndarray:
    r = _Reader(path)
    r.expect_header("pose3d")
    frames = []
    joints = None
    while r.remaining:
        line_no, tokens = r.next_tokens("pose record")
        idx = r.parse_int(line_no, tokens[0], "frame index")
        if idx != len(frames):
            r.fail(line_no, f"frame index {idx} out of order, expected {len(frames)}")
        if joints is None:
            if (len(tokens) - 1) % 3 != 0 or len(tokens) < 4:
                r.fail(line_no, f"expected 1 + 3*J fields, got {len(tokens)}")
            joints = (len(tokens) - 1) // 3
        elif len(tokens) != 1 + 3 * joints:
            r.fail(line_no, f"expected {1 + 3 * joints} fields, got {len(tokens)}")
        row = [r.parse_float(line_no, tok, "coordinate") for tok in tokens[1:]]
        if not all(math.isfinite(v) for v in row):
            r.fail(line_no, "non-finite coordinate")
        frames.append(row)
    if not frames:
        r.fail(None, "no frames")
    return np.asarray(frames, dtype=float).reshape(len(frames), joints, 3)


# -- pose2d ------------------------------------------------------------------

def write_pose2d(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=float)
    if pixels.ndim != 3 or pixels.shape[2] != 2:
        raise ValueError(f"expected (T, J, 2), got {pixels.shape}")
    lines = ["pose2d 1"]
    for t in range(pixels.shape[0]):
        parts = [str(t)]
        for u, v in pixels[t]:
            if math.isnan(u) != math.isnan(v):
                raise ValueError("occlusion must blank both pixel components")
            parts.append(f"{_fmt(u)} {_fmt(v)}")
        lines.append(" ".join(parts))
    _write_text(path, lines)


def read_pose2d(path) -> np.ndarray:
    r = _Reader(path)
    r.expect_header("pose2d")
    frames = []
    joints = None
    while r.remaining:
        line_no, tokens = r.next_tokens("pose record")
        idx = r.parse_int(line_no, tokens[0], "frame index")
        if idx != len(frames):
            r.fail(line_no, f"frame index {idx} out of order, expected {len(frames)}")
        if joints is None:
            if (len(tokens) - 1) % 2 != 0 or len(tokens) < 3:
                r.fail(line_no, f"expected 1 + 2*J fields, got {len(tokens)}")
            joints = (len(tokens) - 1) // 2
        elif len(tokens) != 1 + 2 * joints:
            r.fail(line_no, f"expected {1 + 2 * joints} fields, got {len(tokens)}")
        row = [r.parse_float(line_no, tok, "pixel") for tok in tokens[1:]]
        for j in range(joints):
            u, v = row[2 * j], row[2 * j + 1]
            if math.isnan(u) != math.isnan(v):
                r.fail(line_no, f"joint {j}: half-missing observation")
            if not (math.isnan(u) or (math.isfinite(u) and math.isfinite(v))):
                r.fail(line_no, f"joint {j}: non-finite pixel")
        frames.append(row)
    if not frames:
        r.fail(None, "no frames")
    return np.asarray(frames, dtype=float).reshape(len(frames), joints, 2)


# -- imu ---------------------------------------------------------------------

def write_imu(path, stream: ImuStream) -> None:
    for sid in stream.sensor_ids:
        if " " in sid or sid == "":
            raise ValueError(f"sensor id {sid!r} not serializable")
    lines = ["imu 1"]
    for t in range(stream.frame_count):
        for k, sid in enumerate(stream.sensor_ids):
            q = stream.orientations[t, k]
            a = stream.accels[t, k]
            lines.append(f"{t} {sid} {_fmt_row(q)} {_fmt_row(a)}")
    _write_text(path, lines)


def read_imu(path) -> ImuStream:
    r = _Reader(path)
    r.expect_header("imu")
    sensor_ids: list[str] = []
    quats: list[list[np.ndarray]] = []
    accels: list[list[np.ndarray]] = []
    while r.remaining:
        line_no, tokens = r.next_tokens("imu record")
        if len(tokens) != 9:
            r.fail(line_no, f"expected 9 fields, got {len(tokens)}")
        idx = r.parse_int(line_no, tokens[0], "frame index")
        sid = tokens[1]
        values = [r.parse_float(line_no, tok, "value") for tok in tokens[2:]]
        if not all(math.isfinite(v) for v in values):
            r.fail(line_no, "non-finite value")
        qw, qx, qy, qz = values[:4]
        if math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz) <= ZERO_EPS:
            r.fail(line_no, "zero-norm quaternion")
        if idx == len(quats):
            quats.append([])
            accels.append([])
        elif idx != len(quats) - 1:
            r.fail(line_no, f"frame index {idx} out of order")
        frame_slot = len(quats[idx])
        if idx == 0:
            if sid in sensor_ids:
                r.fail(line_no, f"duplicate sensor {sid} in frame 0")
            sensor_ids.append(sid)
        else:
            if frame_slot >= len(sensor_ids) or sensor_ids[frame_slot] != sid:
                r.fail(line_no, f"sensor {sid} out of order (expected layout of frame 0)")
        quats[idx].append(np.asarray(values[:4]))
        accels[idx].append(np.asarray(values[4:]))
    if not quats:
        r.fail(None, "no frames")
    for t, frame in enumerate(quats):
        if len(frame) != len(sensor_ids):
            r.fail(None, f"frame {t} has {len(frame)} sensors, expected {len(sensor_ids)}")
    return ImuStream(tuple(sensor_ids), np.asarray(quats), np.asarray(accels))


# -- skeleton ----------------------------------------------------------------

def write_skeleton(path, skel: SkeletonDefinition) -> None:
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
    r.expect_end()
    try:
        return SkeletonDefinition(tuple(names), tuple(parents), tuple(tuple(p) for p in tpose))
    except TopologyError as e:
        r.fail(None, str(e))


# -- calibration -------------------------------------------------------------

def write_calibration(path, calib: CalibrationSet) -> None:
    lines = ["calibration 1", "gravity " + _fmt_row(calib.gravity)]
    for cal in calib.sensors:
        for token in (cal.sensor_id, cal.joint):
            if " " in token or token == "":
                raise ValueError(f"token {token!r} not serializable")
        lines.append(
            f"sensor {cal.sensor_id} {cal.joint} "
            + _fmt_row(cal.r_global.q) + " " + _fmt_row(cal.r_joint.q)
        )
    _write_text(path, lines)


def read_calibration(path) -> CalibrationSet:
    r = _Reader(path)
    r.expect_header("calibration")
    line_no, tokens = r.next_tokens("gravity")
    if len(tokens) != 4 or tokens[0] != "gravity":
        r.fail(line_no, "expected 'gravity <gx> <gy> <gz>'")
    gravity = tuple(r.parse_float(line_no, tok, "gravity component") for tok in tokens[1:])
    sensors = []
    while r.remaining:
        line_no, tokens = r.next_tokens("sensor record")
        if len(tokens) != 11 or tokens[0] != "sensor":
            r.fail(line_no, "expected 'sensor <id> <joint> <r_global quat> <r_joint quat>'")
        vals = [r.parse_float(line_no, tok, "quaternion component") for tok in tokens[3:]]
        sensors.append(
            SensorCalibration(
                sensor_id=tokens[1],
                joint=tokens[2],
                r_global=Rotation(*vals[:4]),
                r_joint=Rotation(*vals[4:]),
            )
        )
    if not sensors:
        r.fail(None, "no sensors")
    return CalibrationSet(tuple(sensors), gravity)


# -- camera ------------------------------------------------------------------

def write_camera(path, cam: Camera) -> None:
    lines = [
        "camera 1",
        f"fx {_fmt(cam.fx)}",
        f"fy {_fmt(cam.fy)}",
        f"cx {_fmt(cam.cx)}",
        f"cy {_fmt(cam.cy)}",
        "rotation " + _fmt_row(cam.rotation.q),
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
        fields[key] = [r.parse_float(line_no, tok, key) for tok in tokens[1:]]
    r.expect_end()
    return Camera(
        fx=fields["fx"][0],
        fy=fields["fy"][0],
        cx=fields["cx"][0],
        cy=fields["cy"][0],
        rotation=Rotation(*fields["rotation"]),
        center=tuple(fields["center"]),
    )
