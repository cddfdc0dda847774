"""Stream readers and writers against line-by-line references, with faults injected.

`_RefReader`, `ref_read_pose3d`, `ref_read_pose2d` and `ref_read_imu` are the
readers as they were before the array-at-once rewrite: one Python float per
token and one record at a time. The one change is marked in `ref_read_imu`: a
first record with a negative frame index raised IndexError there.

The new number grammar is narrower than float() and int(): a number uses only
ASCII digits, `+ - . e E` and the letters of nan/inf/infinity, and an integer
is plain decimal. `_StrictRefReader` is the reference with that grammar. The
new readers must equal it exactly, and it may differ from the reference only
by a `bad <what> '<token>'` error for a token the reference reads but the
grammar refuses, on a line no later than the reference's own error.
"""

import math
import re
import string
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vifuse import (
    FormatError,
    ImuStream,
    read_imu,
    read_pose2d,
    read_pose3d,
    write_imu,
    write_pose2d,
    write_pose3d,
)
from vifuse.rotmath import ZERO_EPS


# -- reference readers -------------------------------------------------------

class _RefReader:
    def __init__(self, path):
        self.path = path
        try:
            text = path.read_text()
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


NUMBER_CHARS = set("0123456789+-.eEnNaAiIfFtTyY")


def strict_int(token):
    try:
        value = int(token)
    except ValueError:
        return None
    return value if str(value) == token else None


def strict_number(token):
    if not set(token) <= NUMBER_CHARS:
        return None
    try:
        return float(token)
    except ValueError:
        return None


class _StrictRefReader(_RefReader):
    def parse_int(self, line_no, token, what) -> int:
        if strict_int(token) is None:
            self.fail(line_no, f"bad {what} '{token}'")
        return int(token)

    def parse_float(self, line_no, token, what) -> float:
        if strict_number(token) is None:
            self.fail(line_no, f"bad {what} '{token}'")
        return float(token)


def ref_read_pose3d(path, reader=_RefReader) -> np.ndarray:
    r = reader(path)
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


def ref_read_pose2d(path, reader=_RefReader) -> np.ndarray:
    r = reader(path)
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


def ref_read_imu(path, reader=_RefReader) -> ImuStream:
    r = reader(path)
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
        elif idx != len(quats) - 1 or idx < 0:  # changed: `or idx < 0`
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


# -- comparison --------------------------------------------------------------

READERS = {
    "pose3d": (read_pose3d, ref_read_pose3d),
    "pose2d": (read_pose2d, ref_read_pose2d),
    "imu": (read_imu, ref_read_imu),
}


def outcome(read, path, **kw):
    try:
        return read(path, **kw)
    except FormatError as e:
        return e


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bits, except that any NaN equals any NaN."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


def same_outcome(got, want) -> bool:
    if isinstance(got, FormatError) or isinstance(want, FormatError):
        return (
            isinstance(got, FormatError) and isinstance(want, FormatError)
            and str(got) == str(want) and got.line_no == want.line_no
        )
    if isinstance(want, ImuStream):
        return (
            got.sensor_ids == want.sensor_ids
            and bitwise_equal(got.orientations, want.orientations)
            and bitwise_equal(got.accels, want.accels)
        )
    return bitwise_equal(got, want)


def check_against_reference(fmt, path):
    read, ref = READERS[fmt]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a bad file is reported by the error alone
        got = outcome(read, path)
    strict = outcome(ref, path, reader=_StrictRefReader)
    assert same_outcome(got, strict), (fmt, path.read_text()[:2000], got, strict)
    loose = outcome(ref, path)
    if not same_outcome(strict, loose):
        # Only the narrower grammar may tell the two apart.
        assert isinstance(strict, FormatError), (strict, loose)
        match = re.search(r": bad (.+) '(.*)'$", str(strict), re.S)
        assert match, strict
        what, token = match.groups()
        if what == "frame index":
            assert strict_int(token) is None
            int(token)
        else:
            assert strict_number(token) is None
            float(token)
        line = path.read_text().splitlines()[strict.line_no - 1]
        assert token in line.split(" ")
        if isinstance(loose, FormatError) and loose.line_no is not None:
            assert loose.line_no >= strict.line_no
    return got


# -- fault injection ---------------------------------------------------------

TOKENS = [
    "", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-0", "0", "1",
    "1_000", "١", "01", "+1", "-1", "1.", ".5", "1e", "e1", ".", "0x10",
    "\t1", "1\t", "1\x1f", "\xa01", "1 2", "#1", "oops", "nan(1)", "5e-324",
]
garbage = st.text(alphabet=string.digits + "+-.eEnaifINF_x \t\x1f\xa0١#", max_size=5)
token = st.one_of(st.sampled_from(TOKENS), garbage)


@st.composite
def stream_file(draw, fmt):
    """A function that writes a small random stream with the writer under test."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    t_n = draw(st.integers(1, 4))
    if fmt == "imu":
        ids = draw(st.lists(st.sampled_from(["a", "b", "c", "l_knee", "s_1"]),
                            min_size=1, max_size=3, unique=True))
        q = rng.standard_normal((t_n, len(ids), 4))
        a = rng.uniform(-9000, 9000, (t_n, len(ids), 3))
        return lambda p: write_imu(p, ImuStream(tuple(ids), q, a))
    dim = 3 if fmt == "pose3d" else 2
    values = rng.uniform(-2000, 2000, (t_n, draw(st.integers(1, 3)), dim))
    if dim == 2:
        values[rng.uniform(size=values.shape[:2]) < 0.3] = np.nan
        return lambda p: write_pose2d(p, values)
    return lambda p: write_pose3d(p, values)


def mutate(draw, lines):
    """Apply one drawn fault to the lines in place."""
    kind = draw(st.sampled_from(
        ["token", "token", "drop", "duplicate", "swap", "field", "blank", "trailing", "sensor"]))
    body = range(1, len(lines)) if len(lines) > 1 else range(len(lines))
    i = draw(st.sampled_from(body)) if len(body) else 0
    if kind == "token" and lines:
        fields = lines[i].split(" ")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(token)
        lines[i] = " ".join(fields)
    elif kind == "drop" and lines:
        del lines[i]
    elif kind == "duplicate" and lines:
        lines.insert(i, lines[i])
    elif kind == "swap" and len(lines) > 2:
        j = draw(st.sampled_from(body))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "field" and lines:
        lines[i] += " " + draw(st.sampled_from(["1", "nan", "0"]))
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
    elif kind == "trailing":
        lines.extend([""] * draw(st.integers(1, 2)))
    elif kind == "sensor" and lines:
        fields = lines[i].split(" ")
        if len(fields) > 1:
            fields[1] = draw(st.sampled_from(["a", "b", "zz", "c", ""]))
            lines[i] = " ".join(fields)


@pytest.mark.parametrize("fmt", ["pose3d", "pose2d", "imu"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_matches_reference_under_faults(tmp_path, fmt, data):
    write = data.draw(stream_file(fmt))
    p = tmp_path / "stream.txt"
    write(p)
    lines = p.read_text().splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        mutate(data.draw, lines)
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    p.write_bytes((newline.join(lines) + newline).encode("utf-8"))
    check_against_reference(fmt, p)


@pytest.mark.parametrize("fmt", ["pose3d", "pose2d", "imu"])
@pytest.mark.parametrize("tok", ["1_000", "١", "\t1", "1\xa0", "1\x1f"])
def test_narrower_number_grammar(tmp_path, fmt, tok):
    p = tmp_path / "s.txt"
    rng = np.random.default_rng(1)
    if fmt == "imu":
        write_imu(p, ImuStream(("a", "b"), rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 2, 3))))
    elif fmt == "pose3d":
        write_pose3d(p, rng.standard_normal((3, 2, 3)))
    else:
        write_pose2d(p, rng.standard_normal((3, 2, 2)))
    lines = p.read_text().splitlines()
    fields = lines[3].split(" ")
    fields[-1] = tok
    lines[3] = " ".join(fields)
    p.write_text("\n".join(lines) + "\n")
    what = {"pose3d": "coordinate", "pose2d": "pixel", "imu": "value"}[fmt]
    with pytest.raises(FormatError) as e:
        READERS[fmt][0](p)
    assert e.value.line_no == 4
    assert str(e.value) == f"{p}:4: bad {what} '{tok}'"
    check_against_reference(fmt, p)


@pytest.mark.parametrize("tok", ["01", "+1", "1_0", "١", "1.0"])
def test_frame_index_is_plain_decimal(tmp_path, tok):
    p = tmp_path / "s.txt"
    write_pose3d(p, np.zeros((3, 1, 3)))
    lines = p.read_text().splitlines()
    lines[2] = tok + lines[2][1:]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as e:
        read_pose3d(p)
    assert e.value.line_no == 3 and f"bad frame index '{tok}'" in str(e.value)
    check_against_reference("pose3d", p)


@pytest.mark.parametrize("fmt, text", [
    ("imu", "imu 1\n0 a \n"),
    ("imu", "imu 1\n0 a  \n"),
    ("pose3d", "pose3d 1\n0 \n"),
    ("pose2d", "pose2d 1\n0   \n"),
])
def test_records_without_values(tmp_path, fmt, text):
    p = tmp_path / "s.txt"
    p.write_text(text)
    got = check_against_reference(fmt, p)
    assert isinstance(got, FormatError) and got.line_no == 2 and "fields" in str(got)


def test_imu_negative_first_frame_index(tmp_path):
    p = tmp_path / "s.txt"
    write_imu(p, ImuStream(("a",), np.ones((2, 1, 4)), np.zeros((2, 1, 3))))
    lines = p.read_text().splitlines()
    lines[1] = "-1" + lines[1][1:]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as e:
        read_imu(p)
    assert e.value.line_no == 2 and "frame index -1 out of order" in str(e.value)


# -- writers -----------------------------------------------------------------

def fmt_row(values) -> str:
    return " ".join("%.9g" % v for v in values)


def ref_write_pose3d(path, poses):
    lines = ["pose3d 1"] + [f"{t} " + fmt_row(poses[t].ravel()) for t in range(len(poses))]
    path.write_text("\n".join(lines) + "\n")


def ref_write_pose2d(path, pixels):
    lines = ["pose2d 1"]
    for t in range(len(pixels)):
        lines.append(" ".join([str(t)] + [f"{'%.9g' % u} {'%.9g' % v}" for u, v in pixels[t]]))
    path.write_text("\n".join(lines) + "\n")


def ref_write_imu(path, stream):
    lines = ["imu 1"]
    for t in range(stream.frame_count):
        for k, sid in enumerate(stream.sensor_ids):
            lines.append(f"{t} {sid} {fmt_row(stream.orientations[t, k])} {fmt_row(stream.accels[t, k])}")
    path.write_text("\n".join(lines) + "\n")


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.123]


def edge_array(rng, shape):
    values = rng.uniform(-3000, 3000, shape)
    flat = values.reshape(-1)
    flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
    return values


@pytest.mark.parametrize("frames", [1, 3, 12001])
def test_writers_match_per_value_reference(tmp_path, rng, frames):
    poses = edge_array(rng, (frames, 2, 3))
    write_pose3d(tmp_path / "a.txt", poses)
    ref_write_pose3d(tmp_path / "b.txt", poses)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    pixels = edge_array(rng, (frames, 3, 2))
    pixels[0, 1] = np.nan
    pixels[-1, 2] = np.nan
    write_pose2d(tmp_path / "a.txt", pixels)
    ref_write_pose2d(tmp_path / "b.txt", pixels)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    q = edge_array(rng, (frames, 2, 4))
    q[0, 0, 0] = 1.0  # the leading edge values make a zero-norm quaternion, which write_imu refuses
    stream = ImuStream(("l_knee", "s_2"), q, edge_array(rng, (frames, 2, 3)))
    write_imu(tmp_path / "a.txt", stream)
    ref_write_imu(tmp_path / "b.txt", stream)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


@pytest.mark.parametrize("fmt", ["pose3d", "pose2d", "imu"])
def test_write_read_write_is_byte_stable(tmp_path, rng, fmt):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    if fmt == "imu":
        q = edge_array(rng, (40, 3, 4))
        q[0, 0] = 1.0  # a quaternion of edge values may have zero norm
        stream = ImuStream(("x", "y", "z"), q, edge_array(rng, (40, 3, 3)))
        write_imu(a, stream)
        write_imu(b, read_imu(a))
    elif fmt == "pose3d":
        write_pose3d(a, edge_array(rng, (40, 4, 3)))
        write_pose3d(b, read_pose3d(a))
    else:
        pixels = edge_array(rng, (40, 4, 2))
        pixels[rng.uniform(size=(40, 4)) < 0.25] = np.nan
        write_pose2d(a, pixels)
        back = read_pose2d(a)
        assert (np.isnan(back) == np.isnan(pixels)).all()
        write_pose2d(b, back)
    assert a.read_bytes() == b.read_bytes()
