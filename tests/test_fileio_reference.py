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
from vifuse import fileio
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


# -- the fast path against the line walker -------------------------------------
#
# A valid file is read by `fileio._records` from its bytes; any other goes to
# the line walker, `fileio._first_bad_record`. Each single edit below must
# give the same outcome as the walker alone (the fast path switched off) and
# as the reference.

def valid_lines(path, fmt: str, frames: int = 8) -> list[str]:
    """Write a valid stream of `frames` frames to path and return its lines."""
    rng = np.random.default_rng(3)
    if fmt == "imu":
        write_imu(path, ImuStream(("a", "l_knee"), rng.standard_normal((frames, 2, 4)),
                                  rng.uniform(-9e3, 9e3, (frames, 2, 3))))
    elif fmt == "pose3d":
        write_pose3d(path, rng.uniform(-2000, 2000, (frames, 2, 3)))
    else:
        pixels = rng.uniform(0, 2000, (frames, 2, 2))
        pixels[1, 0] = np.nan
        write_pose2d(path, pixels)
    return path.read_text().splitlines()


def edit_field(field: int, token: str):
    """Replace field `field` of frame 7's first line."""
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith("7 "))
        fields = lines[i].split(" ")
        fields[field] = token
        lines[i] = " ".join(fields)
        return "\n".join(lines) + "\n"
    return edit


def edit_line(change):
    def edit(lines):
        lines[3] = change(lines[3])
        return "\n".join(lines) + "\n"
    return edit


SINGLE_EDITS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no final newline": lambda lines: "\n".join(lines),
    "trailing blank line": lambda lines: "\n".join(lines) + "\n\n",
    "frame index 07": edit_field(0, "07"),
    "frame index +7": edit_field(0, "+7"),
    "frame index 7.0": edit_field(0, "7.0"),
    "tab": edit_field(-1, "\t1"),
    "unit separator": edit_field(-1, "1\x1f"),
    "underscore": edit_field(-1, "1_0"),
    "non-ASCII digit": edit_field(-1, "\u0661"),
    "double space": edit_line(lambda l: l.replace(" ", "  ", 2).replace("  ", " ", 1)),
    "missing field": edit_line(lambda l: l.rsplit(" ", 1)[0]),
    "inf": edit_field(-2, "inf"),
    "half-missing pixel pair": edit_field(-2, "nan"),
}


ascii_field = st.text(alphabet=st.sampled_from(
    [chr(c) for c in range(128) if chr(c) not in " \n\r"] + list("0123456789.eEinfa+-") * 4),
    min_size=1, max_size=8)


@settings(max_examples=2000, deadline=None)
@given(field=ascii_field)
def test_loadtxt_reads_only_numbers_float_reads_alike(field):
    # What the fast path relies on: on an ASCII field with no byte of
    # _STRIPPED, loadtxt reads a value only where the walker does, and the same.
    try:
        got = np.loadtxt([f"0 {field}".encode()], delimiter=" ", comments=None, ndmin=2)[0, 1]
    except ValueError:
        return
    if not set(field) & set(fileio._STRIPPED.decode()):
        want = strict_number(field)
        assert want is not None, field
        assert got == want or (math.isnan(got) and math.isnan(want)), field


def edit_imu_frame(frame: int, change):
    """Apply `change` to the lines (sensor `a`'s, then `l_knee`'s) of one frame."""
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith(f"{frame} "))
        lines[i:i + 2] = change(lines[i:i + 2])
        return "\n".join(lines) + "\n"
    return edit


def rename(old: str, new: str):
    return lambda pair: [l.replace(f" {old} ", f" {new} ", 1) for l in pair]


# Edits of the sensor layout, which the imu fast path checks by its record
# prefixes: each must be refused, as the walker refuses it.
IMU_EDITS = {
    "sensors swapped in a frame": edit_imu_frame(3, lambda pair: pair[::-1]),
    "sensor renamed after frame 0": edit_imu_frame(5, rename("l_knee", "b")),
    "id extending another": edit_imu_frame(4, rename("a", "ab")),
    "frame one sensor short": edit_imu_frame(6, lambda pair: pair[:1]),
}


def assert_fast_path_agrees_with_the_line_walker(monkeypatch, fmt, path):
    got = check_against_reference(fmt, path)
    with monkeypatch.context() as m:
        m.setattr(fileio, "_stream_lines", lambda path, schema: None)
        walked = outcome(READERS[fmt][0], path)
    assert same_outcome(got, walked), (got, walked)
    return got


@pytest.mark.parametrize("fmt", ["pose3d", "pose2d", "imu"])
@pytest.mark.parametrize("edit", list(SINGLE_EDITS))
def test_fast_path_agrees_with_the_line_walker(tmp_path, monkeypatch, fmt, edit):
    p = tmp_path / "s.txt"
    p.write_bytes(SINGLE_EDITS[edit](valid_lines(p, fmt)).encode("utf-8"))
    assert_fast_path_agrees_with_the_line_walker(monkeypatch, fmt, p)


@pytest.mark.parametrize("edit", list(IMU_EDITS))
def test_imu_layout_edits_agree_with_the_line_walker(tmp_path, monkeypatch, edit):
    p = tmp_path / "s.txt"
    p.write_bytes(IMU_EDITS[edit](valid_lines(p, "imu")).encode("utf-8"))
    got = assert_fast_path_agrees_with_the_line_walker(monkeypatch, "imu", p)
    assert isinstance(got, FormatError), got


def no_walk(*args):
    raise AssertionError("a valid file reached the line walker")


@pytest.mark.parametrize("fmt", ["pose3d", "pose2d", "imu"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final", [True, False])
def test_valid_files_take_the_fast_path(tmp_path, monkeypatch, fmt, newline, final):
    p = tmp_path / "s.txt"
    p.write_bytes((newline.join(valid_lines(p, fmt, 40)) + newline * final).encode())
    monkeypatch.setattr(fileio, "_first_bad_record", no_walk)
    check_against_reference(fmt, p)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_imu_sensor_ids_outside_ascii_take_the_fast_path(tmp_path, monkeypatch, newline):
    p = tmp_path / "s.txt"
    rng = np.random.default_rng(4)
    write_imu(p, ImuStream(("h\u00e4nd", "\u624b\u9996"), rng.standard_normal((5, 2, 4)),
                           rng.standard_normal((5, 2, 3))))
    p.write_bytes(newline.encode().join(p.read_bytes().splitlines()))
    monkeypatch.setattr(fileio, "_first_bad_record", no_walk)
    assert check_against_reference("imu", p).sensor_ids == ("h\u00e4nd", "\u624b\u9996")


@pytest.mark.parametrize("fmt, text", [
    ("pose3d", lambda lines: "\x0c".join(lines)),
    ("pose2d", lambda lines: "\x1c".join(lines) + "\u2028"),
    ("imu", lambda lines: "\n".join(lines).replace(" a ", " a\x1fb ")),
    ("imu", lambda lines: "\n".join(lines).replace(" a ", " a\tb ")),
])
def test_valid_files_the_fast_path_leaves_are_walked_to_their_numbers(tmp_path, fmt, text):
    # Line breaks str.splitlines takes besides \n, \r\n and \r, and bytes
    # loadtxt strips in an imu sensor id, send a valid file to the walker,
    # which reads the same numbers.
    p, plain = tmp_path / "s.txt", tmp_path / "plain.txt"
    lines = valid_lines(p, fmt)
    p.write_bytes(text(lines).encode("utf-8"))
    plain.write_text("\n".join(lines) + "\n")
    got = check_against_reference(fmt, p)
    want = READERS[fmt][0](plain)
    if fmt == "imu":
        assert bitwise_equal(got.orientations, want.orientations) and bitwise_equal(got.accels, want.accels)
    else:
        assert bitwise_equal(got, want)


# -- writers -----------------------------------------------------------------
#
# `ref_write_pose3d`, `ref_write_pose2d` and `ref_write_imu` are the writers as
# they were before the array-at-once number kernel: one Python "%.9g" per value,
# one line at a time. The writers must match them byte for byte.

def _ref_write_lines(path, lines):
    with open(path, "w") as f:
        for line in lines:
            f.write(line)
            f.write("\n")


def _ref_write_pose(path, schema, values):
    flat = values.reshape(len(values), -1)
    fmt = "%d" + " %.9g" * flat.shape[1]
    _ref_write_lines(path, [f"{schema} 1"] + [fmt % (t, *row.tolist()) for t, row in enumerate(flat)])


def ref_write_pose3d(path, poses):
    _ref_write_pose(path, "pose3d", poses)


def ref_write_pose2d(path, pixels):
    _ref_write_pose(path, "pose2d", pixels)


def ref_write_imu(path, stream):
    fmt = "%d %s" + " %.9g" * 7
    lines = ["imu 1"]
    for t in range(stream.frame_count):
        quats, accels = stream.orientations[t].tolist(), stream.accels[t].tolist()
        lines += [fmt % (t, sid, *q, *a) for sid, q, a in zip(stream.sensor_ids, quats, accels)]
    _ref_write_lines(path, lines)


def written(write, tmp_path, value, name):
    path = tmp_path / name
    write(path, value)
    return path.read_bytes()


def assert_writers_match(tmp_path, poses=None, pixels=None, stream=None):
    for write, ref, value in ((write_pose3d, ref_write_pose3d, poses),
                              (write_pose2d, ref_write_pose2d, pixels),
                              (write_imu, ref_write_imu, stream)):
        if value is not None:
            assert written(write, tmp_path, value, "a.txt") == written(ref, tmp_path, value, "b.txt")


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.123]


def edge_array(rng, shape):
    values = rng.uniform(-3000, 3000, shape)
    flat = values.reshape(-1)
    flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
    return values


@pytest.mark.parametrize("frames", [1, 3, 12001])
def test_writers_match_per_value_reference(tmp_path, rng, frames):
    pixels = edge_array(rng, (frames, 3, 2))
    pixels[0, 1] = np.nan
    pixels[-1, 2] = np.nan
    q = edge_array(rng, (frames, 2, 4))
    q[0, 0, 0] = 1.0  # the leading edge values make a zero-norm quaternion, which write_imu refuses
    stream = ImuStream(("l_knee", "s_2"), q, edge_array(rng, (frames, 2, 3)))
    assert_writers_match(tmp_path, edge_array(rng, (frames, 2, 3)), pixels, stream)


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


# Values the kernel must hand to "%.9g", or whose rounding or exponent sits on
# an edge of its fixed-point layout, with their "%.9g" spelling.
SPELLED = [
    (-0.0, "-0"), (0.0, "0"), (5e-324, "4.94065646e-324"), (-5e-324, "-4.94065646e-324"),
    (9.9999999995e-05, "0.0001"), (9.99999999e-05, "9.99999999e-05"), (1e-4, "0.0001"),
    (-0.000123456789, "-0.000123456789"), (999999999.5, "1e+09"), (999999999.4, "999999999"),
    (1e9, "1e+09"), (1234567.125, "1234567.12"), (1234567.375, "1234567.38"),
    (-1234567.125, "-1234567.12"), (12345678.75, "12345678.8"), (123456789.5, "123456790"),
    (1e300, "1e+300"), (-1.7976931348623157e308, "-1.79769313e+308"), (0.5, "0.5"),
    (100.0, "100"), (1000.0, "1000"), (10000000.0, "10000000"), (0.1, "0.1"), (1 / 3, "0.333333333"),
    (2.5, "2.5"), (123456789.0, "123456789"), (99999999.99999999, "100000000"),
    (999.9999999999999, "1000"), (1000.0000000000001, "1000"), (0.00099999999999999, "0.001"),
    # Decimal ties that binary cannot hold: the scaled product rounds to the
    # tie, while the stored value lies on one side of it.
    (8.655618035, "8.65561803"), (8.342681985, "8.34268199"), (10481737.65, "10481737.7"),
    (682470.5605, "682470.561"), (0.0008244902565, "0.000824490257"),
]


def test_edge_values_are_spelled_as_percent_g(tmp_path):
    values = np.array([v for v, _ in SPELLED] + [0.0] * (-len(SPELLED) % 3))
    poses = values.reshape(1, -1, 3)
    line = written(write_pose3d, tmp_path, poses, "a.txt").decode().splitlines()[1]
    assert line.split(" ")[1:len(SPELLED) + 1] == [text for _, text in SPELLED]
    assert_writers_match(tmp_path, poses=poses)


def test_nan_is_spelled_nan_whatever_its_sign(tmp_path):
    negative_nan = np.copysign(np.nan, -1.0)
    assert math.copysign(1.0, negative_nan) == -1.0
    pixels = np.array([[[negative_nan, np.nan], [np.nan, negative_nan], [1.5, -0.0]]])
    assert written(write_pose2d, tmp_path, pixels, "a.txt") == b"pose2d 1\n0 nan nan nan nan 1.5 -0\n"
    assert_writers_match(tmp_path, pixels=pixels)


def test_rows_on_either_side_of_a_chunk_boundary(tmp_path, rng):
    rows = fileio._CHUNK_VALUES // 63  # rows of a 21-joint pose3d per chunk
    for frames in (1, rows - 1, rows, rows + 1, 2 * rows + 7):
        poses = rng.uniform(-3000, 3000, (frames, 21, 3))
        pixels = rng.uniform(0, 2000, (frames, 21, 2))
        pixels[rng.uniform(size=(frames, 21)) < 0.05] = np.nan
        stream = ImuStream(tuple(f"s{k}" for k in range(8)),
                           rng.uniform(-1, 1, (frames, 8, 4)), rng.uniform(-2e4, 2e4, (frames, 8, 3)))
        assert_writers_match(tmp_path, poses, pixels, stream)


def finite_values():
    """Floats of every magnitude, and those whose 9-digit rounding is hard:
    decimals of exactly 9 or 10 digits (10 digits ending in 5 are decimal
    ties, which binary holds only approximately), exact binary ties at the
    9th digit (10 digits ending in 5 over 10**k, exact when 5**k divides
    them), and their neighbours one ulp away."""
    nine = st.builds(lambda m, k: m / 10.0 ** k, st.integers(10 ** 8, 10 ** 10 - 1), st.integers(0, 17))
    decimal_ties = st.builds(lambda m, k: (10 * m + 5) / 10.0 ** k, st.integers(10 ** 8, 10 ** 9 - 1),
                             st.integers(1, 17))
    ties = st.integers(1, 3).flatmap(lambda k: st.builds(
        lambda j: 5 ** k * (2 * j + 1) / 10 ** k,
        st.integers(-(-10 ** 9 // (2 * 5 ** k)), (10 ** 10 // 5 ** k - 1) // 2)))
    near = st.builds(lambda x, up: float(np.nextafter(x, np.inf if up else -np.inf)), ties, st.booleans())
    signed = st.builds(lambda x, neg: -x if neg else x, st.one_of(nine, decimal_ties, ties, near),
                       st.booleans())
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False), signed)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(finite_values(), min_size=1, max_size=40), frames=st.integers(1, 300),
       joints=st.integers(1, 30), sensors=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_writers_match_reference_on_any_values(tmp_path, pool, frames, joints, sensors, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        """Values from the pool at random places, the rest uniform in +-3000."""
        values = rng.uniform(-3000, 3000, shape)
        picked = rng.uniform(size=shape) < 0.5
        values[picked] = rng.choice(pool, int(picked.sum()))
        return values

    pixels = draw((frames, joints, 2))
    pixels[rng.uniform(size=(frames, joints)) < 0.1] = np.copysign(np.nan, rng.choice([-1.0, 1.0]))
    q = draw((frames, sensors, 4))
    q[..., 0] = np.where(fileio._zero_norm(q), 1.0, q[..., 0])
    stream = ImuStream(tuple(f"k{i}" for i in range(sensors)), q, draw((frames, sensors, 3)))
    assert_writers_match(tmp_path, draw((frames, joints, 3)), pixels, stream)
