"""Line-oriented text formats for pose, observation, and rig files.

Every file starts with a header line `<schema> <version>`; records are
single-space-separated fields, one record per line. Floats are written with 9
significant digits, which round-trips exactly through the parser, so writing
is idempotent and reruns are byte-identical. Parse errors carry the file path
and 1-based line number; a schema or version mismatch is fatal. A writer
raises ValueError, before it opens the file, on a value its reader refuses;
a stream writer runs its reader's fault function, so each value rule is
stated once. A Camera refuses such values itself, so write_camera checks none.

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


# A number field uses only these characters. float() also takes underscores,
# non-ASCII digits and whitespace around a number.
_NUMBER_CHARS = "0123456789+-.eEnNaAiIfFtTyY"
# The ASCII whitespace np.loadtxt strips from a field, other than " ", "\n"
# and "\r". In a field of the other ASCII bytes loadtxt reads a value only if
# the field is a number of _NUMBER_CHARS, and reads it as float() does.
# str.splitlines breaks lines at all of these but \t and \x1f.
_STRIPPED = b"\t\x0b\x0c\x1c\x1d\x1e\x1f"


class _Reader:
    def __init__(self, path):
        self.path = Path(path)
        try:
            data = self.path.read_bytes()
            text = data.decode("utf-8")
        except OSError as e:
            raise FormatError(path, None, str(e)) from None
        except UnicodeDecodeError as e:  # the bytes before e.start decode
            line_no = len((data[:e.start].decode("utf-8") + "x").splitlines())
            raise FormatError(path, line_no, str(e)) from None
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


def _write_text(path, *parts) -> None:
    """Write each part's text chunks in order. The number lines of a part come
    from `_number_lines` a fixed number of rows at a time, so no copy of the
    whole file is held in memory."""
    with open(path, "w", encoding="utf-8") as f:
        for part in parts:
            f.writelines(part)


# -- number lines ------------------------------------------------------------
#
# Every number the writers put in a file is spelled by `_number_lines`, byte
# for byte as Python's "%.9g". A value that "%.9g" spells in fixed point
# (finite, 1e-4 <= |x| < 1e9 once rounded to 9 digits) is laid out with array
# arithmetic in a 24-byte slot: " ", the sign, 9 integer digits, the point and
# 12 fraction digits, looked up 4 bytes at a time in tables where the bytes
# "%.9g" leaves out (a plus sign, leading and trailing zeros, a bare point)
# are 0xFF, a byte UTF-8 text never holds. Deleting the 0xFF bytes gives the
# lines. Every other value is spelled by "%.9g" itself and copied into its
# slot: NaN, +-inf, +-0, other magnitudes, and values within _TIE_MARGIN of a
# rounding tie once scaled to 9 digits. The scaled product is correctly
# rounded (10**k is exact for k <= 15), so only a product on the tie itself
# could round the wrong way; the margin leaves room to spare.

_HIDDEN = b"\xff"
_SLOT = 24
_CHUNK_VALUES = 8192  # values formatted per chunk
_CHECK_VALUES = 1 << 16  # values a writer checks per chunk
_TIE_MARGIN = 1e-6  # the scaled product errs by at most 2**-24
_POW10 = 10.0 ** np.arange(16)


def _digit_words(width: int, head: bytes = b"", tail: bytes = b"", strip: str = "",
                 units: bool = False) -> np.ndarray:
    """head + the `width` decimal digits of n + tail, as one uint32 word for
    each n below 10**width. strip="leading" or "trailing" hides the zero
    digits before the first or after the last nonzero digit; `units` always
    shows the last digit (the integer part's units digit: 0 is spelled "0")."""
    digits = np.indices((10,) * width, dtype=np.uint8).reshape(width, -1).T
    nonzero = digits != 0
    shown = np.ones(digits.shape, bool)
    if strip == "leading":
        shown = np.logical_or.accumulate(nonzero, axis=1)
    elif strip == "trailing":
        shown = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    shown[:, -1] |= units
    out = np.empty((len(digits), 4), np.uint8)
    out[:, :len(head)] = np.frombuffer(head, np.uint8)
    out[:, len(head):4 - len(tail)] = np.where(shown, digits + ord("0"), _HIDDEN[0])
    out[:, 4 - len(tail):] = np.frombuffer(tail, np.uint8)
    return out.view(np.uint32).ravel()


# Slot words 0-2 hold the integer part ip = h0 * 10**7 + h1 * 1000 + h2: " ",
# the sign and h0's digits at (x < 0) * 100 + h0; h1's digits at (h0 > 0) *
# 10**4 + h1; h2's digits and the point at (ip >= 1000) * 1000 + (fraction >
# 0) * 2000 + h2. Words 3-5 hold the fraction's 12 digits, g3 g4 g5, each at
# (no nonzero digit follows) * 10**4 + g.
_HEAD = np.concatenate([_digit_words(2, b" " + _HIDDEN, strip="leading"),
                        _digit_words(2, b" -", strip="leading")])
_INT4 = np.concatenate([_digit_words(4, strip="leading"), _digit_words(4)])
_INT3 = np.concatenate([_digit_words(3, tail=tail, strip=strip, units=True)
                        for tail in (_HIDDEN, b".") for strip in ("leading", "")])
_FRAC4 = np.concatenate([_digit_words(4), _digit_words(4, strip="trailing")])


def _number_lines(prefixes, *columns: np.ndarray):
    """Yield text chunks holding, for each row i of the columns (n, F_i) side
    by side, the line `prefixes[i]` followed by " %.9g" of each value and "\n".

    `prefixes` is an iterable of n strings, read a chunk at a time.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n, f = len(columns[0]), sum(c.shape[1] for c in columns)
    rows = max(1, _CHUNK_VALUES // max(f, 1))
    prefixes = iter(prefixes)
    for lo in range(0, n, rows):
        values = np.concatenate([c[lo:lo + rows] for c in columns], axis=1)
        heads = list(map(str.encode, itertools.islice(prefixes, rows)))
        yield _format_chunk(heads, values).translate(None, _HIDDEN).decode()


def _format_chunk(heads: list[bytes], x: np.ndarray) -> bytes:
    """The lines of `_number_lines` for values x (r, F), with hidden bytes."""
    r, f = x.shape
    # 9 significant digits m * 10**(e - 8), 1e8 <= m < 1e9. log10 can put e
    # one off only within an ulp of a power of ten, where m rounds to 1e8 or
    # 1e9 as "%.9g" rounds.
    a = np.abs(x)
    fast = (a >= 1e-5) & (a < 1e9)
    a[~fast] = 1.0
    e = np.minimum(np.floor(np.log10(a)), 8.0)
    scaled = a * _POW10[(8.0 - e).astype(np.intp)]
    m = np.rint(scaled)
    fast &= np.abs(scaled - m) < 0.5 - _TIE_MARGIN
    carry = m == 1e9
    m[carry] = 1e8
    e += carry
    fast &= np.abs(e - 2.0) <= 6.0  # -4 <= e <= 8: "%.9g" spells it in fixed point
    np.clip(e, -4.0, 8.0, out=e)
    # The integer part ip and the fraction's first 12 digits: exact in floats,
    # as both stay below 1e12.
    div = _POW10[(8.0 - e).astype(np.intp)]
    ip = np.floor(m / div)
    frac = ((m - ip * div) * _POW10[(4.0 + e).astype(np.intp)]).astype(np.int64)
    ip = ip.astype(np.int64)
    g3 = frac // 10 ** 8
    low = frac - g3 * 10 ** 8
    g4 = low // 10 ** 4
    g5 = low - g4 * 10 ** 4
    h0 = ip // 10 ** 7
    rest = ip - h0 * 10 ** 7
    h1 = rest // 1000
    h2 = rest - h1 * 1000

    # Each row: its prefix padded to whole words, the slots, and "\n" padded.
    lens = np.fromiter(map(len, heads), np.intp, r)
    width = -(-max(int(lens.max()), 1) // 4) * 4
    prefix = np.array(heads, dtype=f"S{width}").view(np.uint8).reshape(r, width)
    prefix[np.arange(width) >= lens[:, None]] = _HIDDEN[0]
    buf = np.empty((r, width // 4 + f * _SLOT // 4 + 1), np.uint32)
    buf[:, :width // 4] = prefix.view(np.uint32)
    buf[:, -1] = np.frombuffer(b"\n" + _HIDDEN * 3, np.uint32)[0]
    words = buf[:, width // 4:-1].reshape(r, f, _SLOT // 4)
    words[..., 0] = _HEAD[(x < 0) * 100 + h0]
    words[..., 1] = _INT4[(h0 > 0) * 10 ** 4 + h1]
    words[..., 2] = _INT3[(ip >= 1000) * 1000 + (frac > 0) * 2000 + h2]
    words[..., 3] = _FRAC4[(low == 0) * 10 ** 4 + g3]
    words[..., 4] = _FRAC4[(g5 == 0) * 10 ** 4 + g4]
    words[..., 5] = _FRAC4[10 ** 4:][g5]
    slow = ~fast
    if slow.any():
        spelled = [("%.9g" % v).encode().ljust(_SLOT - 1, _HIDDEN) for v in x[slow].tolist()]
        slots = words.view(np.uint8)
        slots[slow, 1:] = np.frombuffer(b"".join(spelled), np.uint8).reshape(-1, _SLOT - 1)
    return buf.tobytes()


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
# index, and for imu the sensor id) and then numbers. A valid file is read as
# bytes and parsed by a few whole-file operations in `_records`, with no copy
# of its lines' fields. A file `_records` refuses is read as text by `_Reader`
# and walked line by line by `_first_bad_record`, which names the first bad
# record.
#
# `faults(*blocks)` gives, for value rows (n, F) whole or as column blocks
# (n, F_i) side by side, a mask (n, C) of the C value checks in the order a
# line applies them, and a function naming check c. Readers run it on the
# rows they parse, and writers, through `_refuse_faults`, on their values.


def _stream_lines(path, schema: str) -> tuple[np.ndarray, list[bytes]] | None:
    """The bytes after a stream file's `<schema> 1` header, as uint8, and its
    record lines, split at \\n, \\r\\n and \\r. None if the file cannot be
    read, holds a byte of _STRIPPED, starts with another line or has no
    record. Where the lines' bytes are ASCII, the text reader splits the same
    lines.
    """
    header = f"{schema} 1".encode()
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    if any(byte in data for byte in _STRIPPED):
        return None
    if b"\r" in data:  # a line ends at \n, \r\n or \r
        lines = data.splitlines()
    else:
        lines = data.split(b"\n")
        if not lines[-1]:  # the last line's \n
            lines.pop()
    if len(lines) < 2 or lines[0] != header:
        return None
    return np.frombuffer(data, np.uint8, offset=len(header)), lines[1:]


def _records(body: np.ndarray, lines: list[bytes], prefixes: list[bytes], width: int,
             faults) -> np.ndarray | None:
    """The (n, width) numbers that follow each record's prefix, or None.

    Record i must be `prefixes[i]` followed by `width` numbers separated by
    single spaces, with no fault; `body` holds the records' bytes. None means
    some record breaks that.
    """
    n, skip = len(lines), prefixes[0].count(b" ")  # a prefix is `skip` fields
    if n != len(prefixes) or not all(map(bytes.startswith, lines, prefixes)):
        return None
    # Bytes outside ASCII may stand only in the prefixes, whose text the
    # caller has checked.
    if body.max() >= 0x80 and (np.count_nonzero(body >= 0x80) != np.count_nonzero(
            np.frombuffer(b"".join(prefixes), np.uint8) >= 0x80)):
        return None
    try:
        if skip == 1:
            # A frame index is a number, so loadtxt reads every field and
            # refuses lines that differ in their count.
            values = np.loadtxt(lines, delimiter=" ", comments=None, ndmin=2)
            values = np.ascontiguousarray(values[:, 1:])
        else:
            # loadtxt refuses a line with fewer fields than it reads but
            # ignores any after them, which the count of spaces finds.
            values = np.loadtxt(lines, delimiter=" ", comments=None, ndmin=2,
                                usecols=range(skip, skip + width))
            if np.count_nonzero(body == ord(" ")) != n * (skip + width - 1):
                return None
    except ValueError:
        return None
    if values.shape != (n, width) or faults(values)[0].any():
        return None
    return values


def _first_bad_record(r: _Reader, what: str, check) -> np.ndarray:
    """Raise the error of the first record `check(i, line_no, tokens)` rejects,
    or, if it rejects none, return the rows of numbers it gave, stacked.

    Only runs once `_records` has refused the file, so it may go line by line.
    A valid file gets here only if it holds a line break str.splitlines takes
    besides \\n, \\r\\n and \\r (\\v, \\f, \\x1c-\\x1e, \\x85, \\u2028,
    \\u2029), or an imu sensor id with a tab or \\x1f.
    """
    return np.concatenate([check(i, *r.next_tokens(what)) for i in range(r.remaining)])


def _check_values(r: _Reader, line_no: int, tokens: list[str], what: str, faults) -> np.ndarray:
    row = np.array([[r.parse_float(line_no, tok, what) for tok in tokens]])
    mask, name = faults(row)
    if mask.any():
        r.fail(line_no, name(int(np.argmax(mask[0]))))
    return row


def _refuse_faults(schema: str, faults, *columns: np.ndarray) -> None:
    """Raise ValueError naming the fault a reader would name first in the file
    of the rows of `columns` side by side, checked a bounded chunk at a time."""
    rows = max(1, _CHECK_VALUES // max(sum(c.shape[1] for c in columns), 1))
    for lo in range(0, len(columns[0]), rows):
        mask, name = faults(*(c[lo:lo + rows] for c in columns))
        if mask.any():
            raise ValueError(f"{schema}: {name(int(np.argmax(mask)) % mask.shape[1])}")


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


def _write_pose(path, schema: str, dim: int, values, faults) -> None:
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[2] != dim:
        raise ValueError(f"expected (T, J, {dim}), got {values.shape}")
    flat = values.reshape(len(values), -1)
    _refuse_faults(schema, faults, flat)
    _write_text(path, [f"{schema} 1\n"], _number_lines(map(str, range(len(flat))), flat))


def _read_pose(path, schema: str, dim: int, what: str, faults) -> np.ndarray:
    values = None
    stream = _stream_lines(path, schema)
    if stream:
        body, lines = stream
        width = lines[0].count(b" ")
        if width >= dim and width % dim == 0:
            prefixes = [b"%d " % t for t in range(len(lines))]
            values = _records(body, lines, prefixes, width, faults)
    if values is None:
        r = _Reader(path)
        r.expect_header(schema)
        if r.remaining == 0:
            r.fail(None, "no frames")
        width = r.lines[r.pos].count(" ")

        def check(t, line_no, tokens):
            idx = r.parse_int(line_no, tokens[0], "frame index")
            if idx != t:
                r.fail(line_no, f"frame index {idx} out of order, expected {t}")
            if t == 0 and ((len(tokens) - 1) % dim != 0 or len(tokens) < 1 + dim):
                r.fail(line_no, f"expected 1 + {dim}*J fields, got {len(tokens)}")
            if t > 0 and len(tokens) != 1 + width:
                r.fail(line_no, f"expected {1 + width} fields, got {len(tokens)}")
            return _check_values(r, line_no, tokens[1:], what, faults)

        values = _first_bad_record(r, "pose record", check)
    return values.reshape(len(values), width // dim, dim)


def write_pose3d(path, poses: np.ndarray) -> None:
    _write_pose(path, "pose3d", 3, poses, _coordinate_faults)


def read_pose3d(path) -> np.ndarray:
    return _read_pose(path, "pose3d", 3, "coordinate", _coordinate_faults)


def write_pose2d(path, pixels: np.ndarray) -> None:
    _write_pose(path, "pose2d", 2, pixels, _pixel_faults)


def read_pose2d(path) -> np.ndarray:
    return _read_pose(path, "pose2d", 2, "pixel", _pixel_faults)


# -- imu ---------------------------------------------------------------------

def _imu_faults(*blocks):  # the first block starts with the quaternion
    # Column by column: numpy reduces rows of a few values slowly.
    finite = np.logical_and.reduce([np.isfinite(c) for b in blocks for c in b.T])
    mask = np.stack([~finite, _zero_norm(blocks[0][:, :4])], axis=1)
    return mask, lambda c: ("non-finite value", "zero-norm quaternion")[c]


def write_imu(path, stream: ImuStream) -> None:
    if stream.frame_count == 0 or not stream.sensor_ids:
        raise ValueError("imu stream has no samples")
    for sid in stream.sensor_ids:
        if " " in sid or sid.splitlines() != [sid]:  # empty, or holding a line break
            raise ValueError(f"sensor id {sid!r} not serializable")
    q, a = stream.orientations.reshape(-1, 4), stream.accels.reshape(-1, 3)
    _refuse_faults("imu", _imu_faults, q, a)
    k = len(stream.sensor_ids)
    frames = itertools.chain.from_iterable(itertools.repeat(str(t), k) for t in range(stream.frame_count))
    prefixes = map(" ".join, zip(frames, itertools.cycle(stream.sensor_ids)))
    _write_text(path, ["imu 1\n"], _number_lines(prefixes, q, a))


def read_imu(path) -> ImuStream:
    values = None
    stream = _stream_lines(path, "imu")
    if stream:
        body, lines = stream
        k = 0
        while k < len(lines) and lines[k].startswith(b"0 "):
            k += 1
        ids = [line.split(b" ", 2)[1] for line in lines[:k]]
        try:  # as the text reader decodes them
            sensor_ids = [sid.decode("utf-8") for sid in ids]
        except UnicodeDecodeError:
            sensor_ids = None
        if (sensor_ids and len(set(sensor_ids)) == k and len(lines) % k == 0
                and all(sid.splitlines() == [sid] for sid in sensor_ids)):
            tails = [sid + b" " for sid in ids]
            heads = [b"%d " % t for t in range(len(lines) // k)]
            prefixes = [head + tail for head in heads for tail in tails]
            values = _records(body, lines, prefixes, 7, _imu_faults)
    if values is None:
        r = _Reader(path)
        r.expect_header("imu")
        n = r.remaining
        if n == 0:
            r.fail(None, "no frames")
        sensor_ids = []  # the layout of frame 0
        counts: list[int] = []  # sensors seen per frame

        def check(i, line_no, tokens):
            if len(tokens) != 9:
                r.fail(line_no, f"expected 9 fields, got {len(tokens)}")
            idx = r.parse_int(line_no, tokens[0], "frame index")
            sid = tokens[1]
            row = _check_values(r, line_no, tokens[2:], "value", _imu_faults)
            if idx == len(counts):
                counts.append(0)
            elif idx != len(counts) - 1 or idx < 0:
                r.fail(line_no, f"frame index {idx} out of order")
            if idx == 0:
                if sid in sensor_ids:
                    r.fail(line_no, f"duplicate sensor {sid} in frame 0")
                sensor_ids.append(sid)
            elif counts[idx] >= len(sensor_ids) or sensor_ids[counts[idx]] != sid:
                r.fail(line_no, f"sensor {sid} out of order (expected layout of frame 0)")
            counts[idx] += 1
            if i == n - 1:
                for t, count in enumerate(counts):
                    if count != len(sensor_ids):
                        r.fail(None, f"frame {t} has {count} sensors, expected {len(sensor_ids)}")
            return row

        values = _first_bad_record(r, "imu record", check)
    values = values.reshape(-1, len(sensor_ids), 7)
    return ImuStream(
        tuple(sensor_ids), np.ascontiguousarray(values[..., :4]), np.ascontiguousarray(values[..., 4:])
    )


# -- skeleton ----------------------------------------------------------------

def write_skeleton(path, skel: SkeletonDefinition) -> None:
    if not np.isfinite(skel.tpose).all():
        raise ValueError("T-pose coordinates must be finite")
    for name in skel.names:
        if " " in name or name.splitlines() != [name]:  # empty, or holding a line break
            raise ValueError(f"joint name {name!r} not serializable")
    prefixes = [f"joint {j} {name} {parent}"
                for j, (name, parent) in enumerate(zip(skel.names, skel.parents))]
    _write_text(path, [f"skeleton 1\njoints {skel.joint_count}\n"],
                _number_lines(prefixes, skel.tpose))


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
    for cal in calib.sensors:
        for token in (cal.sensor_id, cal.joint):
            if " " in token or token.splitlines() != [token]:  # empty, or holding a line break
                raise ValueError(f"token {token!r} not serializable")
    sensors = calib.sensors
    _write_text(path, ["calibration 1\n"], _number_lines(["gravity"], [calib.gravity]),
                _number_lines([f"sensor {cal.sensor_id} {cal.joint}" for cal in sensors],
                              np.reshape([cal.r_global for cal in sensors], (-1, 4)),
                              np.reshape([cal.r_joint for cal in sensors], (-1, 4))))


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
        if any(cal.sensor_id == tokens[1] for cal in sensors):
            r.fail(line_no, f"duplicate sensor {tokens[1]}")
        if any(cal.joint == tokens[2] for cal in sensors):
            r.fail(line_no, f"joint {tokens[2]} is bound to more than one sensor")
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
    # A Camera holds no value that read_camera refuses.
    _write_text(path, ["camera 1\n"],
                _number_lines(["fx", "fy", "cx", "cy"], [[cam.fx], [cam.fy], [cam.cx], [cam.cy]]),
                _number_lines(["rotation"], [cam.rotation]), _number_lines(["center"], [cam.center]))


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
