"""Fault injection for the rig formats and the run config.

A rig file (`skeleton.txt`, `calibration.txt`, `camera.txt`) with tokens or
lines replaced, dropped or duplicated must either parse or raise FormatError.
A mutated run-config dict must either build a RunConfig whose options hold
values of their declared kinds or raise ConfigError.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vifuse import (
    ConfigError,
    EnergyConfig,
    FormatError,
    RunConfig,
    SolverSettings,
    default_calibration,
    default_camera,
    default_skeleton,
    read_calibration,
    read_camera,
    read_skeleton,
    write_calibration,
    write_camera,
    write_skeleton,
)

RIG = {
    "skeleton": (lambda p: write_skeleton(p, default_skeleton()), read_skeleton),
    "calibration": (lambda p: write_calibration(p, default_calibration()), read_calibration),
    "camera": (lambda p: write_camera(p, default_camera()), read_camera),
}

# Tokens a mutation may write: edge-case numbers and integers, keywords of the
# three formats, and (drawn separately) tokens of the file being mutated, which
# repeat names, ids and indices.
EDGE_TOKENS = ["", "0", "-0", "1", "-1", "2", "21", "1.5", "1e300", "-1e300", "1e-300",
               "nan", "inf", "-inf", "x", "joint", "joints", "sensor", "gravity", "fx",
               "rotation", "center", "99999999999999999999"]


@st.composite
def mutated_lines(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        kind = draw(st.sampled_from(
            ["token", "drop_token", "dup_token", "drop_line", "dup_line", "copy_line", "blank"]))
        if kind == "blank" or not lines:
            lines.insert(i, draw(st.sampled_from(["", " "])))
            continue
        fields = lines[i].split(" ")
        j = draw(st.integers(0, len(fields) - 1))
        if kind == "token":
            own = [t for line in lines for t in line.split(" ")]
            fields[j] = draw(st.sampled_from(EDGE_TOKENS) | st.sampled_from(own))
        elif kind == "drop_token":
            del fields[j]
        elif kind == "dup_token":
            fields.insert(j, fields[j])
        elif kind == "drop_line":
            del lines[i]
            continue
        elif kind == "dup_line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        else:  # copy_line: another line's content over this one
            fields = draw(st.sampled_from(lines)).split(" ")
        lines[i] = " ".join(fields)
    return lines


@pytest.mark.parametrize("fmt", sorted(RIG))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_rig_file_parses_or_raises_format_error(tmp_path, fmt, data):
    write, read = RIG[fmt]
    path = tmp_path / f"{fmt}.txt"
    write(path)
    lines = data.draw(mutated_lines(path.read_text().splitlines()))
    path.write_text("\n".join(lines) + "\n")
    try:
        read(path)
    except FormatError:
        pass


VALID_CONFIG = {
    "mode": "rtof", "fps": 25.0, "skeleton": "skeleton.txt", "pose3d": "input_pose3d.txt",
    "pose2d": "pose2d.txt", "camera": "camera.txt", "calibration": "calibration.txt",
    "imu": "imu.txt", "truth": "truth_pose3d.txt", "per_second_metrics": True,
    "energy": {"k_visual": 1.0, "fragment_len": 50},
    "solver": {"max_iterations": 30, "grad_tol": 1e-6},
}

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 100), st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(["", "rto", "x.txt", "sf2"]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(
        ["k_visual", "fragment_len", "max_iterations", "grad_tol", "zap"]), inner, max_size=3),
    max_leaves=6)


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# The values each declared option type takes.
KIND_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _number,
    "bool": lambda v: isinstance(v, bool),
    "EnergyConfig": lambda v: isinstance(v, EnergyConfig),
    "SolverSettings": lambda v: isinstance(v, SolverSettings),
}


def _check_kinds(obj):
    for f in dataclasses.fields(obj):
        if f.name == "scales":  # total_energy's fixed denominators, not an option
            continue
        value = getattr(obj, f.name)
        assert KIND_CHECKS[f.type](value), f"{type(obj).__name__}.{f.name} = {value!r}"
        if dataclasses.is_dataclass(value):
            _check_kinds(value)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_mutated_run_config_builds_declared_kinds_or_raises_config_error(data):
    config = json.loads(json.dumps(VALID_CONFIG))
    for _ in range(data.draw(st.integers(1, 3))):
        sections = [config] + [config[k] for k in ("energy", "solver")
                               if isinstance(config.get(k), dict)]
        section = data.draw(st.sampled_from(sections))
        key = data.draw(st.sampled_from(sorted(section)) if section else st.just("zap"))
        if data.draw(st.booleans()) and key in section:
            del section[key]
        else:
            section[key] = data.draw(json_values)
    try:
        built = RunConfig.from_dict(config, "/data")
    except ConfigError:
        return
    _check_kinds(built)
