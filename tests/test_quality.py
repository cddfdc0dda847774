"""tools/quality.py: the profiles it builds and the table it writes."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import vifuse

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quality():
    spec = importlib.util.spec_from_file_location("quality", ROOT / "tools" / "quality.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_profile_changes_its_one_stream(quality):
    default = quality.make_profile(vifuse, "default", 0, 2.0)
    correlated = quality.make_profile(vifuse, "correlated", 0, 2.0)
    noise, smooth = default.inputs - default.truth, correlated.inputs - correlated.truth
    np.testing.assert_allclose(smooth.std(axis=0), noise.std(axis=0), rtol=1e-9)
    # Low-passed: neighbouring frames' noise agrees far more than white noise's.
    assert np.abs(np.diff(smooth, axis=0)).mean() < 0.2 * np.abs(np.diff(noise, axis=0)).mean()
    bias = quality.make_profile(vifuse, "bias", 0, 2.0)
    offset = bias.imu.accels - default.imu.accels
    np.testing.assert_allclose(np.linalg.norm(offset, axis=-1), quality.BIAS_MM_S2)
    np.testing.assert_allclose(offset, np.broadcast_to(offset[0], offset.shape), atol=1e-9)
    assert bias.inputs.tobytes() == default.inputs.tobytes()
    rough = quality.make_profile(vifuse, "rough", 0, 2.0)
    assert np.abs(np.diff(rough.truth, 2, axis=0)).mean() > 2.0 * np.abs(
        np.diff(default.truth, 2, axis=0)).mean()
    assert len(quality.make_profile(vifuse, "13-sensor", 0, 2.0).imu.sensor_ids) == 13


def test_the_table_holds_every_stream_of_every_profile(quality, tmp_path, capsys):
    out = tmp_path / "QUALITY_tiny.json"
    assert quality.main(["--seeds", "0", "--duration", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [(r["profile"], r["stream"]) for r in rows] == [
        (p, s) for p in quality.PROFILES for s in quality.STREAMS]
    assert len(capsys.readouterr().out.splitlines()) == 1 + len(rows)
    by = {(r["profile"], r["stream"]): r for r in rows}
    for row in rows:
        for metric in ("mpjpe_mm", "mpjje"):
            assert all(np.isfinite(v) and v > 0.0 for v in row[metric].values())
        chains = 12 if row["profile"] != "13-sensor" else 17
        e = row["mpjpe_mm"]
        assert e["all"] == pytest.approx((chains * e["chain"] + (21 - chains) * e["free"]) / 21)
    ds = quality.make_profile(vifuse, "default", 0, 2.0)
    out, _ = vifuse.apply_mode("rtof", ds.skeleton, ds.inputs, ds.fps, pixels=ds.pixels,
                               camera=ds.camera, calib=ds.calibration, imu=ds.imu)
    assert by["default", "rtof"]["mpjpe_mm"]["all"] == pytest.approx(
        vifuse.mpjpe(out, ds.truth), rel=1e-12)
    # The bias reaches only the accelerations, which rtof alone reads.
    for stream in ("input", "sf2", "rto"):
        assert by["bias", stream] == {**by["default", stream], "profile": "bias"}
    assert by["bias", "rtof"]["mpjpe_mm"] != by["default", "rtof"]["mpjpe_mm"]

