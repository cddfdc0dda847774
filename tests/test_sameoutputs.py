"""tools/sameoutputs.py: the files it compares and the exit status it gives."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sameoutputs():
    spec = importlib.util.spec_from_file_location("sameoutputs", ROOT / "tools" / "sameoutputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repo_against_itself_gives_the_same_outputs(sameoutputs, capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--seeds", "0", "--duration", "1"]
    assert sameoutputs.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == (
        ["seed 0 dense rig: same", "seed 0 synth: same"]
        + [f"seed 0 {mode}: same" for mode in sameoutputs.MODES])


def test_a_file_that_differs_by_one_byte_is_named(sameoutputs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, metrics in ((a, b"1.25\n"), (b, b"1.26\n")):
        d.mkdir()
        (d / "same.txt").write_bytes(b"0 1 2\n")
        (d / "metrics.txt").write_bytes(metrics)
    (a / "only_here.txt").write_bytes(b"")
    assert sameoutputs.differing_files(a, b) == ["metrics.txt", "only_here.txt"]
    assert sameoutputs.differing_files(a, b, ["same.txt", "refined_pose3d.txt"]) == [
        "refined_pose3d.txt"]


def test_a_differing_run_output_exits_1_naming_it(sameoutputs, tmp_path, monkeypatch, capsys):
    def fake_vifuse(checkout, command, *args):
        out = Path(args[args.index("--out") + 1])
        out.mkdir(parents=True)
        names = ("run_config.json", "imu.txt") if command == "synth" else sameoutputs.RUN_FILES
        for name in names:
            differ = checkout.name == "change" and out.name == "rtof" and name == "metrics.txt"
            (out / name).write_text("2\n" if differ else "1\n")
        return subprocess.CompletedProcess([command], 0, stdout="", stderr="")

    def fake_dense_rig(checkout, out, seed):
        out.mkdir(parents=True)
        (out / "run_stream_default.bin").write_bytes(b"\0")
        return subprocess.CompletedProcess(["dense"], 0, stdout="", stderr="")

    monkeypatch.setattr(sameoutputs, "vifuse", fake_vifuse)
    monkeypatch.setattr(sameoutputs, "dense_rig", fake_dense_rig)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "4"]
    assert sameoutputs.main(argv) == 1
    out, err = capsys.readouterr()
    assert "seed 4 rtof: differs: metrics.txt" in out.splitlines()
    assert "seed 4 rto: same" in out.splitlines()
    assert "seed 4 dense rig: same" in out.splitlines()
    assert err == "sameoutputs: seed 4 rtof metrics.txt\n"


def test_a_differing_file_gives_its_largest_absolute_difference(sameoutputs, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, x, short in ((a, 0.1 + 0.2, "1 2 3"), (b, 0.3, "1 2")):
        d.mkdir()
        (d / "short.txt").write_text(short)
        (d / "refined_pose3d.txt").write_text(f"pose3d 1\n0 1 {x!r} -5\n1 nan 2 3\n")
        (d / "metrics.json").write_text(json.dumps(
            {"fps": 25.0, "per_second": True, "mpjae": x * 1e3, "joint_mpjae": [x, 4.0]}))
        (d / "arrays.bin").write_bytes(np.array([1.0, x, 2.0]).tobytes())
    assert sameoutputs.largest_difference(a / "refined_pose3d.txt", b / "refined_pose3d.txt") == (
        "largest absolute difference 5.55e-17")
    assert sameoutputs.largest_difference(a / "metrics.json", b / "metrics.json") == (
        "largest absolute difference 5.68e-14")
    assert sameoutputs.largest_difference(a / "arrays.bin", b / "arrays.bin") == (
        "largest absolute difference 5.55e-17")
    assert sameoutputs.largest_difference(a / "short.txt", b / "short.txt") == (
        "3 numbers against 2")


def test_a_differing_run_output_prints_its_difference_and_still_exits_1(
        sameoutputs, tmp_path, monkeypatch, capsys):
    def fake_vifuse(checkout, command, *args):
        out = Path(args[args.index("--out") + 1])
        out.mkdir(parents=True)
        names = ("run_config.json",) if command == "synth" else sameoutputs.RUN_FILES
        for name in names:
            value = 0.25 if checkout.name == "change" and name == "metrics.json" else 0.5
            (out / name).write_text(json.dumps({"mpjje": value}) if name.endswith("json") else "1\n")
        return subprocess.CompletedProcess([command], 0, stdout="", stderr="")

    def fake_dense_rig(checkout, out, seed):
        out.mkdir(parents=True)
        # Bytes that differ in the sign of a zero alone.
        zero = -0.0 if checkout.name == "change" else 0.0
        (out / "run_stream_default.bin").write_bytes(np.array([1.0, zero]).tobytes())
        return subprocess.CompletedProcess(["dense"], 0, stdout="", stderr="")

    monkeypatch.setattr(sameoutputs, "vifuse", fake_vifuse)
    monkeypatch.setattr(sameoutputs, "dense_rig", fake_dense_rig)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "1"]
    assert sameoutputs.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["seed 1 dense rig: differs: run_stream_default.bin",
                         "  run_stream_default.bin: largest absolute difference 0",
                         "seed 1 synth: same"]
    assert lines[3:5] == ["seed 1 baseline: differs: metrics.json",
                          "  metrics.json: largest absolute difference 0.25"]


def test_the_dense_rig_outputs_hold_sf2_and_batch_and_stream_with_and_without_the_visual_term(
        sameoutputs, tmp_path, monkeypatch):
    # The capture the tool compares is the one the tests solve: it refines to
    # the same bytes on the batch and the streaming path, under both weights.
    monkeypatch.setattr(sameoutputs, "DENSE_DURATION", 2.0)
    sameoutputs.dense_rig_outputs(tmp_path / "out", 3)
    files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert sorted(files) == sorted(
        [f"{path}_{name}.bin" for path in ("refine_batch", "run_stream")
         for name in sameoutputs.DENSE_WEIGHTS]
        + [f"windows_{name}.json" for name in sameoutputs.DENSE_WEIGHTS] + ["sf2.bin"])
    assert len(files["sf2.bin"]) == 50 * 21 * 3 * 8
    for name in sameoutputs.DENSE_WEIGHTS:
        assert files[f"refine_batch_{name}.bin"] == files[f"run_stream_{name}.bin"]
        assert len(files[f"refine_batch_{name}.bin"]) == 50 * 21 * 3 * 8
        # One solve record per window of the 50-frame schedule at N = 50.
        records = json.loads(files[f"windows_{name}.json"])
        assert len(records) == 3
        for record in records:
            assert list(record) == list(sameoutputs.WINDOW_RECORD)
            assert record["final_value"] <= record["initial_value"]
            assert isinstance(record["converged"], bool)
            assert isinstance(record["iterations"], int) and record["iterations"] > 0
    assert files["refine_batch_default.bin"] != files["refine_batch_no_visual.bin"]
    assert files["windows_default.json"] != files["windows_no_visual.json"]
