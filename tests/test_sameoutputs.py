"""tools/sameoutputs.py: the files it compares and the exit status it gives."""

import importlib.util
import subprocess
from pathlib import Path

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


def test_the_dense_rig_outputs_hold_batch_and_stream_with_and_without_the_visual_term(
        sameoutputs, tmp_path, monkeypatch):
    # The capture the tool compares is the one the tests solve: it refines to
    # the same bytes on the batch and the streaming path, under both weights.
    monkeypatch.setattr(sameoutputs, "DENSE_DURATION", 2.0)
    sameoutputs.dense_rig_outputs(tmp_path / "out", 3)
    files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert sorted(files) == sorted(f"{path}_{name}.bin" for path in ("refine_batch", "run_stream")
                                   for name in sameoutputs.DENSE_WEIGHTS)
    for name in sameoutputs.DENSE_WEIGHTS:
        assert files[f"refine_batch_{name}.bin"] == files[f"run_stream_{name}.bin"]
        assert len(files[f"refine_batch_{name}.bin"]) == 50 * 21 * 3 * 8
    assert files["refine_batch_default.bin"] != files["refine_batch_no_visual.bin"]
