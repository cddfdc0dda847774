"""tools/abpairs.py: the seed list it runs and the summary it writes."""

import argparse
import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

ABPAIRS = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"


@pytest.fixture(scope="module")
def abpairs():
    spec = importlib.util.spec_from_file_location("abpairs", ABPAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_seeds(abpairs):
    assert abpairs.parse_seeds("9500-9503") == [9500, 9501, 9502, 9503]
    assert abpairs.parse_seeds("7,3,5-6") == [7, 3, 5, 6]
    assert abpairs.parse_seeds("4") == [4]
    with pytest.raises(argparse.ArgumentTypeError, match="'9509-9500' names no seed"):
        abpairs.parse_seeds("9509-9500")
    with pytest.raises(argparse.ArgumentTypeError, match="'3-2' names no seed"):
        abpairs.parse_seeds("1,3-2")


def test_a_seed_list_that_names_no_seed_is_a_usage_error(abpairs, tmp_path, capsys):
    out = tmp_path / "BENCH_none.json"
    with pytest.raises(SystemExit) as exit_info:
        abpairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                      "--workload", "batch_rto", "--seeds", "9509-9500", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "names no seed" in capsys.readouterr().err
    assert not out.exists()


def test_quartiles_of_one_value(abpairs):
    assert abpairs.quartiles([3.5]) == (3.5, 3.5)
    assert abpairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


def runs(metric, values):
    return [{metric: v} for v in values]


def spec(better, bound=0.25):
    return {"better": better, "bound": bound}


def test_summarize_a_lower_metric(abpairs):
    got = abpairs.summarize(runs("setup_s", [2.0, 4.0, 3.0]), runs("setup_s", [1.0, 5.0, 1.5]),
                            {"setup_s": spec("lower")})["setup_s"]
    assert (got["parent_median"], got["change_median"]) == (3.0, 1.5)
    assert got["relative_change"] == -0.5
    assert got["parent_quartiles"] == [2.5, 3.5] and got["parent_quartile_spread"] == 1.0
    assert got["pairs_change_better"] == 2 and got["pairs"] == 3


def test_ties_count_for_neither_side(abpairs):
    for better in ("lower", "higher"):
        got = abpairs.summarize(runs("m", [1.0, 2.0]), runs("m", [1.0, 2.0]), {"m": spec(better)})["m"]
        assert got["pairs_change_better"] == 0 and got["relative_change"] == 0.0


def test_a_metric_missing_from_one_run_is_skipped(abpairs):
    parent = [{"a": 1.0, "b": 1.0}, {"a": 2.0}]
    change = [{"a": 3.0, "b": 1.0}, {"a": 4.0, "b": 1.0}]
    got = abpairs.summarize(parent, change, {"a": spec("higher"), "b": spec("higher")})
    assert list(got) == ["a"] and got["a"]["pairs_change_better"] == 2


def test_a_zero_parent_median_has_no_relative_change(abpairs):
    got = abpairs.summarize(runs("m", [0.0, 0.0, 1.0]), runs("m", [1.0, 1.0, 1.0]),
                            {"m": spec("higher")})["m"]
    assert got["parent_median"] == 0.0 and got["relative_change"] is None
    assert got["pairs_change_better"] == 2


PARENT = [100.0 + i for i in range(10)]  # median 104.5, quartile spread 4.5


@pytest.mark.parametrize("better", ["higher", "lower"])
@pytest.mark.parametrize("change, met", [
    ([99.0] + [v + 10.0 for v in PARENT[1:]], True),  # 9 of 10 pairs, median +10
    ([99.0, 100.0] + [v + 10.0 for v in PARENT[2:]], False),  # 8 of 10 pairs
    ([v + 4.0 for v in PARENT], False),  # 10 of 10 pairs, median +4 within the spread
])
def test_the_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_spread(
        abpairs, better, change, met):
    sign = 1.0 if better == "higher" else -1.0
    got = abpairs.summarize(runs("m", [sign * v for v in PARENT]),
                            runs("m", [sign * v for v in change]), {"m": spec(better)})["m"]
    assert got["gain_rule_met"] is met


# A lower metric whose parent runs spread by 1.25 around a median of 4.56, 27 %
# of it, wider than a bound of 25 %.
WIDE = [3.5, 4.0, 4.56, 5.25, 6.0]


@pytest.mark.parametrize("parent, change, bound, expected", [
    ([10.0, 10.1, 10.2, 10.3, 10.4], [11.0, 11.2, 11.4, 11.6, 11.8], 0.25, "within bound"),
    ([10.0, 10.1, 10.2, 10.3, 10.4], [13.0, 13.2, 13.4, 13.6, 13.8], 0.25, "worse"),
    (WIDE, [4.5, 5.0, 5.8, 6.2, 7.0], 0.25, "unresolved"),  # 27 % worse, but the parent spreads
    (WIDE, [4.5, 5.0, 5.8, 6.2, 7.0], 0.30, "within bound"),
    (WIDE, [1.0, 1.5, 2.0, 2.5, 3.4], 0.25, "within bound"),  # every change run beats every parent run
    (WIDE, [1.0, 1.5, 2.0, 2.5, 3.5], 0.25, "unresolved"),  # a tie with the parent's best
])
def test_the_verdict_against_the_bound(abpairs, parent, change, bound, expected):
    got = abpairs.summarize(runs("m", parent), runs("m", change), {"m": spec("lower", bound)})["m"]
    assert got["verdict"] == expected


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 2), (False, 1)])
def test_an_incorrect_or_failing_run_stops_the_tool(abpairs, tmp_path, monkeypatch, correct, failed):
    result = {"correct": correct, "attempted": 5, "failed": failed,
              "metrics": {"frames_per_s": {"value": 100.0, "unit": "frames/s"}}}
    stdout = "FAILED repeat 3: vifuse run exited 3\n" * bool(failed) + json.dumps(result) + "\n"

    def fake_run(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(abpairs.subprocess, "run", fake_run)
    out = tmp_path / "BENCH_bad.json"
    with pytest.raises(SystemExit) as exit_info:
        abpairs.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                      "--workload", "batch_rto", "--seeds", "41", "--out", str(out)])
    message = str(exit_info.value.code)
    assert message.startswith(f"abpairs: {tmp_path / 'p'}: batch_rto seed 41 reported correct: "
                              f"{json.dumps(correct)}, failed: {failed} of 5")
    assert ("FAILED repeat 3" in message) == bool(failed)
    assert not out.exists()


def test_a_correct_run_is_kept(abpairs, tmp_path, monkeypatch):
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"frames_per_s": {"value": 100.0, "unit": "frames/s"}}}
    monkeypatch.setattr(abpairs.subprocess, "run", lambda cmd, cwd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=json.dumps(result) + "\n", stderr=""))
    run = abpairs.run_once(tmp_path, "batch_rto", 41, 1.0)
    assert run == {"seed": 41, "correct": True, "attempted": 5, "failed": 0, "frames_per_s": 100.0}


def checkout(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


BENCH = {"BENCHMARK.json": "{}", "perfbench/run.py": "run", "perfbench/sub/probe.py": "probe"}


@pytest.mark.parametrize("edit, named", [
    ({"BENCHMARK.json": "{ }"}, "BENCHMARK.json"),
    ({"perfbench/sub/probe.py": "probe2", "perfbench/run.py": "run2"}, "perfbench/run.py"),
    ({"perfbench/extra.py": ""}, "perfbench/extra.py"),
])
def test_checkouts_with_different_benchmarks_are_refused(abpairs, tmp_path, monkeypatch, edit, named):
    parent = checkout(tmp_path / "p", BENCH)
    change = checkout(tmp_path / "c", {**BENCH, **edit})
    monkeypatch.setattr(abpairs.subprocess, "run", lambda *a, **kw: pytest.fail("ran a benchmark"))
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exit_info:
        abpairs.main(["--parent", str(parent), "--change", str(change), "--workload", "batch_rto",
                      "--seeds", "1", "--out", str(out)])
    assert str(exit_info.value.code) == (f"abpairs: {named} differs between {parent} and {change}; "
                                         "both must run the same benchmark")
    assert not out.exists()


def test_checkouts_with_the_same_benchmark_run(abpairs, tmp_path, monkeypatch):
    parent = checkout(tmp_path / "p", {**BENCH, "perfbench/__pycache__/run.pyc": "a", "src/x.py": "old"})
    change = checkout(tmp_path / "c", {**BENCH, "perfbench/__pycache__/run.pyc": "b", "src/x.py": "new"})
    assert abpairs.first_benchmark_difference(parent, change) is None
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"frames_per_s": {"value": 100.0, "unit": "frames/s"}}}
    monkeypatch.setattr(abpairs.subprocess, "run", lambda cmd, cwd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=json.dumps(result) + "\n", stderr=""))
    out = tmp_path / "BENCH_x.json"
    assert abpairs.main(["--parent", str(parent), "--change", str(change), "--workload", "batch_rto",
                         "--seeds", "1-2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["end_to_end"]["batch_rto"]["pairs"] == 2


def bench_output(tmp_path, name, timings):
    """perfbench/run.py's stdout for a correct run whose record, written under
    tmp_path, holds the repeat timings `timings` of (wall_s, slowdown)."""
    record = tmp_path / f"{name}.json"
    record.write_text(json.dumps({"repeat_timings": [
        {"wall_s": w, "probe_s": 0.01, "slowdown": s, "corrected_s": w / s} for w, s in timings]}))
    result = {"correct": True, "attempted": len(timings), "failed": 0,
              "metrics": {"frames_per_s": {"value": 100.0, "unit": "frames/s"}}}
    return f"fail_ratio 0/{len(timings)}\nrecord: {record}\n{json.dumps(result)}\n"


def test_a_run_keeps_its_repeats_median_raw_wall_and_slowdown(abpairs, tmp_path, monkeypatch):
    stdout = bench_output(tmp_path, "r", [(0.20, 1.10), (0.30, 1.30), (0.25, 1.15)])
    monkeypatch.setattr(abpairs.subprocess, "run", lambda cmd, cwd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=stdout, stderr=""))
    run = abpairs.run_once(tmp_path, "batch_rto", 41, 1.0)
    assert (run["wall_s"], run["slowdown"], run["frames_per_s"]) == (0.25, 1.15, 100.0)


# Parent slowdowns: median 1.14, quartile spread 0.02.
SLOW = [1.12, 1.13, 1.14, 1.15, 1.16]


@pytest.mark.parametrize("change, moved", [
    ([1.13, 1.14, 1.15, 1.15, 1.17], False),  # median 1.15: within the spread
    ([1.72, 1.80, 1.85, 1.88, 1.91], True),  # a program thread contends with the probe
    ([1.02, 1.05, 1.11, 1.11, 1.12], True),  # median 1.11: lower by more than the spread
])
def test_the_probe_moves_when_the_slowdown_medians_differ_beyond_the_spread(abpairs, change, moved):
    parent = [{"wall_s": 0.2 + 0.01 * i, "slowdown": s} for i, s in enumerate(SLOW)]
    changed = [{"wall_s": 0.1 + 0.01 * i, "slowdown": s} for i, s in enumerate(change)]
    got = abpairs.probe_summary(parent, changed)
    assert got["probe_moved"] is moved
    assert got["wall_s"]["parent_median"] == pytest.approx(0.22)
    assert got["wall_s"]["change_median"] == pytest.approx(0.12)
    assert got["slowdown"]["parent_median"] == 1.14
    assert got["slowdown"]["change_median"] == statistics.median(change)
    assert got["slowdown"]["parent_quartile_spread"] == pytest.approx(0.02)


def test_the_summary_holds_the_probe_of_every_pair(abpairs, tmp_path, monkeypatch, capsys):
    # The probe moves from the third pair on; before it, no progress line
    # raises the flag.
    outputs = {"p": bench_output(tmp_path, "p", [(0.30, 1.14)]),
               "c": bench_output(tmp_path, "c", [(0.25, 1.80)])}
    checkouts = {side: checkout(tmp_path / side, BENCH) for side in outputs}
    monkeypatch.setattr(abpairs.subprocess, "run", lambda cmd, cwd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=outputs[Path(cwd).name], stderr=""))
    out = tmp_path / "BENCH_x.json"
    assert abpairs.main(["--parent", str(checkouts["p"]), "--change", str(checkouts["c"]),
                         "--workload", "batch_rto", "--seeds", "1-3", "--out", str(out)]) == 0
    probe = json.loads(out.read_text())["end_to_end"]["batch_rto"]["summary"]["probe"]
    assert probe["wall_s"] == {"parent_median": 0.30, "change_median": 0.25,
                               "parent_quartile_spread": 0.0}
    assert probe["slowdown"]["change_median"] == 1.80 and probe["probe_moved"] is True
    pairs = [line for line in capsys.readouterr().out.splitlines() if " pair " in line]
    assert [line.endswith("slowdown 1.140 -> 1.800 (probe moved)") for line in pairs] == [
        False, False, True]


@pytest.mark.parametrize("pairs, moved", [(1, False), (2, False), (3, True)])
def test_the_probe_does_not_move_before_the_third_pair(abpairs, pairs, moved):
    # One or two parent runs have a quartile spread of 0 or half their
    # difference, which almost any difference in slowdown exceeds.
    parent = [{"slowdown": s} for s in SLOW[:pairs]]
    changed = [{"slowdown": s + 0.5} for s in SLOW[:pairs]]
    got = abpairs.probe_summary(parent, changed)
    assert got["slowdown"]["change_median"] - got["slowdown"]["parent_median"] == pytest.approx(0.5)
    assert got["slowdown"]["parent_quartile_spread"] < 0.5
    assert got["probe_moved"] is moved


def test_a_run_without_a_record_keeps_no_probe(abpairs):
    assert abpairs.probe_readings(Path("."), ["fail_ratio 0/3", "{}"]) == {}
    assert abpairs.probe_summary([{"m": 1.0}], [{"m": 2.0}]) == {}


def test_the_last_pair_prints_one_line_per_end_to_end_metric(abpairs, tmp_path, monkeypatch, capsys):
    # A lower emit latency in both pairs, the same MPJPE: each metric's line
    # reads the medians, the pairs won, the gain rule and the verdict.
    def result(emit):
        metrics = {"frames_per_s": 100.0, "stream_emit_ms_p50": emit, "mpjpe_mm": 12.5}
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": v, "unit": ""} for name, v in metrics.items()}}

    emits = {"p": iter([3.0, 3.1]), "c": iter([2.8, 2.9])}
    checkouts = {side: checkout(tmp_path / side, BENCH) for side in emits}
    monkeypatch.setattr(abpairs.subprocess, "run", lambda cmd, cwd, **kw: subprocess.CompletedProcess(
        cmd, 0, stdout=json.dumps(result(next(emits[Path(cwd).name]))) + "\n", stderr=""))
    assert abpairs.main(["--parent", str(checkouts["p"]), "--change", str(checkouts["c"]),
                         "--workload", "stream_rtof", "--seeds", "1-2",
                         "--out", str(tmp_path / "BENCH_x.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if " pair " in line] == [
        "stream_rtof pair 1/2 seed 1: frames_per_s 100 -> 100, change won 0/1, within bound",
        "stream_rtof pair 2/2 seed 2: frames_per_s 100 -> 100, change won 0/2, within bound"]
    assert lines[-3:] == [
        "stream_rtof frames_per_s: 100 -> 100, change won 0/2, gain_rule_met false, within bound",
        "stream_rtof stream_emit_ms_p50: 3.05 -> 2.85, change won 2/2, gain_rule_met true, "
        "within bound",
        "stream_rtof mpjpe_mm: 12.5 -> 12.5, change won 0/2, gain_rule_met false, within bound"]
