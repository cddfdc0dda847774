"""Self-test of the benchmark at a tiny size (4 s of capture, 100 frames).

    python3 -m pytest -q perfbench

Runs every workload with and without tracing and checks the metric set
against BENCHMARK.json, the nesting of the traced spans and the self-time
accounting. Needs the repository's BENCHMARK.json and src/ beside perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--duration", "4"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_correct(workload):
    _, result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_second_seed_reports_the_same_metric_set():
    _, a = result_of(bench("batch_rto", 0, seed=3))
    _, b = result_of(bench("batch_rto", 0, seed=4))
    assert units(a) == units(b)
    assert a["metrics"]["mpjpe_mm"]["value"] != b["metrics"]["mpjpe_mm"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_spans_nest_and_self_times_add_up(workload):
    lines, result = result_of(bench(workload, 1))
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    trace_file = next(line.split(": ", 1)[1] for line in lines if line.startswith("trace: "))
    recorded = json.loads(Path(trace_file).read_text())["spans"]
    by_id = {s["id"]: s for s in recorded}
    assert {s["run"] for s in recorded} == {"setup", "run"}
    for s in recorded:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["run"] == s["run"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    selfs = spans.self_times(recorded)
    assert min(selfs) >= 0.0
    wall = sum(s["end"] - s["start"] for s in recorded if s["parent"] is None)
    assert sum(selfs) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    m = result["metrics"]
    layer_total = sum(m[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert layer_total == pytest.approx(m["trace.wall_s"]["value"], rel=1e-9, abs=1e-9)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("batch_rto", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_function_makes_its_metrics_absent():
    tracer = spans.Tracer("run")
    module = types.ModuleType("vifuse.pipeline")
    tracer.wrap(module, "evaluate", "metrics.evaluate")
    assert tracer.missing == ["vifuse.pipeline.evaluate"]
    with tracer.span("pipeline.cli_main"):
        pass
    m = spans.layer_metrics(tracer.spans, "run", tracer.missing)
    assert "metrics.evaluate_s" not in m
    assert "pipeline.other_s" in m


def test_self_time_excludes_children():
    recorded = [
        {"id": 0, "parent": None, "name": "a", "run": "r", "start": 0.0, "end": 10.0, "counts": {}},
        {"id": 1, "parent": 0, "name": "b", "run": "r", "start": 1.0, "end": 4.0, "counts": {}},
        {"id": 2, "parent": 0, "name": "c", "run": "r", "start": 5.0, "end": 6.0, "counts": {}},
        {"id": 3, "parent": 1, "name": "d", "run": "r", "start": 2.0, "end": 3.0, "counts": {}},
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]
