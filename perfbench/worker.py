"""Timed part of one benchmark run, in a process of its own.

    python3 perfbench/worker.py JOB.json

The job file names the workload, its generated inputs and where to write.
The worker repeats the workload until it has at least `min_repeats` repeats
and `seconds` of wall time, then writes a JSON result: per-repeat wall times,
probe-corrected times (see probe.py) and outputs, per-frame emit times for
streaming, and its own peak resident memory. With `trace` set it instead
runs untraced repeats for half the time, then one traced repeat, and adds
the spans and the per-call energy timings. Correctness is judged by the
parent from the outputs written here.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import spans as spanlib
from probe import Probe
from vifuse import cli, energy, fileio, optimizer

ENERGY_TIMING_REPEATS = 3


def batch_repeat(job: dict, index: int, span, probe: Probe) -> dict:
    out = Path(job["out_dir"]) / f"repeat{index}"
    argv = ["run", "--config", job["config"], "--out", str(out), "--mode", job["mode"]]
    try:
        with probe.timing() as timing, span("pipeline.cli_main"):
            code = cli.main(argv)
        error = None if code == 0 else f"vifuse run exited {code}"
    except Exception as e:  # a crash is a failed repeat, not a failed benchmark
        error = f"vifuse run raised {type(e).__name__}: {e}"
    return {**timing, "error": error, "out": str(out)}


def load_stream_inputs(job: dict) -> dict:
    with np.load(job["stream_inputs"]) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["camera"] = fileio.read_camera(Path(job["data_dir"]) / "camera.txt")
    return arrays


def stream_repeat(job: dict, index: int, span, probe: Probe, a: dict) -> dict:
    start = a["start"]
    t_n = start.shape[0]
    out = np.full_like(start, np.nan)
    emit_ms = np.full(t_n, np.nan)
    emitted = np.zeros(t_n, dtype=int)
    emitting_calls = []  # (start, end, frames) of each call that emitted frames
    error = None
    try:
        with probe.timing() as timing, span("bench.stream_pass"):
            refiner = optimizer.StreamingRefiner(
                float(a["fps"]), energy.EnergyConfig(), optimizer.SolverSettings(),
                camera=a["camera"], sensor_joints=a["sensor_joints"],
                sensor_parents=a["sensor_parents"])
            for t in range(t_n + 1):
                tp = time.perf_counter()
                if t < t_n:
                    with span("optimizer.push"):
                        got = refiner.push(start[t], pixels=a["pixels"][t],
                                           accel=a["accel"][t], bones=a["bones"][t])
                else:
                    with span("optimizer.finish"):
                        got = refiner.finish()
                te = time.perf_counter()
                for idx, row in got:
                    out[idx] = row
                    emit_ms[idx] = (te - tp) * 1e3
                    emitted[idx] += 1
                if got:
                    emitting_calls.append((tp, te, [idx for idx, _ in got]))
    except Exception as e:  # a crash is a failed repeat, not a failed benchmark
        error = f"streaming raised {type(e).__name__}: {e}"
    for tp, te, frames in emitting_calls:
        emit_ms[frames] = probe.corrected(tp, te) * 1e3
    if error is None and not np.all(emitted == 1):
        error = (f"{int(np.sum(emitted == 0))} frames never emitted, "
                 f"{int(np.sum(emitted > 1))} emitted more than once")
    path = Path(job["out_dir"]) / f"stream{index}.npy"
    np.save(path, out)
    return {**timing, "error": error, "out": str(path), "emit_ms": emit_ms.tolist()}


def energy_call_us(captured: list[tuple]) -> dict[str, float]:
    """Median per-call time of total_energy and of each active term, at the
    start point of every fragment the traced repeat solved."""
    out = {}
    for term in spanlib.ENERGY_TERMS:
        fn = getattr(energy, "total_energy" if term == "total" else f"{term}_energy", None)
        if fn is None:
            continue
        samples = []
        for frag, obs, cfg in captured:
            if term != "total":
                weight = (getattr(cfg, "k_visual", 0.0) if term == "visual" else
                          getattr(cfg, "k_inertial", 0.0) * getattr(cfg, f"k_{term}", 0.0))
                if weight <= 0.0:
                    continue
            args = (frag, obs, cfg) if term == "total" else (frag, obs)
            fn(*args)
            for _ in range(ENERGY_TIMING_REPEATS):
                t0 = time.perf_counter()
                fn(*args)
                samples.append((time.perf_counter() - t0) * 1e6)
        out[term] = float(np.median(samples)) if samples else 0.0
    return out


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    inputs = load_stream_inputs(job) if job["workload"].startswith("stream") else None

    def repeat(index, span, probe):
        if inputs is None:
            return batch_repeat(job, index, span, probe)
        return stream_repeat(job, index, span, probe, inputs)

    seconds = job["seconds"] / 2 if job["trace"] else job["seconds"]
    min_repeats = 1 if job["trace"] else job["min_repeats"]
    probe = Probe()
    repeats = []
    t_start = time.perf_counter()
    while len(repeats) < min_repeats or time.perf_counter() - t_start < seconds:
        repeats.append(repeat(len(repeats), spanlib.no_span, probe))
    result = {"repeats": repeats,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    if job["trace"]:
        tracer = spanlib.Tracer("run")
        captured = {}

        def on_energy(args, rec):
            parent = tracer.parent_of(rec)
            if (parent is not None and parent["name"] == "optimizer.minimize_fragment"
                    and parent["id"] not in captured and len(args) == 3):
                captured[parent["id"]] = args

        spanlib.install(tracer, on_energy)
        try:
            traced = repeat(len(repeats), tracer.span, probe)
        finally:
            tracer.unwrap()
        traced["traced"] = True
        repeats.append(traced)
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
        result["energy_us"] = energy_call_us(list(captured.values()))

    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
