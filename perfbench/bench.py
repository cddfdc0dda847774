"""Set-up, correctness checks and metrics of one benchmark run.

The parent process generates the workload's inputs (timed as set-up), then
starts worker.py for the timed repeats, checks every output the worker
wrote, and prints the metrics. With tracing on, set-up and the worker's
traced repeat record spans, which are merged and written to a trace file
under .perfbench/ apart from the result files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans as spanlib
from probe import Probe
from vifuse import cli, energy, fileio, optimizer, pipeline
from vifuse import imu as vimu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench"

FPS = 25.0
JOINTS = 21
# Set-up repeats until it has taken SETUP_SECONDS, at most SETUP_MAX times: two
# 10 s syntheses for a batch workload, one 20 s streaming set-up. The run budget
# goes to the timed repeats instead.
SETUP_SECONDS = 15.0
SETUP_MAX = 3
MIN_REPEATS = 2  # a batch run needs a second repeat to check byte-identical output
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
RESULT_FILES = ("refined_pose3d.txt", "metrics.txt", "metrics.json")
MODES = {"batch_rtof": "rtof", "batch_rto": "rto", "stream_rtof": "rtof"}


class SetupError(RuntimeError):
    pass


# -- set-up ---------------------------------------------------------------------

def synth(data_dir: Path, seed: int, synth_config: Path, span) -> None:
    argv = ["synth", "--out", str(data_dir), "--config", str(synth_config), "--seed", str(seed)]
    with contextlib.redirect_stdout(io.StringIO()), span("pipeline.cli_main"):
        code = cli.main(argv)
    if code != 0:
        raise SetupError(f"vifuse synth exited {code}")


def stream_inputs(data_dir: Path, span) -> dict:
    """Read the generated files; calibrate the IMU stream and run sf2 to get
    the streaming refiner's start poses and observation rows."""
    files = json.loads((data_dir / "run_config.json").read_text())
    skel = fileio.read_skeleton(data_dir / files["skeleton"])
    poses = fileio.read_pose3d(data_dir / files["pose3d"])
    pixels = fileio.read_pose2d(data_dir / files["pose2d"])
    camera = fileio.read_camera(data_dir / files["camera"])
    calib = fileio.read_calibration(data_dir / files["calibration"])
    stream = fileio.read_imu(data_dir / files["imu"])
    _, accel, bones = vimu.calibrate_stream(calib, stream, skel)
    joints = np.array([skel.index_of(calib.sensor(sid).joint) for sid in stream.sensor_ids])
    with span("pipeline.apply_mode"):
        start, _ = pipeline.apply_mode("sf2", skel, poses, files["fps"], pixels=pixels,
                                       camera=camera, calib=calib, imu=stream)
    arrays = {
        "start": start, "pixels": pixels, "accel": np.asarray(accel), "bones": np.asarray(bones),
        "sensor_joints": joints, "sensor_parents": np.array([skel.parents[j] for j in joints]),
        "fps": np.float64(files["fps"]),
    }
    np.savez(data_dir / "stream_inputs.npz", **arrays)
    arrays["camera"] = camera
    return arrays


def set_up(workload: str, work: Path, seed: int, duration: float, tracer):
    """Generate the inputs; returns (one timing per set-up, data dir,
    streaming arrays or None). A traced run sets up once."""
    synth_config = work / "synth.json"
    synth_config.write_text(json.dumps({"duration": duration}))
    timings = []
    arrays = None
    max_repeats = 1 if tracer is not None else SETUP_MAX
    while len(timings) < max_repeats and sum(t["wall_s"] for t in timings) < SETUP_SECONDS:
        data_dir = work / f"data{len(timings)}"
        span = spanlib.no_span
        if tracer is not None:
            span = tracer.span
            spanlib.install(tracer)
        try:
            with Probe().timing() as timing, span("bench.setup"):
                synth(data_dir, seed, synth_config, span)
                if workload.startswith("stream"):
                    arrays = stream_inputs(data_dir, span)
        finally:
            if tracer is not None:
                tracer.unwrap()
        timings.append(timing)
    return timings, data_dir, arrays


# -- checks -----------------------------------------------------------------------

def load_pose3d(data: bytes) -> np.ndarray:
    rows = np.loadtxt(io.BytesIO(data), skiprows=1, ndmin=2)
    return rows[:, 1:].reshape(rows.shape[0], -1, 3)


def mpjpe(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(pred - truth, axis=2).mean())


def mpjje(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean norm of the third-difference error, per second (mm/s^3)."""
    def jerk(x):
        return x[3:] - 3.0 * x[2:-1] + 3.0 * x[1:-2] - x[:-3]
    return float(np.linalg.norm((jerk(pred) - jerk(truth)) * FPS ** 3, axis=2).mean())


def check_output(out: np.ndarray, truth: np.ndarray, frames: int, input_mpjpe: float) -> str | None:
    if out.shape != (frames, JOINTS, 3):
        return f"output shape {out.shape}, expected {(frames, JOINTS, 3)}"
    if not np.all(np.isfinite(out)):
        return "output has non-finite values"
    err = mpjpe(out, truth)
    if not err < input_mpjpe:
        return f"output MPJPE {err:.3f} mm is not below the input's {input_mpjpe:.3f} mm"
    return None


def check_metrics_file(text: bytes, out: np.ndarray, truth: np.ndarray) -> str | None:
    """The run's own metrics.json must agree with the benchmark's figures."""
    record = json.loads(text)
    for key, ours in (("mpjpe_mm", mpjpe(out, truth)), ("mpjje", mpjje(out, truth))):
        if not abs(record[key] - ours) <= 1e-6 * abs(ours):
            return f"metrics.json {key} {record[key]!r} disagrees with {ours!r}"
    return None


def check_batch(repeats, truth, frames, input_mpjpe):
    """c10: every repeat's result files are byte-identical to the first's."""
    errors, first, out, content = {}, None, None, None
    for i, r in enumerate(repeats):
        if r["error"]:
            errors[i] = r["error"]
            continue
        try:
            files = {name: (Path(r["out"]) / name).read_bytes() for name in RESULT_FILES}
        except OSError as e:
            errors[i] = f"result file missing: {e}"
            continue
        if first is None:
            first = files
            out = load_pose3d(files["refined_pose3d.txt"])
            content = (check_output(out, truth, frames, input_mpjpe)
                       or check_metrics_file(files["metrics.json"], out, truth))
        elif files != first:
            errors[i] = "result files differ from the first repeat's"
        if content:
            errors.setdefault(i, content)
    return errors, out


def check_stream(repeats, reference, truth, frames, input_mpjpe):
    """c07: every pass emits exactly the frames refine_batch gives, bit for bit."""
    errors, out = {}, None
    content = check_output(reference, truth, frames, input_mpjpe)
    for i, r in enumerate(repeats):
        if r["error"]:
            errors[i] = r["error"]
            continue
        emitted = np.load(r["out"])
        if emitted.shape != reference.shape or emitted.tobytes() != reference.tobytes():
            errors[i] = "streamed frames differ from refine_batch on the same inputs"
        elif content:
            errors[i] = content
        elif out is None:
            out = emitted
    return errors, out


def batch_reference(arrays: dict) -> np.ndarray:
    obs = optimizer.SequenceObservations(
        fps=float(arrays["fps"]), pixels=arrays["pixels"], camera=arrays["camera"],
        accel=arrays["accel"], bones=arrays["bones"],
        sensor_joints=arrays["sensor_joints"], sensor_parents=arrays["sensor_parents"])
    out, _ = optimizer.refine_batch(arrays["start"], obs, energy.EnergyConfig(),
                                    optimizer.SolverSettings())
    return out


# -- record -----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (not a git checkout)"


def machine_record(pinning: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "thread_pinning": pinning,
    }


# -- run ----------------------------------------------------------------------------

def run_worker(job: dict, work: Path, deadline: float) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    log = work / "worker.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise SetupError("worker ran past the run's time limit") from None
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise SetupError(f"worker exited {proc.returncode}:\n{tail}")
    return json.loads(Path(job["result"]).read_text())


def end_to_end(setup, repeats, frames, out, truth, result, workload) -> dict:
    """End-to-end metrics from probe-corrected times (see probe.py)."""
    walls = np.array([r["corrected_s"] for r in repeats])
    if workload.startswith("stream"):
        emit_ms = np.concatenate([r["emit_ms"] for r in repeats])
    else:
        # A batch run emits every frame when the whole `vifuse run` returns.
        emit_ms = np.repeat(walls * 1e3, frames)
    return {
        "setup_s": (float(np.median([t["corrected_s"] for t in setup])), "s"),
        "frames_per_s": (frames / float(np.median(walls)), "frames/s"),
        "stream_emit_ms_p50": (float(np.percentile(emit_ms, 50)), "ms"),
        "stream_emit_ms_p99": (float(np.percentile(emit_ms, 99)), "ms"),
        "mpjpe_mm": (mpjpe(out, truth), "mm"),
        "mpjje": (mpjje(out, truth), "mm/s3"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def merged_spans(setup_spans: list[dict], run_spans: list[dict]) -> list[dict]:
    offset = len(setup_spans)
    shifted = [dict(s, id=s["id"] + offset,
                    parent=None if s["parent"] is None else s["parent"] + offset)
               for s in run_spans]
    return setup_spans + shifted


def traced_metrics(spans: list[dict], absent: list[str], energy_us: dict, good: list[dict]) -> dict:
    """Per-layer metrics plus tracing overhead: the traced repeat's
    probe-corrected time against the median of the same worker's untraced
    repeats."""
    metrics = spanlib.layer_metrics(spans, "run", absent, energy_us)
    traced = [r["corrected_s"] for r in good if r.get("traced")]
    untraced = [r["corrected_s"] for r in good if not r.get("traced")]
    if traced and untraced:
        base = float(np.median(untraced))
        metrics["trace.run_s"] = (traced[0], "s")
        metrics["trace.untraced_s"] = (base, "s")
        metrics["trace.overhead_s"] = (traced[0] - base, "s")
    return metrics


def run(args, pinning: dict) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    frames = int(round(args.duration * FPS))
    trace = bool(args.trace)
    RECORDS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RECORDS))
    try:
        tracer = spanlib.Tracer("setup") if trace else None
        setup, data_dir, arrays = set_up(args.workload, work, args.seed, args.duration, tracer)
        truth = load_pose3d((data_dir / "truth_pose3d.txt").read_bytes())
        input_mpjpe = mpjpe(load_pose3d((data_dir / "input_pose3d.txt").read_bytes()), truth)
        reference = batch_reference(arrays) if arrays is not None else None
        out_dir = work / "out"
        out_dir.mkdir()
        job = {
            "workload": args.workload, "mode": MODES[args.workload],
            "config": str(data_dir / "run_config.json"), "data_dir": str(data_dir),
            "stream_inputs": str(data_dir / "stream_inputs.npz"), "out_dir": str(out_dir),
            "seconds": args.seconds, "min_repeats": MIN_REPEATS, "trace": trace,
            "result": str(work / "result.json"),
        }
        result = run_worker(job, work, deadline)
        repeats = result["repeats"]
        if reference is None:
            errors, out = check_batch(repeats, truth, frames, input_mpjpe)
        else:
            errors, out = check_stream(repeats, reference, truth, frames, input_mpjpe)
    except (SetupError, OSError, ValueError) as e:
        print(f"perfbench: {args.workload} could not run: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for i, r in enumerate(repeats) if i not in errors]
    untraced = [r for r in good if not r.get("traced")]
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    absent, table, trace_path = [], [], None
    if trace:
        spans = merged_spans(tracer.spans, result["spans"])
        absent = sorted(set(tracer.missing + result["missing"]))
        metrics = traced_metrics(spans, absent, result["energy_us"], good)
        table = spanlib.span_table(spans)
        trace_path = RECORDS / f"{stamp}-spans.json"
        trace_path.write_text(json.dumps({"spans": spans, "missing": absent}))
    elif untraced:
        metrics = end_to_end(setup, untraced, frames, out, truth, result, args.workload)
    else:
        metrics = {}

    failed = len(errors)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "frames": frames, "machine": machine_record(pinning),
        "setup": setup, "repeats": len(repeats),
        "repeat_timings": [{k: r[k] for k in ("wall_s", "probe_s", "slowdown", "corrected_s")
                            if k in r} for r in repeats],
        "failures": {str(i): e for i, e in errors.items()},
        "fail_ratio": failed / len(repeats), "absent": absent,
        "spans_by_name": [dict(zip(("name", "calls", "inclusive_s", "self_s"), row))
                          for row in table],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = RECORDS / f"{stamp}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for i, e in errors.items():
        print(f"FAILED repeat {i}: {e}")
    for name, calls, inclusive, own in table:
        print(f"span {name:32s} {calls:6d} calls {inclusive:10.4f} s {own:10.4f} s self")
    for k, (v, u) in metrics.items():
        print(f"{k:34s} {v:.6g} {u}")
    print(f"fail_ratio {failed}/{len(repeats)}")
    for name in absent:
        print(f"absent: {name}")
    print(f"record: {record_path}")
    if trace_path is not None:
        print(f"trace: {trace_path}")
    correct = failed == 0 and bool(untraced)
    print(json.dumps({"correct": correct, "attempted": len(repeats), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1
