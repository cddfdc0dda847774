"""Check that two checkouts write the same synth and run outputs, byte for byte.

    python3 tools/sameoutputs.py --parent ../parent --change . --seeds 0-2 [--duration 8]

For each seed, `vifuse synth` runs once with each checkout's src/ and every
file of the two datasets is compared. Then `vifuse run` runs in every mode
with each checkout on the parent's dataset, and once more in rtof mode
without the visual term ("energy": {"k_visual": 0}), and refined_pose3d.txt,
metrics.txt and metrics.json are compared. Without --duration the datasets
have synth's default length. The CLI runs use the default eight-sensor rig,
so each checkout also runs sf2 on an 8 s capture of the 13-sensor rig of
the tests (tests/conftest.py) and refines it from its input poses, as rtof
does, with and without the visual term, through refine_batch and run_stream.
The bytes of the sf2 output and of the four refined outputs are compared,
with a JSON file per weight set of each window's solve record from
minimize_fragment, started from the input poses too, so that the
comparison also covers the values, step counts and flags of a solve whose
positions do not change. Each file ends with the record of one more
window, the capture's first SHORT_WINDOW frames, whose length is not N:
minimize_fragment takes its window length from the fragment. The tool
prints one line per comparison and exits 1, naming every file that
differs or is missing on one side, or every command that failed; else it
exits 0. Under a comparison that differs, one line per file that both
sides hold gives the largest absolute difference of its numbers, so a
change in the last bits reads as one. Outputs go to a temporary directory
that is removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MODES = ("baseline", "sf2", "rto", "rtof")
NO_VISUAL = {"k_visual": 0}  # the energy of the extra rtof run
RUN_FILES = ("refined_pose3d.txt", "metrics.txt", "metrics.json")
DENSE_DURATION = 8.0  # seconds: nine windows, two batch stacks
DENSE_WEIGHTS = {"default": {}, "no_visual": {"k_visual": 0.0}}
WINDOW_RECORD = ("initial_value", "final_value", "iterations", "converged", "behind_camera")
SHORT_WINDOW = 20  # frames of the last solve record's window, shorter than the default N = 50

_spec = importlib.util.spec_from_file_location("abpairs", Path(__file__).with_name("abpairs.py"))
abpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abpairs)


def differing_files(a: Path, b: Path, names=None) -> list[str]:
    """The names among `names` (default: every file in either directory)
    that one directory lacks or holds with other bytes than the other."""
    if names is None:
        names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.is_file()})
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


def _json_numbers(value) -> list[float]:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _json_numbers(item)]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return [float(value)] if is_number else []


def file_numbers(path: Path) -> np.ndarray:
    """The numbers in a file, in order: a .bin file's float64 values, a .json
    file's numbers, or every whitespace-separated field of a text file that
    float() reads."""
    if path.suffix == ".bin":
        data = path.read_bytes()
        return np.frombuffer(data, np.float64, len(data) // 8)
    if path.suffix == ".json":
        return np.array(_json_numbers(json.loads(path.read_text(encoding="utf-8"))), float)
    numbers = []
    for token in path.read_text(encoding="utf-8").split():
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return np.array(numbers, float)


def largest_difference(a: Path, b: Path) -> str:
    """The largest absolute difference between the numbers of two files, or
    why it has none."""
    x, y = file_numbers(a), file_numbers(b)
    if x.shape != y.shape:
        return f"{x.size} numbers against {y.size}"
    if (np.isnan(x) != np.isnan(y)).any():
        return "NaN at other places"
    with np.errstate(invalid="ignore"):  # inf - inf
        return f"largest absolute difference {np.nanmax(np.abs(x - y), initial=0.0):.3g}"


def python(checkout: Path, *args) -> subprocess.CompletedProcess:
    """Run Python with `checkout`'s src/ alone."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def vifuse(checkout: Path, *args) -> subprocess.CompletedProcess:
    """Run the vifuse CLI from `checkout`'s src/ alone."""
    return python(checkout, "-m", "vifuse.cli", *map(str, args))


def dense_rig_outputs(out: Path, seed: int) -> None:
    """Write into `out` the bytes of sf2's output and of refine_batch's and
    run_stream's output from the input poses on a default-noise capture of
    the 13-sensor rig, for each DENSE_WEIGHTS, as the tests' capture_problem
    builds it, and the WINDOW_RECORD of minimize_fragment over each window
    of the schedule and then over the first SHORT_WINDOW frames, from the
    input poses, one JSON list per weight set. Runs with whichever vifuse is
    importable."""
    from conftest import dense_calibration
    from vifuse import (DEFAULT_NOISE, EnergyConfig, Fragment, FragmentSchedule, Observations,
                        SequenceObservations, SolverSettings, apply_mode, calibrate_stream,
                        default_script, make_dataset, minimize_fragment, refine_batch, run_stream)

    ds = make_dataset(DEFAULT_NOISE, seed=seed, script=default_script(DENSE_DURATION),
                      calib=dense_calibration())
    sf2, _ = apply_mode("sf2", ds.skeleton, ds.inputs, ds.fps, calib=ds.calibration, imu=ds.imu)
    _, accel, bones = calibrate_stream(ds.calibration, ds.imu, ds.skeleton)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    seq = SequenceObservations(fps=ds.fps, pixels=ds.pixels, camera=ds.camera, accel=accel,
                               bones=bones, sensor_joints=joints,
                               sensor_parents=np.array(ds.skeleton.parents)[joints])
    out = Path(out)
    out.mkdir(parents=True)
    (out / "sf2.bin").write_bytes(sf2.tobytes())
    for name, weights in DENSE_WEIGHTS.items():
        cfg = EnergyConfig(**weights)
        batch, _ = refine_batch(ds.inputs, seq, cfg, SolverSettings())
        streamed = np.stack([row for _, row in run_stream(ds.inputs, seq, cfg, SolverSettings())])
        (out / f"refine_batch_{name}.bin").write_bytes(batch.tobytes())
        (out / f"run_stream_{name}.bin").write_bytes(streamed.tobytes())
        schedule = FragmentSchedule(len(ds.inputs), cfg.fragment_len)
        windows = [(schedule.window_frames(k), schedule.window_start(k))
                   for k in range(schedule.window_count)]
        windows.append((np.arange(SHORT_WINDOW), 0))
        records = []
        for rows, start in windows:
            window = Observations(pixels=seq.pixels[rows], camera=seq.camera, accel=accel[rows],
                                  bones=bones[rows], sensor_joints=seq.sensor_joints,
                                  sensor_parents=seq.sensor_parents)
            res = minimize_fragment(Fragment(ds.inputs[rows], ds.fps, start), window, cfg,
                                    SolverSettings())
            records.append({field: getattr(res, field) for field in WINDOW_RECORD})
        (out / f"windows_{name}.json").write_text(json.dumps(records, indent=1) + "\n",
                                                  encoding="utf-8")


def dense_rig(checkout: Path, out: Path, seed: int) -> subprocess.CompletedProcess:
    """Run dense_rig_outputs with `checkout`'s src/ alone."""
    here = Path(__file__).resolve().parent
    paths = [str(here), str(here.parent / "tests")]
    return python(checkout, "-c", f"import sys; sys.path[:0] = {paths!r}; import sameoutputs; "
                  f"sameoutputs.dense_rig_outputs({str(out)!r}, {int(seed)})")


def no_visual_config(data: Path, out: Path) -> Path:
    """Write to `out` the run config of the dataset in `data` with the
    NO_VISUAL energy and its stream paths made absolute, and return `out`."""
    config = json.loads((data / "run_config.json").read_text(encoding="utf-8"))
    config.update({key: str((data / value).resolve()) for key, value in config.items()
                   if isinstance(value, str) and key != "mode"})
    out.write_text(json.dumps({**config, "energy": NO_VISUAL}) + "\n", encoding="utf-8")
    return out


def compare(parent: Path, change: Path, seeds: list[int], duration: float | None,
            work: Path) -> list[str]:
    """Run every comparison under `work`, print one line each, and return
    what differs or failed."""
    sides = {"parent": parent, "change": change}
    synth_args = []
    if duration is not None:
        config = work / "synth.json"
        config.write_text(json.dumps({"duration": duration}) + "\n", encoding="utf-8")
        synth_args = ["--config", config]
    faults = []

    def report(what: str, a: Path, b: Path, names=None) -> None:
        differ = differing_files(a, b, names)
        print(f"{what}: {'differs: ' + ' '.join(differ) if differ else 'same'}", flush=True)
        for name in differ:
            if (a / name).is_file() and (b / name).is_file():
                print(f"  {name}: {largest_difference(a / name, b / name)}", flush=True)
        faults.extend(f"{what} {name}" for name in differ)

    def ran(what: str, proc: subprocess.CompletedProcess) -> bool:
        if proc.returncode:
            print(f"{what}: exit {proc.returncode}\n{proc.stderr.strip()}", flush=True)
            faults.append(f"{what} (exit {proc.returncode})")
        return proc.returncode == 0

    for seed in seeds:
        dense = {side: work / side / f"seed{seed}" / "dense_rig" for side in sides}
        if all([ran(f"seed {seed} dense rig {side}", dense_rig(checkout, dense[side], seed))
                for side, checkout in sides.items()]):
            report(f"seed {seed} dense rig", dense["parent"], dense["change"])
        data = {side: work / side / f"seed{seed}" / "data" for side in sides}
        if not all([ran(f"seed {seed} {side} synth",
                        vifuse(checkout, "synth", "--out", data[side], "--seed", seed, *synth_args))
                    for side, checkout in sides.items()]):
            continue
        report(f"seed {seed} synth", data["parent"], data["change"])
        config = data["parent"] / "run_config.json"
        runs = [(mode, mode, config) for mode in MODES] + [
            ("rtof no_visual", "rtof",
             no_visual_config(data["parent"], work / f"seed{seed}_no_visual.json"))]
        for what, mode, path in runs:
            out = {side: work / side / f"seed{seed}" / what.replace(" ", "_") for side in sides}
            if all([ran(f"seed {seed} {what} {side} run",
                        vifuse(checkout, "run", "--config", path, "--out", out[side],
                               "--mode", mode))
                    for side, checkout in sides.items()]):
                report(f"seed {seed} {what}", out["parent"], out["change"], RUN_FILES)
    return faults


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--seeds", type=abpairs.parse_seeds, required=True, help="e.g. 0-2 or 1,4,7")
    p.add_argument("--duration", type=float, help="synth duration in seconds (default: synth's)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="sameoutputs-") as work:
        faults = compare(args.parent, args.change, args.seeds, args.duration, Path(work))
    if faults:
        print("sameoutputs: " + "; ".join(faults), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
