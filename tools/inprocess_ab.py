"""Time two checkouts' vifuse against each other in one process, calls interleaved.

    python3 tools/inprocess_ab.py --parent ../parent --change . --what stream --rounds 16 \
        [--seed 0 --duration 60]

Both checkouts' src/vifuse are imported into this one process, as the
packages vifuse_parent and vifuse_change, through a temporary directory of
symlinks. The parent's synth writes a capture of --duration seconds with
--seed into a temporary directory, and each side prepares its call from
those files with its own readers:

- sf2, rto, rtof: run_pipeline on the capture's run_config.json in that
  mode, then write_results: `vifuse run` without a new process;
- batch, stream: refine_batch, or run_stream frame by frame, over what rtof
  solves: the input poses as the start, with the calibrated IMU streams;
- emit: the stream pass of `stream`, timed push by push: a round's time is
  the median time of the pushes that emit frames, printed in ms.

One untimed call per side checks that the two outputs are bitwise equal; if
they are not, the largest absolute difference is printed and the tool exits
1 after the timing. Then each of --rounds rounds times one call per side,
parent first in even rounds and change first in odd ones (ABBA). The tool
prints each side's minimum and quartiles, the quartiles over rounds of the
change's time over the parent's, whose spread tells a change from noise,
and how many rounds each side won.

Only interleaved calls in one process compare: the same code may run at
0.8x-1.3x speed in phases that last seconds, which separate runs take as a
difference between the checkouts. One compute thread is used, as perfbench
pins it, when this runs as a script.

The two sides share one heap, so this cannot measure a change to
allocation patterns: whether an array comes from memory that is already
mapped, or is mapped and faulted in afresh, depends on what the other side
freed before it. Time such a change in separate processes with
tools/abpairs.py. Keeping the chain factor's block storage across a run's
stacks gave a time ratio of 1.017 here at 300-frame stacks (the change
faster in only 18 of 40 rounds), but ran 3.5% faster in separate perfbench
processes (4 of 4 pairs).
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # before numpy loads
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[_name] = "1"

import numpy as np

WHATS = ("batch", "stream", "emit", "sf2", "rto", "rtof")
SIDES = ("parent", "change")


def import_sides(parent: Path, change: Path, links: Path) -> dict:
    """Each checkout's vifuse, imported as vifuse_<side> from symlinks in
    `links`, with no bytecode caches written into the checkouts."""
    sys.path.insert(0, str(links))
    packages, cache = {}, sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for side, checkout in zip(SIDES, (parent, change)):
            (links / f"vifuse_{side}").symlink_to(checkout.resolve() / "src" / "vifuse")
            packages[side] = importlib.import_module(f"vifuse_{side}")
    finally:
        sys.dont_write_bytecode = cache
    return packages


def rtof_problem(vf, config):
    """The start and observations that rtof hands refine_batch."""
    skel = vf.read_skeleton(config.skeleton)
    calib, imu = vf.read_calibration(config.calibration), vf.read_imu(config.imu)
    start = vf.read_pose3d(config.pose3d)
    _, accel, bones = vf.calibrate_stream(calib, imu, skel)
    joints = calib.joint_indices(skel, imu.sensor_ids)
    seq = vf.SequenceObservations(
        fps=config.fps, pixels=vf.read_pose2d(config.pose2d), camera=vf.read_camera(config.camera),
        accel=accel, bones=bones, sensor_joints=joints,
        sensor_parents=np.array(skel.parents)[joints])
    return start, seq


def timed(run):
    """A call of `run` that returns its output and its time in seconds."""
    def call():
        t0 = time.perf_counter()
        output = run()
        return output, time.perf_counter() - t0
    return call


def emit_call(vf, start: np.ndarray, seq, cfg, settings):
    """A stream pass that returns its output and the median seconds of the
    pushes that emitted frames."""
    def call():
        refiner = vf.StreamingRefiner(seq.fps, cfg, settings, camera=seq.camera,
                                      sensor_joints=seq.sensor_joints,
                                      sensor_parents=seq.sensor_parents)
        rows, emits = [], []
        for t in range(len(start)):
            t0 = time.perf_counter()
            got = refiner.push(start[t], pixels=seq.pixels[t], accel=seq.accel[t],
                               bones=seq.bones[t])
            if got:
                emits.append(time.perf_counter() - t0)
            rows += got
        rows += refiner.finish()
        if not emits:
            raise ValueError(f"no push emitted frames: {len(start)} frames are too few")
        return np.stack([row for _, row in rows]), statistics.median(emits)
    return call


def prepare(vf, what: str, run_config: Path, out: Path):
    """A call that runs `what` with the package `vf` and returns its output
    array and its time in seconds."""
    if what in ("sf2", "rto", "rtof"):
        def run():
            result = vf.run_pipeline(vf.RunConfig.from_file(run_config, mode=what))
            vf.write_results(result, out)
            return result.output
        return timed(run)
    start, seq = rtof_problem(vf, vf.RunConfig.from_file(run_config))
    cfg, settings = vf.EnergyConfig(), vf.SolverSettings()
    if what == "batch":
        return timed(lambda: vf.refine_batch(start, seq, cfg, settings)[0])
    if what == "emit":
        return emit_call(vf, start, seq, cfg, settings)
    return timed(lambda: np.stack([row for _, row in vf.run_stream(start, seq, cfg, settings)]))


def largest_difference(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    with np.errstate(invalid="ignore"):  # inf - inf
        return f"largest absolute difference {np.nanmax(np.abs(a - b), initial=0.0):.3g}"


def time_rounds(calls: dict, rounds: int) -> dict[str, list[float]]:
    """The time each side's call reports over `rounds` ABBA-ordered rounds."""
    times = {side: [] for side in SIDES}
    for r in range(rounds):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            times[side].append(calls[side]()[1])
    return times


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of `values`, each the one value when there is one."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summary(times: dict[str, list[float]], unit: str = "s") -> list[str]:
    lines = []
    for side in SIDES:
        t = times[side]
        q1, median, q3 = quartiles(t)
        lines.append(f"{side}: min {min(t):.4f} {unit}  q1 {q1:.4f}  median {median:.4f}  "
                     f"q3 {q3:.4f}")
    q1, median, q3 = quartiles([c / p for p, c in zip(times["parent"], times["change"])])
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    losses = sum(c > p for p, c in zip(times["parent"], times["change"]))
    lines.append(f"change/parent: paired ratio q1 {q1:.3f}  median {median:.3f}  q3 {q3:.3f} over "
                 f"{len(times['parent'])} rounds; change faster in {wins}, parent faster in {losses}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--what", choices=WHATS, required=True)
    p.add_argument("--rounds", type=int, required=True, help="timed rounds, one call per side each")
    p.add_argument("--seed", type=int, default=0, help="capture seed (default 0)")
    p.add_argument("--duration", type=float, default=60.0, help="capture seconds (default 60)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory(prefix="inprocess-ab-") as work:
        work = Path(work)
        (work / "links").mkdir()
        try:
            packages = import_sides(args.parent, args.change, work / "links")
            synth = packages["parent"]
            config = synth.SynthConfig(seed=args.seed, duration=args.duration)
            synth.write_dataset(synth.generate_dataset(config), work / "data")
            calls = {side: prepare(vf, args.what, work / "data" / "run_config.json", work / side)
                     for side, vf in packages.items()}
            outputs = {side: call()[0] for side, call in calls.items()}
            same = outputs["parent"].tobytes() == outputs["change"].tobytes()
            print("outputs: " + ("same" if same else "differ, "
                                 + largest_difference(outputs["parent"], outputs["change"])))
            times = time_rounds(calls, args.rounds)
            if args.what == "emit":
                times = {side: [1e3 * t for t in times[side]] for side in SIDES}
            print("\n".join(summary(times, "ms" if args.what == "emit" else "s")))
        finally:
            sys.path.remove(str(work / "links"))
            for side in SIDES:
                for name in [m for m in sys.modules if m.split(".")[0] == f"vifuse_{side}"]:
                    del sys.modules[name]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
