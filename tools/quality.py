"""MPJPE and MPJJE of every stream on a set of noise profiles, printed and written to JSON.

    python3 tools/quality.py --seeds 0,1 [--duration 60] [--checkout ../parent] \
        --out QUALITY_example.json

For each profile and seed the tool builds a capture in memory, runs
`apply_mode` in sf2, rto and rtof on it, and reports MPJPE (mm) and MPJJE
(mm/s^3) of the input poses and of the three outputs: over the whole
skeleton, over the chain joints (the sensors' joints and their parents,
energy.RigLayout.chain_joints) and over the free joints (the others). It
imports vifuse from the src/ of --checkout, by default the checkout it lies
in, so one copy of the tool measures a parent and a change alike.

Every profile starts from make_dataset with the CLI's DEFAULT_NOISE on
default_script's motion, and changes one thing:

- default: nothing;
- correlated: the input poses' noise is low-passed over time with a
  Gaussian of sigma = 10 frames, each joint's and axis's variance kept;
- rough: each joint track's wave frequencies are each multiplied by a draw
  from U(2, 3.5), and the root's by 3, so the motion runs at about 0.3-3 Hz;
- bias: a constant 0.1 g (981 mm/s^2) per sensor, in a random direction,
  is added to the raw accelerometer readings in the sensor frame;
- 13-sensor: the 13-sensor rig of tests/conftest.py.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROFILES = ("default", "correlated", "rough", "bias", "13-sensor")
STREAMS = ("input", "sf2", "rto", "rtof")
CORRELATION_FRAMES = 10.0  # sigma of the correlated profile's Gaussian, in frames
ROUGH_FACTORS = (2.0, 3.5)  # the rough profile's range of joint frequency factors
ROUGH_ROOT_FACTOR = 3.0
BIAS_MM_S2 = 981.0  # 0.1 g


def load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abpairs = load_module("abpairs", ROOT / "tools" / "abpairs.py")


def low_pass(x: np.ndarray, sigma: float) -> np.ndarray:
    """`x` filtered along axis 0 by a Gaussian of `sigma` rows, its ends held."""
    r = int(4 * sigma)
    kernel = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    padded = np.pad(x, [(r, r)] + [(0, 0)] * (x.ndim - 1), mode="edge")
    return sum(w * padded[i:i + len(x)] for i, w in enumerate(kernel / kernel.sum()))


def rough_script(script, seed: int):
    """`script` with every joint wave's frequency scaled by a seeded draw
    from ROUGH_FACTORS and every root wave's by ROUGH_ROOT_FACTOR."""
    rng = np.random.default_rng(seed)
    tracks = {j: dataclasses.replace(track, waves=tuple(
        dataclasses.replace(w, frequency=w.frequency * rng.uniform(*ROUGH_FACTORS))
        for w in track.waves)) for j, track in script.tracks.items()}
    root_waves = tuple(dataclasses.replace(w, frequency=w.frequency * ROUGH_ROOT_FACTOR)
                       for w in script.root_waves)
    return dataclasses.replace(script, tracks=tracks, root_waves=root_waves)


def make_profile(vifuse, profile: str, seed: int, duration: float):
    """The capture of `profile` at `seed`, `duration` seconds long."""
    script = vifuse.default_script(duration)
    if profile == "rough":
        script = rough_script(script, 7)  # default_script's own seed: one rough motion
    calib = None
    if profile == "13-sensor":
        calib = load_module("conftest", ROOT / "tests" / "conftest.py").dense_calibration()
    ds = vifuse.make_dataset(vifuse.DEFAULT_NOISE, seed=seed, script=script, calib=calib)
    if profile == "correlated":
        noise = ds.inputs - ds.truth
        smooth = low_pass(noise, CORRELATION_FRAMES)
        ds = dataclasses.replace(ds, inputs=ds.truth + smooth * (noise.std(axis=0)
                                                                 / smooth.std(axis=0)))
    elif profile == "bias":
        rng = np.random.default_rng((seed, 13))
        way = rng.standard_normal((len(ds.imu.sensor_ids), 3))
        bias = BIAS_MM_S2 * way / np.linalg.norm(way, axis=1, keepdims=True)
        ds = dataclasses.replace(ds, imu=dataclasses.replace(ds.imu, accels=ds.imu.accels + bias))
    return ds


def errors(vifuse, out: np.ndarray, ds, groups: dict[str, np.ndarray]) -> dict:
    """MPJPE and MPJJE of `out` against the truth over each joint group."""
    per_joint = {"mpjpe_mm": vifuse.per_joint_mpjpe(out, ds.truth),
                 "mpjje": vifuse.per_joint_mpjje(out, ds.truth, ds.fps)}
    return {name: {group: float(values[joints].mean()) for group, joints in groups.items()}
            for name, values in per_joint.items()}


def measure(vifuse, profile: str, seed: int, duration: float) -> list[dict]:
    """One row per stream of `profile` at `seed`."""
    ds = make_profile(vifuse, profile, seed, duration)
    joints = ds.calibration.joint_indices(ds.skeleton, ds.imu.sensor_ids)
    chain = np.union1d(joints, np.array(ds.skeleton.parents)[joints])
    groups = {"all": np.arange(ds.skeleton.joint_count), "chain": chain,
              "free": np.setdiff1d(np.arange(ds.skeleton.joint_count), chain)}
    kw = dict(pixels=ds.pixels, camera=ds.camera, calib=ds.calibration, imu=ds.imu)
    rows = []
    for stream in STREAMS:
        out = ds.inputs
        if stream != "input":
            out, _ = vifuse.apply_mode(stream, ds.skeleton, ds.inputs, ds.fps, **kw)
        rows.append({"profile": profile, "seed": seed, "stream": stream,
                     **errors(vifuse, out, ds, groups)})
    return rows


def format_row(row: dict) -> str:
    e, j = row["mpjpe_mm"], row["mpjje"]
    return (f"{row['profile']:<10} {row['seed']:>4} {row['stream']:<6} "
            f"{e['all']:7.2f} ({e['chain']:6.2f} / {e['free']:6.2f})  "
            f"{j['all']:.3e} ({j['chain']:.3e} / {j['free']:.3e})")


def load_vifuse(checkout: Path):
    """The vifuse package of `checkout`'s src/."""
    sys.path.insert(0, str(checkout.resolve() / "src"))
    import vifuse
    return vifuse


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=abpairs.parse_seeds, required=True, help="e.g. 0-1 or 1,4,7")
    p.add_argument("--duration", type=float, default=60.0, help="capture length in seconds")
    p.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose src/ to measure")
    p.add_argument("--out", type=Path, required=True, help="the QUALITY_*.json to write")
    args = p.parse_args(argv)
    vifuse = load_vifuse(args.checkout)
    print(f"{'profile':<10} {'seed':>4} {'stream':<6} "
          "MPJPE mm (chain / free)   MPJJE mm/s^3 (chain / free)", flush=True)
    rows = []
    for profile in PROFILES:
        for seed in args.seeds:
            for row in measure(vifuse, profile, seed, args.duration):
                print(format_row(row), flush=True)
                rows.append(row)
    args.out.write_text(json.dumps({"duration_s": args.duration, "rows": rows}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
