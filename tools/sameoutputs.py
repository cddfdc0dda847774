"""Check that two checkouts write the same synth and run outputs, byte for byte.

    python3 tools/sameoutputs.py --parent ../parent --change . --seeds 0-2 [--duration 8]

For each seed, `vifuse synth` runs once with each checkout's src/ and every
file of the two datasets is compared. Then `vifuse run` runs in every mode
with each checkout on the parent's dataset, and refined_pose3d.txt,
metrics.txt and metrics.json are compared. Without --duration the datasets
have synth's default length. The tool prints one line per comparison and
exits 1, naming every file that differs or is missing on one side, or every
command that failed; else it exits 0. Outputs go to a temporary directory
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

MODES = ("baseline", "sf2", "rto", "rtof")
RUN_FILES = ("refined_pose3d.txt", "metrics.txt", "metrics.json")

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


def vifuse(checkout: Path, *args) -> subprocess.CompletedProcess:
    """Run the vifuse CLI from `checkout`'s src/ alone."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    return subprocess.run([sys.executable, "-m", "vifuse.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


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

    def report(what: str, differ: list[str]) -> None:
        print(f"{what}: {'differs: ' + ' '.join(differ) if differ else 'same'}", flush=True)
        faults.extend(f"{what} {name}" for name in differ)

    def ran(what: str, proc: subprocess.CompletedProcess) -> bool:
        if proc.returncode:
            print(f"{what}: exit {proc.returncode}\n{proc.stderr.strip()}", flush=True)
            faults.append(f"{what} (exit {proc.returncode})")
        return proc.returncode == 0

    for seed in seeds:
        data = {side: work / side / f"seed{seed}" / "data" for side in sides}
        if not all([ran(f"seed {seed} {side} synth",
                        vifuse(checkout, "synth", "--out", data[side], "--seed", seed, *synth_args))
                    for side, checkout in sides.items()]):
            continue
        report(f"seed {seed} synth", differing_files(data["parent"], data["change"]))
        for mode in MODES:
            out = {side: work / side / f"seed{seed}" / mode for side in sides}
            if all([ran(f"seed {seed} {mode} {side} run",
                        vifuse(checkout, "run", "--config", data["parent"] / "run_config.json",
                               "--out", out[side], "--mode", mode))
                    for side, checkout in sides.items()]):
                report(f"seed {seed} {mode}",
                       differing_files(out["parent"], out["change"], RUN_FILES))
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
