"""Alternating parent/change pairs of perfbench runs, summarized into a BENCH_*.json.

    python3 tools/abpairs.py --parent ../parent --change . --workload stream_rtof \
        --seeds 9500-9509 --seconds 10 --out BENCH_example.json

Each pair runs `python3 perfbench/run.py --trace 0` once in the parent
checkout and once in the change checkout on the same seed, alternating
which side runs first. A run that reports `correct: false` or failed
repeats stops the tool with an error naming the checkout, the workload
and the seed. Every run's JSON result line is kept, and for each
end-to-end metric the file gets both sides' medians and quartiles, the
parent's quartile spread, the number of pairs the change won (ties win
for neither side) and two verdicts:

- `gain_rule_met`: the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's spread;
- `verdict`, against the metric's BENCHMARK.json bound (a fraction of the
  parent's median): "unresolved" when the parent's spread is wider than the
  bound, unless every change run beats every parent run; else "worse" when
  the change's median is worse by more than the bound; else "within bound".

The end-to-end times are corrected by perfbench's probe, which reads the
host's slowdown. Each run's record (the `record:` path that perfbench/run.py
prints) also gives its repeats' raw `wall_s` and probe `slowdown`; a run
keeps their medians, and the summary's `probe` entry holds both sides'
medians of them with `probe_moved`: whether, once at least PROBE_MIN_PAIRS
pairs have run, the two sides' slowdown medians differ by more than the
parent's quartile spread. Before that it is false: one parent run has a
spread of 0, which any difference exceeds. A change that moves the
probe itself, say by contending for the interpreter the probe runs in,
moves the corrected times by as much, which the raw walls show.

After each pair the tool prints a progress line on frames_per_s; after the
last, one line per end-to-end metric with both medians, the pairs the
change won, `gain_rule_met` and `verdict`, so a claim on any metric reads
off the terminal.

A later call with another workload adds it to the same file. The checkouts
are only read and run; nothing under perfbench/ is changed. Each side runs
its own perfbench/, so the tool refuses to start, naming the first file that
differs, unless both checkouts hold the same BENCHMARK.json and the same
files under perfbench/ (bytecode caches aside).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PROBE = ("wall_s", "slowdown")  # read from each run's record, per repeat
PROBE_MIN_PAIRS = 3  # pairs before probe_moved can be raised


def parse_seeds(text: str) -> list[int]:
    """'9500-9509' or '9500,9502,9507'. A part that names no seed, such as the
    descending range '9509-9500', is refused."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        named = range(int(lo), int(hi or lo) + 1)
        if not named:
            raise argparse.ArgumentTypeError(f"{part!r} names no seed")
        seeds += named
    return seeds


def end_to_end_metrics(benchmark: Path) -> dict[str, dict]:
    """Each end-to-end metric's BENCHMARK.json entry: its better direction
    ("higher" or "lower") and its bound, by name."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def benchmark_files(checkout: Path) -> dict[str, Path]:
    """BENCHMARK.json and the files under perfbench/, by path in the checkout."""
    files = {}
    for path in [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").rglob("*"))]:
        name = path.relative_to(checkout)
        if path.is_file() and "__pycache__" not in name.parts:
            files[name.as_posix()] = path
    return files


def first_benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, by name, that one checkout lacks or holds
    with other bytes than the other, or None if they run the same benchmark."""
    a, b = benchmark_files(parent), benchmark_files(change)
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b or a[name].read_bytes() != b[name].read_bytes():
            return name
    return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"abpairs: {checkout}: {workload} seed {seed} gave no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}") from None
    if not result["correct"] or result["failed"] > 0:
        failures = "".join(f"\n{line}" for line in lines if line.startswith("FAILED"))
        raise SystemExit(f"abpairs: {checkout}: {workload} seed {seed} reported correct: "
                         f"{json.dumps(result['correct'])}, failed: {result['failed']} of "
                         f"{result['attempted']}{failures}")
    run = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"]}
    run.update({name: m["value"] for name, m in result["metrics"].items()})
    run.update(probe_readings(checkout, lines))
    return run


def probe_readings(checkout: Path, lines: list[str]) -> dict[str, float]:
    """The median raw wall_s and probe slowdown of the repeats in the run
    record whose path, in `checkout`, perfbench printed in `lines`; empty
    without one."""
    paths = [line.partition(" ")[2] for line in lines if line.startswith("record: ")]
    if not paths:
        return {}
    timings = json.loads((checkout / paths[-1]).read_text())["repeat_timings"]
    return {name: statistics.median(t[name] for t in timings)
            for name in PROBE if timings and all(name in t for t in timings)}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(p: list[float], c: list[float], sign: float, spread: float, bound: float) -> str:
    """The module docstring's bound verdict; `sign` is +1 where higher is better."""
    scale = bound * abs(statistics.median(p))
    if spread > scale and not min(sign * v for v in c) > max(sign * v for v in p):
        return "unresolved"
    if sign * (statistics.median(c) - statistics.median(p)) < -scale:
        return "worse"
    return "within bound"


def summarize(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> dict:
    out = {}
    for name, metric in metrics.items():
        if not all(name in r for r in parent + change):
            continue
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        p_q, c_q = quartiles(p), quartiles(c)
        spread = p_q[1] - p_q[0]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (b - a) > 0.0 for a, b in zip(p, c))
        out[name] = {
            "parent_median": p_med, "change_median": c_med,
            "relative_change": (c_med - p_med) / p_med if p_med else None,
            "parent_quartiles": list(p_q), "change_quartiles": list(c_q),
            "parent_quartile_spread": spread,
            "pairs_change_better": won,
            "pairs": len(p),
            "gain_rule_met": 10 * won >= 9 * len(p) and sign * (c_med - p_med) > spread,
            "verdict": verdict(p, c, sign, spread, metric["bound"]),
        }
    return out


def probe_summary(parent: list[dict], change: list[dict]) -> dict:
    """Both sides' medians of their runs' raw wall_s and probe slowdown, the
    parent's quartile spread of each, and probe_moved (module docstring)."""
    out = {}
    for name in PROBE:
        if not all(name in r for r in parent + change):
            continue
        p = [r[name] for r in parent]
        q1, q3 = quartiles(p)
        out[name] = {"parent_median": statistics.median(p),
                     "change_median": statistics.median(r[name] for r in change),
                     "parent_quartile_spread": q3 - q1}
    if "slowdown" in out:
        sd = out["slowdown"]
        out["probe_moved"] = len(parent) >= PROBE_MIN_PAIRS and (
            abs(sd["change_median"] - sd["parent_median"]) > sd["parent_quartile_spread"])
    return out


def metric_lines(workload: str, summary: dict) -> list[str]:
    """One line per end-to-end metric of a workload's `summary`: both
    medians, the pairs the change won, gain_rule_met and the verdict."""
    return [f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g}, change "
            f"won {m['pairs_change_better']}/{m['pairs']}, gain_rule_met "
            f"{json.dumps(m['gain_rule_met'])}, {m['verdict']}"
            for name, m in summary.items() if name != "probe"]


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 9500-9509 or 1,4,7")
    p.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds (default 10)")
    p.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write or extend")
    p.add_argument("--topic", help="what the change does, kept at the top of the file")
    args = p.parse_args(argv)
    differs = first_benchmark_difference(args.parent, args.change)
    if differs:
        raise SystemExit(f"abpairs: {differs} differs between {args.parent} and {args.change}; "
                         "both must run the same benchmark")
    metrics = end_to_end_metrics(ROOT / "BENCHMARK.json")

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.topic:
        record["topic"] = args.topic
    record.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                                 f"--seconds {args.seconds:g} --trace 0")
    record["machine"] = machine()
    entry = {"seeds": args.seeds, "pairs": 0, "parent": {"runs": []}, "change": {"runs": []}}
    record.setdefault("end_to_end", {})[args.workload] = entry
    for i, seed in enumerate(args.seeds):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, checkout in sides if i % 2 == 0 else sides[::-1]:
            run = run_once(checkout, args.workload, seed, args.seconds)
            run["first"] = side == ("parent" if i % 2 == 0 else "change")
            entry[side]["runs"].append(run)
        entry["pairs"] = i + 1
        summary = entry["summary"] = summarize(entry["parent"]["runs"], entry["change"]["runs"],
                                               metrics)
        summary["probe"] = probe_summary(entry["parent"]["runs"], entry["change"]["runs"])
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        fps, slowdown = summary.get("frames_per_s"), summary["probe"].get("slowdown")
        if fps:
            probe = "" if slowdown is None else (
                f", slowdown {slowdown['parent_median']:.3f} -> {slowdown['change_median']:.3f}"
                + " (probe moved)" * summary["probe"]["probe_moved"])
            print(f"{args.workload} pair {i + 1}/{len(args.seeds)} seed {seed}: frames_per_s "
                  f"{fps['parent_median']:.0f} -> {fps['change_median']:.0f}, change won "
                  f"{fps['pairs_change_better']}/{fps['pairs']}, {fps['verdict']}{probe}",
                  flush=True)
    print("\n".join(metric_lines(args.workload, entry["summary"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
