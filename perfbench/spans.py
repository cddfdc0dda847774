"""In-memory span recorder and the per-layer metrics derived from its spans.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
its parent span, the id of the workload run it belongs to, and a dict of
counts taken at the same boundary. Spans are opened either explicitly with
``Tracer.span`` or by ``Tracer.wrap``, which replaces a function by name in
the module that looks it up, so the traced run executes the program's own
call path. A wrapped name the program no longer has is recorded in
``Tracer.missing`` and the metrics that depend on it are reported absent.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np

# Program layers, named after the modules under src/vifuse/. "bench" is the
# benchmark's own glue (set-up bookkeeping, the streaming feed loop).
LAYERS = ("synth", "fileio", "imu", "skeleton", "optimizer", "energy", "metrics",
          "pipeline", "bench")

# Per-call energy timings are measured by the worker outside the spans.
ENERGY_TERMS = ("total", "visual", "accel", "bone", "smooth")


def no_span(name: str):
    """Stand-in for Tracer.span when nothing is traced."""
    return contextlib.nullcontext()


class Tracer:
    def __init__(self, run: str):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.run = run
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run": self.run,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` with a spanning wrapper until ``unwrap``.

        ``count(args, kwargs, result, rec)`` may add entries to the span's
        counts after the call returns; it runs outside the timed interval.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    count(args, kwargs, result, rec)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                    rec["counts"]["uncounted"] = 1
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def parent_of(self, rec: dict) -> dict | None:
        return None if rec["parent"] is None else self.spans[rec["parent"]]


# -- count hooks ---------------------------------------------------------------

def count_file_bytes(args, kwargs, result, rec) -> None:
    rec["counts"]["bytes"] = os.path.getsize(args[0])


def count_samples(args, kwargs, result, rec) -> None:
    accels = np.asarray(result[1])
    rec["counts"]["samples"] = int(accels.shape[0] * accels.shape[1])


def count_frames(args, kwargs, result, rec) -> None:
    rec["counts"]["frames"] = int(np.asarray(result).shape[0])


def count_fragment(args, kwargs, result, rec) -> None:
    rec["counts"]["iterations"] = int(result.iterations)
    rec["counts"]["converged"] = int(bool(result.converged))
    rec["counts"]["line_search_failures"] = int(bool(result.line_search_failed))


_FILE_FORMATS = ("pose3d", "pose2d", "imu", "skeleton", "calibration", "camera")


def install(tracer: Tracer, on_energy=None) -> None:
    """Wrap every layer's public entry points where their callers look them up.

    `on_energy(args, rec)` sees the arguments of each total_energy call.
    """
    from vifuse import fileio, imu, optimizer, pipeline, synth

    for attr in ("generate_truth", "derive_imu", "corrupt_poses", "corrupt_pixels", "corrupt_imu"):
        tracer.wrap(synth, attr, f"synth.{attr}")
    tracer.wrap(pipeline, "make_dataset", "synth.make_dataset")
    for fmt in _FILE_FORMATS:
        for module in (pipeline, fileio):
            tracer.wrap(module, f"read_{fmt}", f"fileio.read_{fmt}", count_file_bytes)
        tracer.wrap(pipeline, f"write_{fmt}", f"fileio.write_{fmt}", count_file_bytes)
    for module in (pipeline, imu):
        tracer.wrap(module, "calibrate_stream", "imu.calibrate_stream", count_samples)
    tracer.wrap(pipeline, "refine_sequence", "skeleton.refine_sequence", count_frames)
    tracer.wrap(pipeline, "refine_batch", "optimizer.refine_batch")
    tracer.wrap(optimizer, "minimize_fragment", "optimizer.minimize_fragment", count_fragment)
    tracer.wrap(optimizer, "merge_fragments", "optimizer.merge_fragments")
    tracer.wrap(optimizer, "total_energy", "energy.total_energy",
                None if on_energy is None else lambda a, k, r, rec: on_energy(a, rec))
    tracer.wrap(pipeline, "evaluate", "metrics.evaluate")


# -- analysis ------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def span_table(spans: list[dict]) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive seconds, self seconds) per span name, largest
    self time first."""
    rows: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += own
    return sorted(((name, *row) for name, row in rows.items()), key=lambda r: -r[3])


def _outermost(spans: list[dict], names) -> list[dict]:
    """Spans named in `names` that have no ancestor also named in `names`."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _seconds(spans, names) -> float:
    return float(sum(s["end"] - s["start"] for s in _outermost(spans, names)))


def _count(spans, prefix: str, key: str) -> int:
    return int(sum(s["counts"].get(key, 0) for s in spans if s["name"].startswith(prefix)))


def _named(spans, prefix: str) -> list[str]:
    return sorted({s["name"] for s in spans if s["name"].startswith(prefix)})


# Per-layer metric -> the wrapped program names it needs (absent if any is
# missing) and its unit.
REQUIRES = {
    "fileio.read_s": ("vifuse.pipeline.read_pose3d",),
    "fileio.write_s": ("vifuse.pipeline.write_pose3d",),
    "fileio.bytes": ("vifuse.pipeline.read_pose3d", "vifuse.pipeline.write_pose3d"),
    "synth.dataset_s": ("vifuse.pipeline.make_dataset",),
    "synth.truth_s": ("vifuse.synth.generate_truth",),
    "synth.imu_s": ("vifuse.synth.derive_imu",),
    "synth.noise_s": ("vifuse.synth.corrupt_poses", "vifuse.synth.corrupt_pixels",
                      "vifuse.synth.corrupt_imu"),
    "imu.calibrate_s": ("vifuse.pipeline.calibrate_stream",),
    "imu.samples": ("vifuse.pipeline.calibrate_stream",),
    "skeleton.sf2_s": ("vifuse.pipeline.refine_sequence",),
    "skeleton.frames": ("vifuse.pipeline.refine_sequence",),
    "optimizer.refine_s": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.fragments": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.fragment_ms_p50": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.fragment_ms_p80": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.merge_s": ("vifuse.optimizer.merge_fragments",),
    "optimizer.iterations": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.converged_ratio": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.line_search_failures": ("vifuse.optimizer.minimize_fragment",),
    "optimizer.push_us_p50": ("vifuse.optimizer.minimize_fragment",),
    "energy.evals": ("vifuse.optimizer.total_energy",),
    "metrics.evaluate_s": ("vifuse.pipeline.evaluate",),
}


def layer_metrics(spans: list[dict], timed_run: str, missing=(), energy_us=None) -> dict:
    """Per-layer metrics over every span of one traced benchmark run.

    Times are inclusive seconds of the outermost span of each name, summed.
    `<layer>.self_s` sums the self times of the layer's spans; over all
    layers these add up to `trace.wall_s`, the summed duration of the root
    spans. `pipeline.other_s` is the self time of the timed run's root span.
    Returns {name: (value, unit)}; metrics that depend on a missing wrapped
    name are left out.
    """
    frag = [s for s in spans if s["name"] == "optimizer.minimize_fragment"]
    frag_ms = np.array([(s["end"] - s["start"]) * 1e3 for s in frag])
    n_frag = len(frag)
    solving = {s["parent"] for s in frag}
    idle_push_us = [(s["end"] - s["start"]) * 1e6 for s in spans
                    if s["name"] == "optimizer.push" and s["id"] not in solving]
    selfs = self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    timed_root = [sf for s, sf in zip(spans, selfs) if s["parent"] is None and s["run"] == timed_run]

    m = {
        "synth.dataset_s": (_seconds(spans, {"synth.make_dataset"}), "s"),
        "synth.truth_s": (_seconds(spans, {"synth.generate_truth"}), "s"),
        "synth.imu_s": (_seconds(spans, {"synth.derive_imu"}), "s"),
        "synth.noise_s": (_seconds(spans, {"synth.corrupt_poses", "synth.corrupt_pixels",
                                           "synth.corrupt_imu"}), "s"),
        "fileio.read_s": (_seconds(spans, set(_named(spans, "fileio.read_"))), "s"),
        "fileio.write_s": (_seconds(spans, set(_named(spans, "fileio.write_"))), "s"),
        "fileio.bytes": (_count(spans, "fileio.", "bytes"), "bytes"),
        "imu.calibrate_s": (_seconds(spans, {"imu.calibrate_stream"}), "s"),
        "imu.samples": (_count(spans, "imu.", "samples"), "count"),
        "skeleton.sf2_s": (_seconds(spans, {"skeleton.refine_sequence"}), "s"),
        "skeleton.frames": (_count(spans, "skeleton.", "frames"), "count"),
        "optimizer.refine_s": (_seconds(spans, {"optimizer.refine_batch",
                                                "optimizer.minimize_fragment",
                                                "optimizer.merge_fragments"}), "s"),
        "optimizer.fragments": (n_frag, "count"),
        "optimizer.fragment_ms_p50": (float(np.percentile(frag_ms, 50)) if n_frag else 0.0, "ms"),
        "optimizer.fragment_ms_p80": (float(np.percentile(frag_ms, 80)) if n_frag else 0.0, "ms"),
        "optimizer.merge_s": (_seconds(spans, {"optimizer.merge_fragments"}), "s"),
        "optimizer.iterations": (_count(spans, "optimizer.minimize", "iterations"), "count"),
        "optimizer.converged_ratio": (
            _count(spans, "optimizer.minimize", "converged") / n_frag if n_frag else 0.0, "ratio"),
        "optimizer.line_search_failures": (
            _count(spans, "optimizer.minimize", "line_search_failures"), "count"),
        "optimizer.push_us_p50": (float(np.median(idle_push_us)) if idle_push_us else 0.0, "us"),
        "energy.evals": (sum(1 for s in spans if s["name"] == "energy.total_energy"), "count"),
        "metrics.evaluate_s": (_seconds(spans, {"metrics.evaluate"}), "s"),
        "pipeline.other_s": (float(sum(timed_root)), "s"),
    }
    for term in ENERGY_TERMS:
        if energy_us is not None and term in energy_us:
            m[f"energy.{term}_us"] = (energy_us[term], "us")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            float(sum(sf for s, sf in zip(spans, selfs) if layer_of(s["name"]) == layer)), "s")
    m["trace.wall_s"] = (float(sum(s["end"] - s["start"] for s in roots)), "s")
    for name, needs in REQUIRES.items():
        if any(n in missing for n in needs):
            m.pop(name, None)
    return m
