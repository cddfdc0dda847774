"""The benchmark's per-layer hooks still find every program function they wrap.

perfbench/spans.py replaces program functions by name to time each layer; a
renamed function would make its metrics silently absent from a traced run.
"""

import importlib.util
from pathlib import Path

from vifuse import energy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_hooks_find_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.unwrap()
    # the worker times each energy term by name outside the spans
    for term in ("visual", "accel", "bone", "smooth"):
        assert callable(getattr(energy, f"{term}_energy", None)), term
