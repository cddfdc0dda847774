"""tools/inprocess_ab.py: two checkouts timed against each other in one process."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def inprocess_ab():
    spec = importlib.util.spec_from_file_location("inprocess_ab", ROOT / "tools" / "inprocess_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("what", ["batch", "stream", "emit", "sf2", "rto", "rtof"])
def test_the_repo_against_itself_gives_the_same_outputs(inprocess_ab, capsys, what):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--what", what, "--rounds", "2",
            "--duration", "4"]
    path = list(sys.path)
    assert inprocess_ab.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "outputs: same"
    assert [line.split(":")[0] for line in out[1:]] == ["parent", "change", "change/parent"]
    unit = "ms" if what == "emit" else "s"
    assert all(re.match(rf"{side}: min \d+\.\d{{4}} {unit}  q1 ", line)
               for side, line in zip(("parent", "change"), out[1:3])), out[1:3]
    assert re.fullmatch(r"change/parent: paired ratio q1 \d+\.\d{3}  median \d+\.\d{3}  "
                        r"q3 \d+\.\d{3} over 2 rounds; change faster in \d, parent faster in \d",
                        out[3]), out[3]
    # Neither package, nor the directory it came from, is left behind.
    assert sys.path == path
    assert not any(name.startswith("vifuse_") for name in sys.modules)


def test_the_summary_gives_quartiles_the_paired_ratio_and_the_wins(inprocess_ab):
    # The paired ratios are 0.5, 1.0, 2.0, 0.5 and 1.1.
    times = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.5, 2.0, 6.0, 2.0, 5.5]}
    assert inprocess_ab.summary(times) == [
        "parent: min 1.0000 s  q1 2.0000  median 3.0000  q3 4.0000",
        "change: min 0.5000 s  q1 2.0000  median 2.0000  q3 5.5000",
        "change/parent: paired ratio q1 0.500  median 1.000  q3 1.100 over 5 rounds; "
        "change faster in 2, parent faster in 2",
    ]
    one = {"parent": [2.0], "change": [1.0]}
    assert inprocess_ab.summary(one)[2] == (
        "change/parent: paired ratio q1 0.500  median 0.500  q3 0.500 over 1 rounds; "
        "change faster in 1, parent faster in 0")


def test_rounds_alternate_which_side_goes_first(inprocess_ab):
    order = []
    calls = {side: (lambda side=side: order.append(side) or (None, len(order)))
             for side in inprocess_ab.SIDES}
    times = inprocess_ab.time_rounds(calls, 3)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    # each round keeps the time its call reports
    assert times == {"parent": [1, 4, 5], "change": [2, 3, 6]}


def test_emit_times_the_pushes_that_emit_frames(inprocess_ab, monkeypatch):
    # A refiner whose pushes take 1 s each but the fourth, and emit at every
    # third push.
    clock = iter(range(100))
    monkeypatch.setattr(inprocess_ab.time, "perf_counter", lambda: next(clock))
    pushes = []

    class Refiner:
        def __init__(self, *args, **kwargs):
            pass

        def push(self, positions, **rows):
            pushes.append(positions)
            if len(pushes) == 4:
                next(clock)  # a push that emits nothing takes 2 s
            return [(len(pushes), positions)] if len(pushes) % 3 == 0 else []

        def finish(self):
            return [(0, np.zeros(2))]

    vf = type("vf", (), {"StreamingRefiner": Refiner})
    seq = type("seq", (), {"fps": 25.0, "camera": None, "sensor_joints": None,
                           "sensor_parents": None, "pixels": np.zeros((7, 1)),
                           "accel": np.zeros((7, 1)), "bones": np.zeros((7, 1))})
    start = np.arange(14.0).reshape(7, 2)
    output, median = inprocess_ab.emit_call(vf, start, seq, None, None)()
    assert output.tolist() == [[4.0, 5.0], [10.0, 11.0], [0.0, 0.0]]
    assert median == 1  # pushes 3 and 6 emit, in 1 s each


def test_differing_outputs_give_their_largest_difference(inprocess_ab):
    a = np.array([[1.0, np.nan], [3.0, 4.0]])
    assert inprocess_ab.largest_difference(a, a + [[0.0, 0.0], [0.0, 2.5e-9]]) == (
        "largest absolute difference 2.5e-09")
    assert inprocess_ab.largest_difference(a, a[:1]) == "shape (2, 2) against (1, 2)"
