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


@pytest.mark.parametrize("what", ["batch", "stream", "sf2", "rto", "rtof"])
def test_the_repo_against_itself_gives_the_same_outputs(inprocess_ab, capsys, what):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--what", what, "--rounds", "2",
            "--duration", "4"]
    path = list(sys.path)
    assert inprocess_ab.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "outputs: same"
    assert [line.split(":")[0] for line in out[1:]] == ["parent", "change", "change/parent"]
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
    calls = {side: (lambda side=side: order.append(side)) for side in inprocess_ab.SIDES}
    times = inprocess_ab.time_rounds(calls, 3)
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    assert [len(t) for t in times.values()] == [3, 3]


def test_differing_outputs_give_their_largest_difference(inprocess_ab):
    a = np.array([[1.0, np.nan], [3.0, 4.0]])
    assert inprocess_ab.largest_difference(a, a + [[0.0, 0.0], [0.0, 2.5e-9]]) == (
        "largest absolute difference 2.5e-09")
    assert inprocess_ab.largest_difference(a, a[:1]) == "shape (2, 2) against (1, 2)"
