"""Host speed probe, so that end-to-end timings do not follow the host's load.

On a shared virtual machine the same code runs up to 40% faster or slower
from one minute to the next, because other tenants share the physical
cores. The 2-vCPU machine of the first baseline swings between about 0.8x
and 1.3x of its median speed, in phases that last from seconds to minutes.
Repeats inside one run cannot average that out. So while a timing is taken, a timer signal
runs a fixed Python and numpy loop (about 0.3 ms) every 20 ms and records
how long it took. The timing, less the time spent in the probe, is scaled
to the speed at which the loop takes NOMINAL_PROBE_S: each stretch between
two samples, less the probe's own time, is scaled by NOMINAL_PROBE_S / the
time of the sample that starts it, and the stretches are summed.

A short interval inside a timed block, such as one streaming push, is
corrected by the samples taken within HALF_WINDOW_S of it instead. The
probe uses only the benchmark's own code, so a change to the program cannot
move it. Raw wall times are kept in the run record.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time

import numpy as np

INTERVAL_S = 0.02
HALF_WINDOW_S = 0.1  # samples this close to a short interval set its speed
# About the loop's time in the fastest phase of the machine the first
# baseline ran on, so that corrected times read close to an uncontended host's.
NOMINAL_PROBE_S = 1.5e-4

# Interpreter work, small-array calls and one fragment-sized array (N=50
# frames x 21 joints x 3), the mix that the program's layers run.
_A = np.arange(12.0).reshape(4, 3)
_B = np.linspace(0.0, 1.0, 50 * 21 * 3).reshape(50, 21, 3)


def _loop() -> float:
    s = 0.0
    for i in range(12):
        b = _A * 1.0001 + i
        s += float(np.dot(b[0], b[1]))
        s += sum(k * k for k in range(20))
        s += float(np.sum(_B * b[0, 0]))
    return s


class Probe:
    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum=None, frame=None) -> None:
        # The collector is paused so that the program's heap, which the
        # probe's allocations could make it scan, does not time the probe.
        paused = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop()
            self._samples.append((t0, time.perf_counter() - t0))
        finally:
            if paused:
                gc.enable()

    def corrected(self, t0: float, t1: float) -> float:
        """Corrected duration of [t0, t1], a part of the last timed block,
        at the speed of the probe samples within HALF_WINDOW_S of it."""
        starts, durations = np.array(self._samples).T
        near = (starts >= t0 - HALF_WINDOW_S) & (starts <= t1 + HALF_WINDOW_S)
        inside = float(durations[(starts >= t0) & (starts < t1)].sum())
        mean_probe = float(durations[near].mean() if near.any() else durations.mean())
        return (t1 - t0 - inside) * NOMINAL_PROBE_S / mean_probe

    @contextlib.contextmanager
    def timing(self):
        """Time the block. The yielded dict gets wall_s, probe_s (probe time
        inside the block), slowdown (mean probe time / NOMINAL_PROBE_S) and
        corrected_s when the block ends.

        corrected_s sums, over the stretches between probe samples, each
        stretch less the probe's own time, scaled by that sample's speed.
        """
        rec: dict = {}
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            if self._samples:
                starts, durations = np.array(self._samples).T
                stretches = np.diff(np.concatenate([[t0], starts[1:], [t1]]))
                corrected = float(np.sum((stretches - durations) * NOMINAL_PROBE_S / durations))
                inside = float(durations.sum())
            else:  # block shorter than one interval: probe once after it
                self._sample()
                inside = 0.0
                corrected = (t1 - t0) * NOMINAL_PROBE_S / self._samples[0][1]
            slowdown = float(np.mean([d for _, d in self._samples])) / NOMINAL_PROBE_S
            rec.update(wall_s=t1 - t0, probe_s=inside, slowdown=slowdown, corrected_s=corrected)
