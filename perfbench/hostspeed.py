"""Host-speed probes, interleaved with the workload by a timer signal.

The benchmark host is shared: its speed drifts by tens of percent over
seconds to minutes, for all code at once.  A short fixed probe (a pure-Python
integer loop that lives in registers and the first-level caches, so the
workload's cache footprint barely touches it) runs every ``INTERVAL_S``
seconds on SIGALRM, in the benchmark's own thread, so it sees the same core
at the same moments as the workload.  ``speed()`` is the mean probe time
over the nominal one; a duration divided by it reads in seconds at the
nominal host speed.

Measured in one process over repeated repetitions of each workload, this
cut the coefficient of variation of the repetition time from 16% to 2.3%
(keygen), 9.5% to 3.5% (attack) and 2.1% to 1.5% (population).  A probe
with numpy or table lookups tracked the workloads less well.

The probe touches only local integers, so it cannot change a workload's
output, and its time is subtracted from the workload's.  Signal handlers
run between Python bytecodes, so a probe never splits a numpy call; it runs
as soon as the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median probe time on a quiet 2-vCPU Intel Xeon host with Python 3.11.
NOMINAL_PROBE_S = 0.0004
PROBE_STEPS = 3000
INTERVAL_S = 0.02  # about 2% of the workload's time goes to probes
BURST = 21


def probe() -> float:
    """Run the fixed probe once; returns its duration in seconds."""
    start = time.perf_counter()
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return time.perf_counter() - start


class HostSpeed:
    """Context manager: probes every ``INTERVAL_S`` seconds while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(probe())
        # One-shot timer, re-armed after the probe, so probes never nest.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_time(self) -> float:
        return sum(self.samples)

    def speed(self) -> float:
        """Mean probe time relative to nominal (2.0 = running at half speed).

        Probes are evenly spaced in time, so their mean weights each moment
        as the workload's own time does.  A span too short for the timer to
        fire is probed on the spot."""
        return burst_speed() if not self.samples else statistics.fmean(self.samples) / NOMINAL_PROBE_S


def burst_speed() -> float:
    """Host speed from ``BURST`` back-to-back probes, for work that cannot be
    interleaved with probes (a child process)."""
    return statistics.median(probe() for _ in range(BURST)) / NOMINAL_PROBE_S
