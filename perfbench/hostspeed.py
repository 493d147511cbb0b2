"""Host-speed probe that scales host seconds to a reference host speed.

The benchmark was calibrated on a shared 2-vCPU x86_64 virtual machine whose
speed swings by 2-3x over minutes as neighbours load the physical cores: a
300k-iteration version of this probe took from 14 ms to 46 ms within a few
minutes, with CPU time equal to wall time (the vCPU runs slower; it is not
descheduled).  A run lasts tens of seconds, so that drift moves whole runs
and no median inside a run can remove it.

Instead, a fixed pure-Python loop — independent of the program, so a change to
the program cannot move it — runs just before every timed cell and warm pass.
Each timing is multiplied by ``REFERENCE_SECONDS / (median of the last few
probe times)``: the seconds the same work would have taken on a host that runs
the probe in ``REFERENCE_SECONDS``.  Over ten 30 s runs per workload on the
calibration VM, it cut the quartile spread of ``iters_per_s`` (as a share of
the median) from 0.094 to 0.050 on conv-sync and from 0.180 to 0.054 on
regimes-sweep; on wide-world it was 0.09 either way.  The raw host seconds
are printed beside every scaled figure.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

#: Probe time of the reference host (the calibration VM in a quiet phase).
REFERENCE_SECONDS = 0.0025
#: Loop length of one probe (2-3 ms on the calibration VM).
PROBE_ITERATIONS = 50_000
#: Probes in the running median: long enough to smooth single-probe jitter,
#: short enough to follow drift over a few cells.
WINDOW = 5
#: Probes behind :func:`spot_scale`.
SPOT_PROBES = 7


def probe() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value
    return time.perf_counter() - started


def spot_scale() -> float:
    """The scale for work that has just ended, from a burst of probes run now.

    Set-up is timed once per process, so it is scaled by probes run right
    after it: over fourteen cold ``regimes-sweep`` set-ups spread over a few
    minutes on the calibration VM, this cut their quartile spread (as a share
    of the median) from 0.34 to 0.07, where scaling by probes taken during
    the rest of the run made it 0.50.
    """
    return REFERENCE_SECONDS / statistics.median(probe() for _ in range(SPOT_PROBES))


class HostSpeed:
    """Running estimate of the host's speed relative to the reference host."""

    def __init__(self) -> None:
        self._recent: deque = deque(maxlen=WINDOW)
        self.samples = []

    def sample(self) -> float:
        """Probe now; returns the scale for work timed right after this call."""
        seconds = probe()
        self._recent.append(seconds)
        self.samples.append(seconds)
        return self.scale()

    def scale(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self._recent)


class FixedSpeed:
    """A scale measured once: ``sample`` returns it without probing.

    Traced rounds use it so that no probe runs inside a traced span.
    """

    def __init__(self, scale: float) -> None:
        self._scale = scale

    def sample(self) -> float:
        return self._scale

    def scale(self) -> float:
        return self._scale
