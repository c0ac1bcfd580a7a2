"""Machine-speed calibration of the benchmark's times.

On a shared host the cores run fast or up to about 2x slower for stretches
of seconds to minutes while neighbours load them.  CPU time slows as much as
wall time, so this is not time taken away from the process but slower
execution, and no statistic over one run can remove it when the stretch
outlasts the run.  So a fixed reference kernel, pure-Python arithmetic and
small numpy products like the nmems core, is timed just before and just after
every measured piece of work, and each measured time is multiplied by
``REFERENCE_S`` over the kernel's mean time around it: every time is reported
in seconds at one fixed reference speed.  The kernel is benchmark code, so the
scaling is the same on every commit of nmems.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's time at the reference speed: about its median on the
# 2-vCPU Xeon (2.1 GHz) VM the benchmark was tuned on, so scaled times read
# close to the times measured there
REFERENCE_S = 2.5e-3
PROBE_REPEATS = 3  # a probe is the median of three kernel timings

_MATRIX = np.eye(4) * 0.5 + 0.125


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    m = _MATRIX
    for _ in range(300):
        m = m @ _MATRIX
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the reference kernel takes now; the median of a few runs, so
    one preempted run does not move it."""
    return statistics.median(_kernel() for _ in range(PROBE_REPEATS))


class Calibration:
    """Gives the scale factor of each piece of work timed between two calls:
    ``REFERENCE_S`` over the mean of the probes taken before and after it.
    The probe after one piece is the probe before the next.  Probes are not
    taken while a CLI child runs: on a VM whose two vCPUs share a core, the
    kernel then measures its contention with the child."""

    def __init__(self):
        self.last = probe()
        self.probes = [self.last]

    def scale(self) -> float:
        before, self.last = self.last, probe()
        self.probes.append(self.last)
        return REFERENCE_S / ((before + self.last) / 2.0)

    def restart(self) -> None:
        """Probe afresh after work that is not timed here."""
        self.last = probe()
        self.probes.append(self.last)
