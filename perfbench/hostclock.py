"""Host-speed probe: converts measured times to a reference host speed.

The benchmark host gives the process a share of a few cores of a shared
machine. The same work takes up to about 1.5 times as long depending on what
the neighbours run, in phases that last from seconds to many minutes, so
two runs of identical code minutes apart differ by more than any bound a
benchmark can hold. Timing the fixed pure-Python loop of `probe_s`
between ops measures the host's speed at that moment; an op's time
multiplied by ``REFERENCE_S`` over the probes taken just before and just
after it is its time at the reference speed.

The loop is benchmark code and never calls optocool, so a change to the
program moves a normalised time exactly as it moves the measured one. The
measured times are kept and printed beside the normalised ones.
"""

from __future__ import annotations

import time

# Time of `probe_s` on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest in
# its usual state; it reads about 0.35 ms in the host's fast phases.
REFERENCE_S = 0.5e-3
_LOOP = 4000
_SLOTS = [0.0] * 64


def probe_s():
    """Fastest of two timings of a fixed ~0.5 ms pure-Python loop, s."""
    best = float("inf")
    slots = _SLOTS
    for _ in range(2):
        t0 = time.perf_counter()
        x = 0.0
        for i in range(_LOOP):
            x = x * 0.999 + slots[i & 63] * 0.5 + 1.0
            slots[i & 63] = x
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Splits a job into segments that each end with a probe.

    `start` probes and opens the first segment; every `lap` closes the open
    one, probes and opens the next. A segment's host-speed factor is
    ``REFERENCE_S`` over the mean of the two probes around it; its
    normalised time is its measured time times that factor. The probes'
    own time is left out of both sums.
    """

    def __init__(self):
        self.measured_s = 0.0
        self.normalised_s = 0.0
        self.probes = []
        self._mark = None

    def start(self):
        self.probes.append(probe_s())
        self._mark = time.perf_counter()

    def lap(self):
        """Close the open segment; returns its host-speed factor."""
        now = time.perf_counter()
        self.probes.append(probe_s())
        factor = REFERENCE_S / (0.5 * (self.probes[-2] + self.probes[-1]))
        self.measured_s += now - self._mark
        self.normalised_s += (now - self._mark) * factor
        self._mark = time.perf_counter()
        return factor
