"""Host-speed reference for the timed phases.

The benchmark was set up on a shared 2-vCPU virtual machine whose speed
drifts: a fixed pure-Python computation ran between about 1.0x and 1.8x
its fastest time, in phases lasting from seconds to minutes, on both vCPUs
at once.  Raw wall times of two runs of the same code a minute apart can
then differ by more than any useful regression bound.

So the runner times PROBE, a fixed computation that uses no toricgm code,
between operations (at most every PROBE_EVERY seconds), and reports each
operation's time scaled by REF_PROBE_S / (median probe time around that
operation): the time the operation would have taken on a host where one
probe takes REF_PROBE_S.  A change to toricgm moves these times as it moves
wall times; a change of host speed moves probe and operation together and
largely cancels.  Raw wall times are printed beside them.
"""

import gc
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# Probe time (seconds) that scaled times refer to: about the probe's median
# time between operations on the 2-vCPU host, so that scaled and wall times
# read alike there.
REF_PROBE_S = 3e-3
PROBE_EVERY = 0.2
# Probes on each side of an operation whose median scales it.
WINDOW = 6

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)]
           for i in range(6)]


def probe():
    """Fixed work in the style of toricgm's: exact elimination over the
    rationals, then exponent-tuple arithmetic kept in a dict."""
    rows = [list(r) for r in _MATRIX]
    for c in range(len(rows)):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    terms = {}
    for k in range(600):
        u = (k % 5, k % 7, k % 3, k % 11)
        v = tuple(max(a - b, 0) for a, b in zip(u, (2, 3, 1, 5)))
        terms[v] = terms.get(v, 0) + k
    return sorted(terms.items())


class SpeedTrack:
    """Probe times, each stamped with when it was taken."""

    def __init__(self):
        self.stamps = []
        self.times = []
        self._last = None

    def sample(self, count=1):
        """Time `count` probes.  The cyclic garbage collector is off while a
        probe runs, so its time does not grow with the heap that toricgm
        leaves behind, only with the speed of the host."""
        for _ in range(count):
            gc.disable()
            start = perf_counter()
            probe()
            end = perf_counter()
            gc.enable()
            self.stamps.append((start + end) / 2)
            self.times.append(end - start)
            self._last = end

    def maybe_sample(self):
        """Probe if PROBE_EVERY seconds have passed since the last probe."""
        if self._last is None or perf_counter() - self._last >= PROBE_EVERY:
            self.sample()

    def scale_at(self, when):
        """REF_PROBE_S over the median probe time of the WINDOW probes on
        each side of the instant `when`."""
        i = bisect_left(self.stamps, when)
        near = self.times[max(0, i - WINDOW):i + WINDOW]
        return REF_PROBE_S / statistics.median(near)

    def scale(self):
        """REF_PROBE_S over the median of all probe times."""
        return REF_PROBE_S / statistics.median(self.times)
