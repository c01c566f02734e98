"""Host speed gauge: wall times scaled to the host's nominal speed.

The benchmark runs on shared hosts whose speed wanders: a fixed
eilenberg-zilber instance, timed back to back, had medians from 101 to
168 ms in 3-second windows, with CPU time equal to wall time (the CPU
slowed; the process was not descheduled).  Pure-Python work of every kind
slows together, so the benchmark times a fixed reference computation between
jobs and scales each job's wall time by ``NOMINAL_S`` over the reference's
time around it.  A scaled time is the job's time on a host that runs the
reference in ``NOMINAL_S``; a change to ``cohw`` moves it as it moves the
wall time, while a slow spell of the host does not.

The reference uses only the standard library (``Fraction`` products and
sums, as in dense exact linear algebra, and tuple-keyed dict lookups, as in
lookup-table groups), so no change to ``cohw`` changes it.
"""

import time
from fractions import Fraction

# one reference() on the baseline machine at its unloaded speed, rounded
# (it measured 0.92-0.95 ms)
NOMINAL_S = 0.001
# a probe is the fastest of this many reference runs
PROBE_REPS = 3

_MATRIX = [[Fraction(3 * i - j, j + 2) for j in range(6)] for i in range(6)]
_TABLE = {(a, b): (a * b + a + b) % 24 for a in range(24) for b in range(24)}


def reference():
    """A fixed computation, about 1 ms on the baseline machine."""
    total = Fraction(0)
    for row in _MATRIX:
        for j in range(6):
            total += sum(row[k] * _MATRIX[k][j] for k in range(6))
    x = 1
    for i in range(2000):
        x = _TABLE[x, i % 24]
    return total, x


def probe():
    """Seconds one reference() takes now: the fastest of PROBE_REPS."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Probes the host between jobs and scales the jobs' wall times.

    ``mark()`` is called before each job: it probes when ``every`` seconds
    have passed since the last probe (always, with ``every`` 0) and
    returns the index of the last probe.  ``close()`` probes once more.
    ``scale(secs, mark)`` is then ``secs`` times ``NOMINAL_S`` over the
    mean of the probes just before and just after the job.
    """

    def __init__(self, every):
        self.every = every
        self.probes = []
        self.at = None

    def mark(self):
        now = time.perf_counter()
        if self.at is None or now - self.at >= self.every:
            self.close()
        return len(self.probes) - 1

    def close(self):
        self.probes.append(probe())
        self.at = time.perf_counter()

    def scale(self, secs, mark):
        after = self.probes[min(mark + 1, len(self.probes) - 1)]
        return secs * NOMINAL_S / ((self.probes[mark] + after) / 2)
