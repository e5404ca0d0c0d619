"""How fast the machine runs pure Python right now.

On a shared host the same solve can take 1x to 2x its quiet time, in
phases that last from seconds to minutes, so two runs of the same code
can differ by more than any useful bound.  A fixed reference kernel,
timed between solves, slows down in step with the solver, because it
does the same kind of work: integer arithmetic, Fraction arithmetic and
comparisons, and a dict-based knapsack sweep.  Dividing a solve time by
the kernel's slowdown at that moment gives the time the solve would take
on the quiet machine.  The kernel is part of the benchmark, not of the
program, so a change to the program moves the calibrated time one for
one.
"""

import random
import statistics
import time
from fractions import Fraction

# quiet-machine time of reference_work(): the fastest of 600 samples on a
# 2-vCPU KVM guest (Intel Xeon, family 6 model 207) with Python 3.11.7;
# only the scale of the calibrated times depends on it
REFERENCE_S = 0.0045

# take a sample at most this often, so the kernel adds 3% to 8% to a pass
INTERVAL_S = 0.1

_rng = random.Random(20160905)
_ITEMS = tuple((_rng.randint(1, 1000), _rng.randint(1, 1000)) for _ in range(14))
_CAPACITY = 5000


def reference_work():
    acc = 0
    for i in range(24000):
        acc += i * i % 7
    total = Fraction(0)
    cap = Fraction(10**9, 2)
    for i in range(1, 700):
        if total < cap:
            total += Fraction(i, 2)
    states = {0: 0}
    for c, p in _ITEMS:
        new = dict(states)
        for sc, sp in states.items():
            nc = sc + c
            if nc <= _CAPACITY and new.get(nc, -1) < sp + p:
                new[nc] = sp + p
        states = new
    return acc, total, len(states)


class Gauge:
    """Reference-kernel samples taken between units of timed work."""

    def __init__(self):
        self.samples = []  # seconds per reference_work() call
        self._last = float("-inf")

    def sample(self, force=False) -> float:
        """Time the kernel if INTERVAL_S has passed since the last sample,
        or always with `force`; return the seconds spent, 0 if skipped."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL_S:
            return 0.0
        reference_work()
        self._last = time.perf_counter()
        spent = self._last - start
        self.samples.append(spent)
        return spent

    def slowdown(self, since: int) -> float:
        """Median slowdown against the quiet machine of samples[since:]."""
        return statistics.median(self.samples[since:]) / REFERENCE_S
