"""Host speed reference, so that timings on a shared machine are steady.

On a machine shared with other tenants the same pure-Python work can take
anywhere from one to two times as long, depending on what the neighbours
do, and the slow and fast spells last from a fraction of a second to
minutes.  A run therefore samples a fixed reference loop every
``INTERVAL`` seconds (from a SIGALRM handler, so samples are spread evenly
in time, also inside long operations) and scales every duration by the
speed the samples saw while it ran.  A timing is reported in seconds at
the reference speed: the speed at which one reference loop takes
``REF_S``.  Raw wall-clock figures are printed beside the scaled ones.

A change to the program moves the scaled figures as it moves the raw ones
at a fixed host speed; it does not move the reference loop, which uses no
code of the program.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02
REF_S = 38e-6       # one reference loop at the reference speed
NEAREST = 5         # samples used for an interval holding fewer


def _pair(a, b):
    return (a, b)


def _reference_loop():
    """A fixed mix of the interpreter work the checkers do: calls, tuples,
    dict and set updates, strings and a sort.  (A pure arithmetic loop
    tracks the host speed the checkers see less closely.)"""
    counts = {}
    tails = []
    for i in range(60):
        key = _pair(i & 15, i >> 4)
        counts[key] = counts.get(key, 0) + 1
        tails.append(str(i)[-1])
    return len(set(tails)) + len(tuple(sorted(counts.items())))


class Speed:
    """Context manager that samples the host speed while it is active."""

    def __init__(self):
        self.times = []
        self.factors = []
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, _signum, _frame):
        start = time.perf_counter()
        _reference_loop()
        self.times.append(start)
        self.factors.append(REF_S / (time.perf_counter() - start))

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples taken in [start, end], or of the
        NEAREST samples around it when fewer fell inside."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < NEAREST:
            lo = max(0, min(lo - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        chosen = self.factors[lo:hi]
        if not chosen:
            raise RuntimeError("no host speed samples were taken")
        return sum(chosen) / len(chosen)

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] in seconds at the reference speed."""
        return (end - start) * self.factor(start, end)
