"""How fast this CPU runs right now, sampled while the measured calls run.

On a shared host other tenants slow this process down by 1.3-1.8x, on each
CPU separately and in stretches from milliseconds to minutes; CPU time slows
as much as wall time.  A long call averages whatever contention it meets,
and whole runs are slow or quick, so no statistic over repeats removes it.

Pace interrupts the process every ``INTERVAL`` seconds (SIGALRM) and times
fixed pure-Python probes in the signal handler, on the same CPU and between
the same byte-codes as the measured code.  ``spent`` accumulates the
handler's own time, which the caller subtracts from the call it interrupted.

``scaled(start, end, elapsed)`` turns a measured interval into seconds at
nominal speed.  For each probe it takes the mean of ``nominal / probe time``
over the probes taken in the interval (or the ``NEAREST`` around a shorter
one): where the CPU ran a probe at its nominal time the interval counts in
full, where it ran 1.5x slower two thirds of it count.  Code of different
kinds slows by different amounts under the same contention, so there are
two probes, one on a few small integers and one on tuples and dicts as in
nocmap's metric code, and ``elapsed`` is multiplied by the geometric mean
of their two speeds.  Over twenty 30-second large_schedule runs on the
2-vCPU Xeon host of the baseline, the largest deviation of a run's wall_s
from the median was 5.5% with the geometric mean, against 7.1% and 10.4%
with either probe alone and 24% unscaled.  The probes are benchmark code,
so a change to nocmap moves the scaled time exactly as much as it moves
the measured one.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.004  # seconds between samples
NEAREST = 9  # samples used at least per interval, those nearest its middle

_TABLE = list(range(64))
_KEYS = {i: i * 7 % 64 for i in range(64)}
_ARCS = [((i * 37) % 64, (i * 11 + 5) % 64, (i * 13) % 97 + 1) for i in range(60)]
_PLACE = {c: (c * 5) % 27 for c in range(64)}


def probe_ints() -> int:
    """Integer, list and dict work on 64 small integers."""
    acc = 0
    for i in range(300):
        acc += _TABLE[_KEYS[i & 63]] ^ i
    return acc


def probe_arcs() -> int:
    """A hop-weighted volume sum over 60 arcs on a 3x3x3 mesh, with tuples and a dict."""
    total = 0
    coords = {}
    for src, dst, volume in _ARCS:
        a, b = _PLACE[src], _PLACE[dst]
        ca = coords.get(a) or coords.setdefault(a, (a // 9, a // 3 % 3, a % 3))
        cb = coords.get(b) or coords.setdefault(b, (b // 9, b // 3 % 3, b % 3))
        total += volume * (abs(ca[0] - cb[0]) + abs(ca[1] - cb[1]) + abs(ca[2] - cb[2]))
    return total


# Each probe with its time on an unshared CPU of the 2-vCPU Xeon host the
# baseline was measured on (about the 1st percentile of its times there), so
# scaled times read as seconds on that host when nobody else uses it.
PROBES = ((probe_ints, 19e-6), (probe_arcs, 20e-6))


class Pace:
    def __init__(self):
        self.stamps: list[float] = []  # when each sample started
        self.samples: list[list[float]] = [[] for _ in PROBES]  # each probe's times
        self.spent = 0.0  # seconds spent in the signal handler so far

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for (probe, _), times in zip(PROBES, self.samples):
            began = time.perf_counter()
            probe()
            times.append(time.perf_counter() - began)
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float, elapsed: float) -> float:
        """``elapsed`` seconds measured over [start, end], at nominal CPU speed."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.stamps, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.stamps) - NEAREST))
            hi = lo + NEAREST
        speed = 1.0
        for (_, nominal), times in zip(PROBES, self.samples):
            window = times[lo:hi]
            speed *= sum(nominal / t for t in window) / len(window)
        return elapsed * speed ** (1 / len(PROBES))
