"""A gauge of how fast the host runs at each moment, and the scaling it gives.

The benchmark's host shares its cores with other machines' work.  Its speed
shifts by up to 2x from one second to the next and by some 30% between runs
a few minutes apart, which no statistic over one run's raw times removes.
So while a workload runs, a timer interrupts it every PERIOD_S seconds to
time `tick()`, a fixed interpreter loop of about 2 ms that does not touch
platonics.  The ticks' time is taken out of every operation's time, and a
time T measured while the ticks took M seconds on average is reported as
T * TICK_S / M: the time the operation would take with the host at the
reference speed.  Both commits of a comparison run the same ticks, so the
scaling favours neither, and the raw times are printed beside the scaled
ones.  On a 2-core host, the quartile spread of single 10**7 scans fell from
0.17 of the median raw to 0.06 scaled.

The timer is SIGALRM, whose handler runs in the main thread between
bytecodes, so no thread or process is added.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds `tick()` takes at the reference speed: its median on a 2-core
#: x86-64 host with Python 3.11.7 at a quiet moment.
TICK_S = 0.0021

#: Seconds between ticks while a workload runs.
PERIOD_S = 0.05


def tick() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return total


def timed_tick() -> float:
    start = time.perf_counter()
    tick()
    return time.perf_counter() - start


def scale(seconds: float, ticks: list[float]) -> float:
    """`seconds` measured while `ticks` were timed, at the reference speed."""
    return seconds * TICK_S / statistics.fmean(ticks)


class Gauge:
    """Times a tick every PERIOD_S seconds between `start` and `stop`.

    `samples` holds every tick's seconds in order, so the ticks taken during
    a stretch of code are `samples[n0:]` for `n0 = len(samples)` read before
    it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _handler(self, signum, frame) -> None:
        self.samples.append(timed_tick())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
