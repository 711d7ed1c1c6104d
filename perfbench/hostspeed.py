"""Host-speed calibration of the benchmark's time metrics.

The benchmark runs on shared machines whose speed for the same Python code
drifts by tens of percent within minutes (on a 2-core shared host, the
median iteration of one set of runs was 30% slower than that of a set half
an hour later).  Raw wall time then cannot tell a 10% change in the
package from a change in the host.  So while the timed phase runs, an
interval timer interrupts it every ``PROBE_EVERY_S`` seconds to time a
fixed pure-Python probe that touches nothing of the package, and the
run's times are scaled by ``PROBE_REF_S`` over the median probe time: the
results are seconds at the host speed at which the probe takes
``PROBE_REF_S``.  A change in the package moves the samples and not the
probe; a change in the host moves both.  The probes' own time is excluded
from the samples, and the raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 0.03   # probe duration that defines one reference second
PROBE_EVERY_S = 0.5  # wall seconds between two probes


def _probe_work() -> float:
    # tuples, dict lookups, float arithmetic, generator expressions and a
    # keyed sort: the operations the engines spend their time on
    table = {}
    acc = 0.0
    for i in range(10000):
        k = (i % 97, i % 89, i & 7)
        x = tuple(0.5 * v - 1.0 for v in k)
        table[k] = x
        acc += sum(v * v for v in x)
        if (k[1], k[0], k[2]) in table:
            acc -= 1.0
    return acc + len(sorted(table, key=lambda q: (q[2], q[0])))


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def scale_of(probes) -> float:
    """Factor from raw seconds to reference seconds."""
    return PROBE_REF_S / statistics.median(probes)


class HostClock:
    """``with HostClock() as clock:`` probes the host every
    ``PROBE_EVERY_S`` seconds; ``clock.now()`` is ``time.perf_counter()``
    less the time spent in probes."""

    def __init__(self):
        self.probes: list[float] = []
        self.paused = 0.0
        self._previous = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self.probes.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self) -> float:
        return scale_of(self.probes)
