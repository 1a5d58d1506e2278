"""Host-speed sampling inside timed records.

On a shared VM the CPU time of identical work drifts by 20% and more, and
the drift changes within half a second (frequency, cache and memory
contention from neighbours).  A record of a hierarchy cell or an 841-node
run lasts seconds, so the host speed is sampled inside the record: a
CPU-time interval timer (``ITIMER_PROF``) interrupts it every
``INTERVAL_S`` and runs ``kernel`` twice.  Both calls are taken out of the
record's CPU time.  Each stretch of the record between two interruptions is
divided by the slow-down, against ``NOMINAL_S``, of the second call that
precedes it.  Repeating one 841-node record for 100 s in one process, the
spread of the sums of six records fell from 10% (raw) to 1.5% (scaled per
stretch); dividing whole records by their mean slow-down left 5%.

The first call is an untimed warm-up.  It reloads the kernel's working set
(about 150 KB) into the core's private L2 cache, so the timed call does not
depend on what the record left in the cache.  ``probe_footprint.py``
checks this: without the warm-up, the timed call runs about 30% slower when
it interrupts an 835x835 solve than when it interrupts small-array work.
The kernel uses no rsnsim code, so a change to rsnsim moves the records but
not the kernel.

``NOMINAL_S`` only sets the unit: scaled figures are CPU seconds of a host
on which the timed call takes ``NOMINAL_S``.  It cancels in any comparison
between two commits.  ``python3 perfbench/calibrate.py`` prints the
kernel's median time on the current host.

CPU time is read with ``time.thread_time``: while ``ITIMER_PROF`` is armed,
the process CPU clock stops advancing at fine grain on some Linux kernels,
and with BLAS pinned to one thread the main thread does all the work.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Median of nine runs of ``python3 perfbench/calibrate.py`` on a 2-core
# Intel Xeon VM (0.43-0.78 ms).
NOMINAL_S = 6.6e-4

_rng = np.random.default_rng(20150713)
_SMALL = _rng.random((49, 49)) + 49.0 * np.eye(49)
_SMALL_RHS = _rng.random(49)
_EDGES = _rng.random(200)
_DENSE = _rng.random((120, 120)) + 120.0 * np.eye(120)
_DENSE_RHS = _rng.random(120)


def kernel() -> float:
    """Small-array numpy calls and 49-unknown solves, as in a 49-node step,
    then one dense solve."""
    acc = 0.0
    for k in range(6):
        g = np.where(_EDGES > 0.5, np.sinh(_EDGES), -np.expm1(-_EDGES))
        x = np.linalg.solve(_SMALL, _SMALL_RHS)
        acc += float(np.abs(x).max()) + float(np.clip(g, 0.1, 1.0).sum()) * k
    return acc + float(np.linalg.solve(_DENSE, _DENSE_RHS)[0])


def timed_call() -> float:
    """CPU seconds of one kernel call after a warm-up call."""
    kernel()
    c0 = time.thread_time()
    kernel()
    return time.thread_time() - c0


class HostProbe:
    """Samples the kernel every INTERVAL_S of CPU time while active.

    ``spent`` is all CPU time the probe took, ``calls`` the number of its
    samples, and ``scaled`` the CPU time between them, each stretch divided
    by the slow-down sampled just before it.  ``mark`` starts a stretch;
    call it when a record starts and ends.
    """

    def __init__(self):
        self.spent = 0.0
        self.calls = 0
        self.scaled = 0.0
        self.slow = timed_call() / NOMINAL_S
        self.last = time.thread_time()

    def mark(self) -> None:
        now = time.thread_time()
        self.scaled += (now - self.last) / self.slow
        self.last = now

    def _tick(self, signum, frame) -> None:
        self.mark()
        self.slow = timed_call() / NOMINAL_S
        self.calls += 1
        now = time.thread_time()
        self.spent += now - self.last
        self.last = now

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


if __name__ == "__main__":
    times = [timed_call() for _ in range(2000)]
    print(f"kernel median {statistics.median(times):.4g} s per call "
          f"(NOMINAL_S = {NOMINAL_S:.4g})")
