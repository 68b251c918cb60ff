"""Host-speed sampling, so that timings compare across the load swings of a
shared host.

On the 2-CPU hosts this benchmark was written on, identical work ran up to
2x slower for seconds to minutes at a time, in CPU time as much as in wall
time. While a HostSampler runs, SIGALRM interrupts the benchmark every
INTERVAL_S of wall time and times one short reference kernel. The kernel
mixes the kinds of work glyphforge does (small dense numpy steps, shifted
boolean planes, Python set lookups) and never calls glyphforge, so a change
to the program cannot change it. `nominal(t0, t1)` turns the wall time of an
interval into the time the same work takes on a host where the kernel runs
in NOMINAL_S: the interval's time minus the kernel's own time, times the mean
of NOMINAL_S / kernel time over the samples inside it.

The kernel runs in the measured process and gets only the CPU the program
leaves free, so the normalisation assumes a single-threaded program. A
program that keeps every CPU busy (worker processes, multithreaded BLAS)
slows the kernel itself, and that slowdown is scaled out as if it were host
load: the normalised time then understates the program's. The raw wall time
(host.run_wall_s) shows such a change.
"""

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
NOMINAL_S = 0.00045  # the kernel on an unloaded host (2 vCPUs, Python 3.11, numpy 2.4)

_rng = np.random.default_rng(0)
_W = _rng.uniform(-0.3, 0.3, (45, 63))
_X = _rng.random(63)
_IMG = _rng.random((60, 60)) < 0.3
_PTS = {(int(a), int(b)) for a, b in _rng.integers(0, 60, (200, 2))}


def _kernel():
    w = _W.copy()
    for _ in range(20):
        h = 1.0 / (1.0 + np.exp(-(w @ _X)))
        w -= 0.01 * np.outer(h, _X)
    img = _IMG
    for _ in range(3):
        p = np.pad(img, 1)
        img = img ^ (p[:-2, 1:-1] & p[2:, 1:-1] & img)
    return sum((a + 1, b) in _PTS for a, b in _PTS)


class HostSampler:
    def __init__(self):
        self.starts = []  # perf_counter at each kernel start, ascending
        self.took = []  # kernel seconds

    def _tick(self, *_):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        for _ in range(3):  # a cold first call, as in a fresh process, runs ~2x slower
            _kernel()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def nominal(self, t0, t1):
        """Seconds the work done in [t0, t1) takes at the nominal host speed.

        t0 and t1 are perf_counter readings taken by the measured code, so a
        kernel run lies wholly inside or wholly outside the interval. An
        interval too short to hold a sample takes the speed of the samples
        on either side of it.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        took = self.took[i:j]
        work = t1 - t0 - sum(took)
        speed = took or self.took[max(i - 1, 0):i + 1] or [NOMINAL_S]
        return work * statistics.fmean(NOMINAL_S / k for k in speed)

    def slowdown(self):
        """Median kernel time over NOMINAL_S for the samples so far."""
        return statistics.median(self.took) / NOMINAL_S if self.took else 1.0
