"""A clock that corrects wall time for the current speed of a shared host.

On a shared host the time one Python instruction takes swings by up to a
factor of two within seconds, as other tenants load the same cores.  CPU
time swings with wall time, so neither clock is steady from one run to the
next.  `SpeedClock` samples the speed instead: a SIGALRM handler runs a
fixed calibration kernel every PERIOD_S and times it.  Between two ticks
the clock advances at NOMINAL_S divided by the recent kernel time, and it
stands still while the kernel runs.  A duration read from it is the time
the work would have taken at the speed at which the kernel takes
NOMINAL_S: "nominal seconds".

The kernel is the kind of work qpoints spends most of its time on: bit
tests over a table indexed by integer masks, as in the flat table of
`variety.components`.  A change to qpoints leaves the kernel unchanged, so
nominal times compare across revisions of the program.

Start-up is mostly loading numpy's shared libraries and modules, whose
speed does not follow the kernel's.  `reference_startup` times a paired
reference instead: a fresh interpreter that imports numpy and nothing
else.  A start-up time divided by the reference's, times
STARTUP_NOMINAL_S, is again in nominal seconds.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time

#: Seconds of wall time between two calibration ticks.
PERIOD_S = 0.05
#: Kernel time that defines the nominal speed.  It is close to the median
#: kernel time on the 2-vCPU Xeon host the bounds were set on, so nominal
#: seconds there read close to wall seconds.
NOMINAL_S = 0.0025
#: Wall time of the reference start-up that defines the nominal speed,
#: a typical value on the same host.
STARTUP_NOMINAL_S = 0.2
#: A tick's speed is the median of this many latest kernel times, so that
#: one preempted kernel run does not set the rate for a whole period.
WINDOW = 3


def kernel() -> int:
    """Fixed pure-Python work: count the maximal sets of an all-true flat
    table over 11 points, by the test `variety.components` makes."""
    flat = [True] * 2048
    count = 0
    for mask in range(2048):
        if flat[mask] and not any(not mask >> v & 1 and flat[mask | (1 << v)] for v in range(11)):
            count += 1
    return count


def reference_startup() -> float:
    """Wall seconds for a fresh interpreter to import numpy and exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.monotonic() - start


class SpeedClock:
    def __init__(self) -> None:
        self.kernel_s: list[float] = []  # every kernel time measured
        self._base = 0.0  # nominal time at _mark
        self._mark = 0.0  # monotonic time at which _rate took effect
        self._rate = 1.0  # nominal seconds per wall second

    def now(self) -> float:
        """Nominal seconds since start(), net of the kernel runs."""
        return self._base + (time.monotonic() - self._mark) * self._rate

    def tick(self, signum=None, frame=None) -> None:
        """Fold in the time since the last tick, then re-measure the speed."""
        start = time.monotonic()
        self._base += (start - self._mark) * self._rate
        kernel()
        self.kernel_s.append(time.monotonic() - start)
        self._rate = NOMINAL_S / statistics.median(self.kernel_s[-WINDOW:])
        self._mark = time.monotonic()

    def start(self) -> None:
        """Take the first speed sample and start the periodic ticks."""
        kernel()  # warm-up, untimed
        self._mark = time.monotonic()
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
