"""Host-speed sampling, so that job times can be put on one speed scale.

The benchmark runs on a shared virtual machine whose speed for
interpreter-bound code changes by up to 2x for stretches of seconds to
minutes.  Raw job times follow those stretches; the ratio of a job's
time to the time of a fixed piece of code run during the job does not.

`Pace` runs `kernel` (pure-Python big-integer work of the kind the
package does, and no package code) from a SIGALRM handler every
`interval` seconds while it is active, and records how long each run
took.  For a job timed between `start()` and `stop()`:

- the job's own time is its wall (or CPU) time minus the time spent in
  the handler;
- its speed is the mean of NOMINAL_S / sample over the samples taken
  during the job and over BRACKET runs of the kernel right before and
  right after it: the host's speed relative to one on which the kernel
  takes NOMINAL_S;
- its paced time is its own time times its speed: the seconds it would
  take on that host.  A change to the package moves the paced time as
  it moves the raw time, because the kernel does not change with it.

Jobs that run worker processes are not sampled while they run (the
kernel would compete with the workers for the cores); they, and jobs too
short to be sampled, get their speed from the runs around them.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

# One kernel run on this benchmark's reference host (Intel Xeon, 2 vCPU,
# Python 3.11) in a fast stretch; the unit of the paced times.
NOMINAL_S = 0.0005
INTERVAL_S = 0.02
BRACKET = 10

_BIG = 3 ** 120


def kernel() -> int:
    """A fixed piece of interpreter-bound work, about half a millisecond."""
    acc = 0
    step = Fraction(1, 7)
    frac = Fraction(0)
    for n in range(1, 160):
        root = math.isqrt(_BIG * n * n + n)
        acc ^= root & 0xFFFF
        frac += step
        acc += len({n: root, -n: frac})
    return acc + frac.numerator


class Pace:
    """Samples the kernel's time from SIGALRM while started."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self, sample: bool = True) -> None:
        """Forget earlier samples; sample from now on if `sample`."""
        self.samples = []
        self.spent = 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def bracket(runs: int = BRACKET) -> list:
    """Times of `runs` back-to-back kernel runs."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def speed(samples) -> float:
    """Mean host speed over the samples, relative to the nominal host."""
    return statistics.fmean(NOMINAL_S / s for s in samples)
