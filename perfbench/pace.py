"""Speed of the machine, sampled while a workload runs.

The benchmark is meant for shared virtual machines whose speed swings by a
factor of up to two over seconds to minutes, as neighbours on the host load
the physical cores under the virtual ones.  Such a swing moves every timing
of a run alike, so the harness times a small fixed reference kernel between
operations and scales each operation's latency by

    nominal kernel time / kernel time measured around that operation.

A scaled latency reads as the latency on a machine where the kernel takes its
nominal time.  The kernels use only Python and numpy, never the package, so
a change to the package cannot move them.  Each workload uses the kernel
that resembles its own work: interpreter-bound code on short arrays, or
whole-array numpy passes over arrays far larger than the caches.  README.md
gives the spreads it removes.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

_X = np.linspace(0.0, 1.0, 64) ** 2
_PTS = [(float(i), (i * 37 % 64) ** 2 / 64.0) for i in range(64)]
_LINE = np.linspace(-1.0, 1.0, 2_100)


def interpreter_kernel() -> float:
    """A lower hull of 64 points in pure Python plus ten small numpy calls."""
    hull: list[tuple[float, float]] = []
    for p in _PTS:
        while len(hull) >= 2 and (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0]) >= (
            p[1] - hull[-2][1]
        ) * (hull[-1][0] - hull[-2][0]):
            hull.pop()
        hull.append(p)
    s = 0.0
    for _ in range(10):
        d = np.diff(_X)
        s += float(np.max(d - np.min(d))) + float(_X.sum())
    return s + hull[-1][1]


def array_kernel() -> float:
    """The pair kernels in miniature: all pair differences of 2,100 values.

    The 35 MB temporary is larger than the caches and than glibc's largest
    mmap threshold, so, like the m x m temporaries of the package, it is
    mapped and faulted in afresh on every call.
    """
    diff = np.subtract.outer(_LINE, _LINE)
    return float(np.abs(diff, out=diff).max())


#: name -> (kernel, its nominal time in seconds).  The nominal time is the
#: kernel's time on a quiet 2-vCPU Xeon VM (2.1 GHz, Python 3.11, numpy 2.4);
#: it only fixes the scale of the scaled figures.
KERNELS = {
    "interpreter": (interpreter_kernel, 150e-6),
    "array": (array_kernel, 25e-3),
}

#: Samples on each side of a stretch of work that its scale is taken from.
WINDOW = 8


class Pace:
    """Timings of one reference kernel, taken between (and within) operations."""

    def __init__(self, kernel: str, window: int = WINDOW):
        self.kernel, self.nominal = KERNELS[kernel]
        self.window = window
        self.samples: list[float] = []
        self.enters: list[float] = []
        self.leaves: list[float] = []
        #: wall time spent inside ``sample``, to be taken out of operation times
        self.spent = 0.0

    def sample(self) -> None:
        enter = time.perf_counter()
        self.kernel()
        leave = time.perf_counter()
        self.samples.append(leave - enter)
        self.enters.append(enter)
        self.leaves.append(leave)
        self.spent += time.perf_counter() - enter

    def close(self) -> None:
        """Sample a full window after the last operation."""
        for _ in range(self.window):
            self.sample()

    def factor(self, i: int) -> float:
        """Scale of work done just before sample ``i``."""
        window = self.samples[max(0, i - self.window) : i + self.window]
        return self.nominal / statistics.median(window)

    def scaled(self, start: float, end: float) -> float:
        """Scaled duration of the work between ``perf_counter`` readings
        ``start`` and ``end``; samples taken in between are left out, and each
        stretch between them is scaled by the samples around it."""
        i = bisect.bisect_left(self.enters, start)
        total, t = 0.0, start
        while i < len(self.enters) and self.leaves[i] <= end:
            total += (self.enters[i] - t) * self.factor(i)
            t = self.leaves[i]
            i += 1
        return total + (end - t) * self.factor(i)
