"""Host-speed probe: rescale wall times to a fixed reference host speed.

The shared host the benchmark runs on switches between a fast and a slow
state under other tenants' load, for seconds to minutes at a time; the same
job takes up to 1.8x longer in the slow state (README.md, "Host speed").  A
run of tens of seconds lands in either state, so raw wall times of identical
runs spread far wider than any useful regression bound.

``SpeedTrack`` times three fixed kernels, one for each kind of work the
package does, at the start and end of every pass and between jobs at most
``PROBE_EVERY_S`` apart:

- ``_arrays``: normal draws and an in-place sort of 10^6 values (sampling,
  binning, metric validation);
- ``_tableau``: Bland-rule pivots on a dense 40 x 120 tableau read element by
  element from Python (the dense simplex);
- ``_lists``: row eliminations on nested Python lists of floats (the
  transportation simplex's Python-level graph and flow updates).

A probe's slowdown is the mean over the kernels of their time over their
reference time.  A job's time is divided by the mean slowdown of the last
probe before it and the first one after it.  The kernels are the
benchmark's own code, so a change to the package moves the rescaled time as
it moves the wall time, while a change of host state moves both the job and
the probe.  Probe time is never part of a timed interval.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

#: Longest stretch of jobs between two probes.
PROBE_EVERY_S = 1.0

_ARRAY = np.empty(10**6)
_TABLEAU = np.random.default_rng(20220804).uniform(-1.0, 1.0, (41, 121))
_TABLEAU[:, -1] = np.abs(_TABLEAU[:, -1]) + 0.1
_TABLEAU_PIVOTS = 40


def _arrays() -> None:
    # in place on a buffer allocated once: a fresh 8 MB array would time the
    # allocator, whose cost depends on what the package freed before
    rng = np.random.default_rng(20220804)
    for _ in range(2):
        rng.standard_normal(out=_ARRAY)
        _ARRAY.sort()


def _tableau() -> None:
    for _ in range(6):
        T = _TABLEAU.copy()
        m, rhs = T.shape[0] - 1, T.shape[1] - 1
        obj = T[m]
        for _ in range(_TABLEAU_PIVOTS):
            enter = next((j for j in range(rhs) if obj[j] > 1e-9), -1)
            if enter < 0:
                break
            leave, best = -1, np.inf
            for i in range(m):
                a = T[i, enter]
                if a > 1e-9 and T[i, rhs] / a < best:
                    leave, best = i, T[i, rhs] / a
            if leave < 0:
                break
            T[leave, :] /= T[leave, enter]
            factors = T[:, enter].copy()
            factors[leave] = 0.0
            T -= factors[:, None] * T[leave, :][None, :]


def _lists() -> None:
    for _ in range(4):
        rows = [[float(i + j) for j in range(30)] for i in range(30)]
        for k in range(30):
            pivot_row = rows[k]
            pivot = pivot_row[k] + 1.0
            for row in rows:
                f = row[k] / pivot
                for j in range(30):
                    row[j] -= f * pivot_row[j]


#: (kernel, reference seconds).  A reference is near the kernel's median time
#: on the 2-core host the benchmark was defined on (README.md, "Host speed").
KERNELS = (
    (_arrays, 0.068),
    (_tableau, 0.010),
    (_lists, 0.0105),
)


def probe_slowdown() -> float:
    """Mean over the kernels of their wall time over their reference time."""
    total = 0.0
    for kernel, ref in KERNELS:
        started = perf_counter()
        kernel()
        total += (perf_counter() - started) / ref
    return total / len(KERNELS)


class SpeedTrack:
    """Probe samples of one run, as (time taken at, slowdown)."""

    def __init__(self):
        self.at: list[float] = []
        self.slowdowns: list[float] = []

    def probe(self) -> None:
        slowdown = probe_slowdown()
        self.at.append(perf_counter())
        self.slowdowns.append(slowdown)

    def maybe_probe(self) -> None:
        """Probe if the last probe is older than ``PROBE_EVERY_S``."""
        if not self.at or perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over [start, end]: the mean of the nearest probes
        on either side."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        if i < 0 or j >= len(self.at):
            raise ValueError("interval is not bracketed by probes")
        return (self.slowdowns[i] + self.slowdowns[j]) / 2.0

    def summary(self) -> str:
        s = self.slowdowns
        q = statistics.quantiles(s, n=4, method="inclusive") if len(s) > 1 else [s[0]] * 3
        return (f"probe slowdown over {len(s)} samples: median {q[1]:.3f}, q1 {q[0]:.3f}, "
                f"q3 {q[2]:.3f}, min {min(s):.3f}, max {max(s):.3f}")
