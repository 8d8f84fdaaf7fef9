"""A fixed reference kernel that measures how fast the machine is.

Wall time on a shared VM drifts by tens of percent within minutes, so
the benchmark's times are divided by the time of this kernel, taken
right around (and where the work allows, inside) the timed work. The kernel does the kinds of work a replay
and a set-up do (k-d tree queries, 3x3 eigen-decompositions, a dict
scan with small numpy reductions and a dense solve) on inputs made once
from a fixed seed. No mlio code runs in it, so a change to mlio cannot
speed it up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

# Seconds of one kernel run on a nominal machine. A time in reference
# runs times NOMINAL_S is the time the work would take on that machine;
# setup_s is reported that way. One run took 0.17-0.36 s on a 2-core
# x86 VM, depending on its momentary speed.
NOMINAL_S = 0.25


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cloud = rng.standard_normal((30000, 3))
        self.queries = rng.standard_normal((24000, 3))
        self.blocks = rng.standard_normal((2400, 3, 3))
        a = rng.standard_normal((360, 360))
        self.h = a @ a.T + 360.0 * np.eye(360)
        self.b = rng.standard_normal(360)
        self.voxels = {(i, i // 7, i % 13): rng.standard_normal((4, 3))
                       for i in range(12000)}

    def block(self, seconds) -> list:
        """Times of back-to-back runs of the kernel, at least one, until
        they add up to `seconds`."""
        times = [self.time()]
        while sum(times) < seconds:
            times.append(self.time())
        return times

    def time(self) -> float:
        t0 = time.perf_counter()
        cKDTree(self.cloud).query(self.queries, k=8)
        for c in self.blocks:
            np.linalg.eigh(c @ c.T)
        [k for k, v in self.voxels.items() if np.max(np.abs(v)) < 2.0]
        for _ in range(20):
            np.linalg.solve(self.h, self.b)
        return time.perf_counter() - t0


class Bracket:
    """Times work in reference runs. Each timed piece of work lies
    between two blocks of kernel runs, one before and one after it; the
    work may also call `sample` at points inside it, which runs the
    kernel there with the clock paused. The work's time is divided by
    the mean time of all kernel runs before, inside and after it. A
    block after one piece of work is the block before the next.

    Kernel time per piece of work is `share` of the work's time, at
    least one run: inside first, as far as the work offers sample
    points, and the rest in the block after."""

    def __init__(self, reference: Reference, share: float, first_s: float):
        self.reference = reference
        self.share = share  # kernel time per second of timed work
        self.samples = reference.block(first_s)  # every kernel time
        self._before = list(self.samples)
        self._inside = []
        self._start = 0.0
        self.paused = 0.0  # kernel seconds inside the current work

    def open(self) -> None:
        """Starts a piece of work that may call `sample`."""
        self._inside = []
        self.paused = 0.0
        self._start = time.perf_counter()

    def sample(self) -> None:
        """Runs the kernel once if the kernel time inside the work is
        still below `share` of the work's time so far."""
        now = time.perf_counter()
        if sum(self._inside) < self.share * (now - self._start - self.paused):
            self._inside.append(self.reference.time())
            self.paused += time.perf_counter() - now

    def close(self, wall: float) -> float:
        """Runs the block after `wall` seconds of work (kernel time
        inside it excluded); returns the work in reference runs."""
        after = self.reference.block(self.share * wall - sum(self._inside))
        self.samples += self._inside + after
        ref = statistics.fmean(self._before + self._inside + after)
        self._before = after
        self._inside = []
        self.paused = 0.0
        return wall / ref
