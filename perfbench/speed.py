"""Machine-speed reference for normalizing the benchmark's timings.

A shared machine can drift in speed by 30–50% over minutes with the load
of other tenants on its host, more than any useful regression bound. A
fixed reference kernel — interpreter work and NumPy calls on tiny and
on 0.5–2 MB arrays, the mix the workloads run — is timed after each
set-up and after each step, outside the step timing, when the program
has no work in flight. Timing metrics are reported in reference
seconds: measured wall time × ``NOMINAL_S`` ÷ the median kernel time of
the same phase of the run. The kernel is benchmark code only, so a
change to the program cannot make it faster or slower, except by
leaving work running between steps (which the step-accounting trace
would show).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time that defines one reference second: a round figure near
#: the kernel's time on a shared 2-CPU x86-64 container (5.5–9 ms
#: there, depending on the load of other tenants).
NOMINAL_S = 0.006


class SpeedReference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._floats = rng.standard_normal(1 << 18)
        self._bytes = rng.integers(0, 256, size=1 << 19, dtype=np.uint8)
        self._lanes = np.arange(64, dtype=np.int64)
        self._picks = np.arange(0, 64, 2)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        # Three parts of about 2 ms each, because they slow down by
        # different shares under contention: interpreter work, NumPy
        # calls on tiny arrays (dispatch-bound, like the chunked Huffman
        # decoder and per-tile bookkeeping), and passes over 0.5–2 MB
        # arrays (memory-bound, like recompose and QoI estimation).
        counts: dict[int, int] = {}
        for i in range(10000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        lanes = self._lanes
        for _ in range(1000):
            np.add(lanes, 3, out=lanes)
            np.right_shift(lanes, 1, out=lanes)
            lanes[self._picks]
        np.sort(self._floats[: 1 << 16])
        np.cumsum(self._floats)
        scaled = self._floats * 1.5
        np.abs(scaled, out=scaled)
        np.bincount(self._bytes, minlength=256)

    def sample(self, times: int = 1) -> None:
        """Time the kernel *times* times."""
        for _ in range(times):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Reference seconds per measured second in this run."""
        return NOMINAL_S / self.median_s
