"""Host-speed calibration of the benchmark's timings.

On a shared 2-core VM the same op's time moved by 20-30 % within seconds and
by up to 65 % between runs minutes apart, all of it user CPU time with no
steal time reported: the virtual CPU itself ran slower. So the benchmark
brackets every timed sample with a fixed calibration pass and rescales the
sample to the host speed at which one pass takes ``NOMINAL_S``.

The pass mixes the kinds of work the workloads do (an interpreter loop, small
numpy matrices in a Python loop, a sparse LU solve, float formatting) and
calls no cardiofem code, so a change to the package cannot move it.
"""

from __future__ import annotations

import io
import statistics
from time import perf_counter

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Seconds one pass takes at the nominal host speed; about its median on a
# 2-core Intel Xeon VM, so scaled times read close to wall times there.
NOMINAL_S = 0.11


class Calibration:
    """A fixed pass of work; calling it returns the seconds the pass took."""

    def __init__(self):
        n = 90
        self.laplacian = scipy.sparse.diags(
            [-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n], shape=(n * n, n * n), format="csc"
        )
        self.rhs = np.ones(n * n)
        self.matrices = [np.eye(3) + 0.01 * i for i in range(200)]
        self.points = np.linspace(0.0, 1.0, 3000)
        self()  # the first pass pays for lazy imports and cold caches

    def __call__(self) -> float:
        t0 = perf_counter()
        table = {}
        for i in range(60000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        for _ in range(10):
            for m in self.matrices:
                np.linalg.inv(m) @ m
        scipy.sparse.linalg.splu(self.laplacian).solve(self.rhs)
        text = io.StringIO()
        for _ in range(4):
            for p in self.points:
                text.write(f"{p:.9e} {2 * p:.9e} 0.0\n")
        return perf_counter() - t0


def scaled(samples: list[float], passes: list[float]) -> list[float]:
    """``samples`` rescaled to the nominal host speed.

    ``passes[i]`` and ``passes[i + 1]`` are the calibration passes run just
    before and just after ``samples[i]``.
    """
    return [s * 2 * NOMINAL_S / (passes[i] + passes[i + 1]) for i, s in enumerate(samples)]


def host_factor(passes: list[float]) -> float:
    """How much slower than nominal the host ran: median pass / ``NOMINAL_S``."""
    return statistics.median(passes) / NOMINAL_S
