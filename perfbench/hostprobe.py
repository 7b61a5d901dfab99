"""Host-speed probe for the end-to-end timings.

The benchmark's host is shared, and its speed for the same code drifts
by up to 80% over minutes (WORKLOADS.md, "Host-speed probe").  A fixed
piece of work that uses nothing from blockmg, an interpreter loop and a
sparse matrix-vector product, is timed before every case of every pass.
The end-to-end timings are scaled by ``REFERENCE_S`` over the probe's
median in the run, so they read as seconds on a host where the probe
takes ``REFERENCE_S``; the raw medians are printed and recorded beside
them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sparse

REFERENCE_S = 0.010
_LOOP = 60_000
_SIZE = 100_000
_PRODUCTS = 10


class HostProbe:
    def __init__(self):
        self._matrix = sparse.diags([-1.0, 2.5, -1.0], [-1, 0, 1],
                                    shape=(_SIZE, _SIZE), format="csr")
        self._x = np.linspace(0.0, 1.0, _SIZE)
        self.samples = []

    def __call__(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(_LOOP):
            total += i * i
        y = self._x
        for _ in range(_PRODUCTS):
            y = self._matrix @ y
            y = y / np.linalg.norm(y)
        self.samples.append(perf_counter() - start)

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor from raw seconds in this run to reference seconds."""
        return REFERENCE_S / self.median_s()
