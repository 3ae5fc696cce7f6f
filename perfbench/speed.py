"""Machine-speed reference: a fixed numpy/scipy kernel timed around each solve.

The host this benchmark was tuned on is a shared virtual machine whose speed
drifts by 15-35% over tens of seconds, so the median of a 30 s run depends
on which 30 s it was.  Wall time alone then measures the neighbours as much
as the program.  ``Kernel`` is a fixed piece of work of the same kind as the
solver's (the real FFT and DCT pair of ``chns.grid``, a difference stencil
and elementwise products on arrays of the workload's own grid size) that
calls no chns code, so no change to the program changes it.  Timing it right before and right after
each solve gives the machine's speed at that moment, and

    time_to_solution_s = wall time of the solve * nominal_s / kernel time

is the solve's time on a machine where the kernel takes ``nominal_s``: the
same solve on a faster or slower moment of the host reads the same.  The
wall times are kept next to the scaled ones in the report.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft as sfft

# Grid size -> (repetitions per call, the call's median time on the machine
# the benchmark was tuned on: 2-core Intel Xeon virtual machine, Python
# 3.11, numpy 2.4, scipy 1.17, one thread).  Scaled times are seconds on that
# machine.  About 100 ms per call on the workloads' sizes; 16^2 is the smoke
# test's.
CALLS = {16: (40, 0.0056), 64: (210, 0.094), 128: (60, 0.105), 256: (15, 0.110)}

# Arrays the kernel cycles through, so that like the solver's fields they do
# not all stay in the core's own cache.
POOL = 16


class Kernel:
    def __init__(self, n: int):
        rng = np.random.default_rng(0)
        self.pool = [rng.standard_normal((n, n)) for _ in range(POOL)]
        self.reps, self.nominal_s = CALLS[n]

    def time(self) -> float:
        """Wall time of one call to the fixed kernel."""
        pool, n = self.pool, self.pool[0].shape[0]
        t0 = time.perf_counter()
        for i in range(self.reps):
            a, b = pool[i % POOL], pool[(7 * i + 3) % POOL]
            ah = sfft.dct(sfft.rfft(a, axis=0), type=2, axis=1)
            c = sfft.irfft(sfft.idct(0.5 * ah, type=2, axis=1), axis=0, n=n)
            d = np.roll(a, -1, axis=0) - 2.0 * a + np.roll(a, 1, axis=0) + b * c
            0.5 * (d + np.roll(d, 1, axis=0)) * b - a ** 3
        return time.perf_counter() - t0
