"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its machine with other work, which moves the speed of
the CPU by 10-50 % over seconds to minutes, in CPU time as well as in wall
time.  A run cannot wait that out, so it measures the speed instead.
Between two ``qchan`` commands it times fixed kernels that use no ``qchan``
code, and it scales each command's latency by how much slower or faster
than their reference time the kernels ran around it:

    latency = raw seconds * reference kernel seconds / measured kernel seconds

A latency so scaled is in seconds at the reference speed, which is the
typical speed of the machine the reference times were taken on.  A change to
``qchan`` cannot change the kernels, so it shows in full; what cancels is
the part of the machine's drift that the kernels share with the commands.

Three kernels cover the kinds of work the workloads do, and every latency
is scaled by their sum:
- ``python``: an interpreter loop of float, integer and dict operations;
- ``numpy``: many small complex-matrix operations, as on the qubit paths;
- ``lapack``: eigensolves of a mid-sized Hermitian matrix, as in the Choi
  spectra of the large channels.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import eigvalsh  # bound here, so a tracer that rebinds numpy's never sees it

# Seconds the three kernels took together at the typical speed of a shared
# 2-CPU virtual machine (Python 3.11, numpy 2.4, OpenBLAS 0.3 on one
# thread): the median of many calibrations spread over several minutes.
REFERENCE_S = 0.0194


class Speedometer:
    """Times the calibration kernels; inputs are fixed, never from the seed."""

    PY_LOOP = 60_000
    NP_REPEATS = 150
    LAPACK_SIDE = 160
    LAPACK_REPEATS = 6

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self._small = a + a.conj().T
        b = rng.standard_normal((self.LAPACK_SIDE, self.LAPACK_SIDE))
        self._medium = b + b.T

    def _python(self):
        total, table = 0.0, {}
        for i in range(self.PY_LOOP):
            total += i * 0.5
            table[i & 63] = total
        return total

    def _numpy(self):
        h = self._small
        for _ in range(self.NP_REPEATS):
            eigvalsh(h)
            h @ h
            np.kron(h[:2, :2], h[:2, :2])

    def _lapack(self):
        for _ in range(self.LAPACK_REPEATS):
            eigvalsh(self._medium)

    def sample(self) -> float:
        """Seconds the three kernels take now."""
        t0 = time.perf_counter()
        self._python()
        self._numpy()
        self._lapack()
        return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Reference over measured kernel seconds, measured as the mean of the
    samples taken just before and just after the timed work."""
    return REFERENCE_S / ((before + after) / 2)
