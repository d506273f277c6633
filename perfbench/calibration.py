"""Machine-speed calibration measured next to every timed job.

On a shared machine the speed available to one process drifts by tens of
percent over tens of seconds, which no median over a short run removes. The
kernels below are fixed code that does not touch jrcsim, one for each of the
program's two kinds of work: Python-dispatched operations on 5x5 matrices
(the sensing and optimizer paths) and vectorized Monte Carlo blocks (the
detection path). The two kinds do not slow down together, so a time is
divided by the kernel of its workload's kind (``workloads.CALIBRATION``),
measured around it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# median kernel times on the idle 2-core Intel Xeon the benchmark was built
# on (NumPy 2.4.6, SciPy 1.17.1); calibrated times read in seconds at that
# speed. The dispatch kernel alone ranged 9-18 ms there, the vectorized one
# 27.5-30.5 ms.
REFERENCE_S = {"dispatch": 0.0145, "vectorized": 0.0285}

_OFFSETS = np.arange(5) - 2.0
_RNG = np.random.default_rng(0)
_CLUTTER = _RNG.standard_normal((3, 5)) + 1j * _RNG.standard_normal((3, 5))
_BEAM = _RNG.standard_normal(5) + 0j


def _dispatch() -> float:
    acc = 0.0
    for i in range(300):
        a = np.exp(-2j * np.pi * _OFFSETS * (0.1 + 1e-4 * i))
        cho = scipy.linalg.cho_factor(np.eye(5) + 0.5 * np.outer(a, a.conj()))
        acc += np.vdot(a, scipy.linalg.cho_solve(cho, a)).real
    return acc


def _vectorized() -> float:
    # small blocks, so the kernel adds little to the measured peak memory
    g = np.random.Generator(np.random.Philox(7))
    acc = 0.0
    for _ in range(16):
        amps = g.standard_normal((4096, 3)) + 1j * g.standard_normal((4096, 3))
        noise = g.standard_normal((4096, 5)) + 1j * g.standard_normal((4096, 5))
        acc += float(np.count_nonzero(((amps @ _CLUTTER + noise) @ _BEAM).real > 0.3))
    return acc


_KERNELS = {"dispatch": _dispatch, "vectorized": _vectorized}


def _seconds(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def calibration_s(kind: str) -> float:
    """Median time of three runs of the kernel of this kind."""
    return statistics.median(_seconds(_KERNELS[kind]) for _ in range(3))
