"""Speed normalisation: a fixed reference kernel timed next to every sample.

On a shared VM the speed of a vCPU swings by up to a half, in phases of
seconds to minutes, with the work unchanged.  The benchmark therefore times,
in CPU seconds, a fixed reference kernel just before and just after every
sample, and divides the sample's CPU time by the kernel's.  A time in
reference units is that ratio times the kernel's nominal time: what the
sample would have taken on a machine that runs the kernel in exactly its
nominal time.  A program change moves the sample and not the kernel, so it
shows in full; a phase of the machine moves both, and cancels.

Phases slow different kinds of work by different amounts, so each workload
is paired with the kernel that does its kind of work.  Kernels use numpy
only, never quditorbits code, and their inputs are fixed, not seeded.

pin() holds the benchmark and every child it starts to one CPU, so that a
kernel and the program it calibrates run on the same vCPU.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import NamedTuple

import numpy as np

_RNG = np.random.default_rng(20210826)


def _hermitian(N):
    z = _RNG.standard_normal((N, N)) + 1j * _RNG.standard_normal((N, N))
    return (z + z.conj().T) / 2.0


_SMALL = [_hermitian(N) for N in (2, 3, 5, 8) * 4]
_STACK = _RNG.standard_normal((35, 6, 6)) + 1j * _RNG.standard_normal((35, 6, 6))


def small_matrices() -> float:
    """Eigenvalues, products, traces and characteristic coefficients of small matrices."""
    acc = 0.0
    for m in _SMALL:
        w = np.linalg.eigvalsh(m)
        acc += float(np.trace(m @ m).real) + float(w[0])
        acc += sum(float(c) for c in np.poly(w))
    return acc


def triple_contraction() -> np.ndarray:
    """T_abc = tr(l_a l_b l_c) over a fixed stack of 35 complex 6 x 6 matrices."""
    return np.einsum("aij,bjk,cki->abc", _STACK, _STACK, _STACK, optimize=True)


# name -> (kernel, nominal seconds per call)
KERNELS = {
    "small-matrices": (small_matrices, 1e-3),
    "triple-contraction": (triple_contraction, 25e-3),
}


class Sample(NamedTuple):
    cpu: float  # CPU seconds of the sample
    wall: float  # wall seconds of the sample
    kernel: float  # kernel seconds per call around it
    ref: float  # the sample's CPU time in reference seconds


class Clock:
    """Times calls in CPU seconds, each bracketed by `reps` calls of a kernel.

    measure(fn) returns (result, Sample); the kernel time is the mean of the
    median kernel call just before and just after fn.
    """

    def __init__(self, kernel: str, reps: int):
        self.name = kernel
        self._kernel, self._nominal = KERNELS[kernel]
        self.reps = reps
        self._before = self._kernel_seconds()

    def _kernel_seconds(self) -> float:
        times = []
        for _ in range(self.reps):
            start = time.process_time()
            self._kernel()
            times.append(time.process_time() - start)
        return statistics.median(times)

    def measure(self, fn, cpu_clock=time.process_time):
        cpu, wall = cpu_clock(), time.perf_counter()
        out = fn()
        cpu, wall = cpu_clock() - cpu, time.perf_counter() - wall
        after = self._kernel_seconds()
        kernel = (self._before + after) / 2.0
        self._before = after
        return out, Sample(cpu, wall, kernel, cpu / kernel * self._nominal)


def pin() -> int:
    """Pin this process, and so its future children, to one allowed CPU; return it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
