"""Machine-speed reference for scaling times to a nominal speed.

Times are reported at the speed at which reference_kernel() takes
REF_NOMINAL_MS. On a shared 2-vCPU virtual machine (Intel Xeon, Python
3.11, numpy 2.4) the speed drifts by about +-15% over a few seconds (the
same trial, repeated, reads 310 to 500 ms, and its CPU time follows its
wall time). The kernel, timed next to every trial in every process that
works on it, tracks that drift; trial time divided by it repeats within a
few percent.
"""

from __future__ import annotations

import hashlib
from time import perf_counter_ns

import numpy

REF_NOMINAL_MS = 25.0


def reference_kernel() -> int:
    """Fixed work in the proportions of a trial: hashing, a numpy sort and
    interpreter bytecode. Independent of vdo, so a change to vdo cannot move it."""
    x = b"\0" * 80
    for i in range(8000):
        x = hashlib.sha256(x[:48] + i.to_bytes(8, "little")).digest() + x[32:80]
    a = numpy.arange(100_000, dtype=numpy.int64) * 7919 % 100_003
    numpy.unique(a, return_inverse=True)
    s = 0
    for i in range(50_000):
        s += i & 7
    return s


def reference_ms() -> float:
    start = perf_counter_ns()
    reference_kernel()
    return (perf_counter_ns() - start) / 1e6
