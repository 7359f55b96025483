"""Reference kernels: fixed work, independent of the cubicmoduli package,
timed between the operations of a run to follow the speed of the machine.

The benchmark runs on a shared machine whose speed drifts by tens of
percent within minutes, so that wall times of the same code taken a few
minutes apart differ by more than any useful bound.  A run therefore
times a reference kernel after every operation, and reports each
operation time scaled to a nominal machine speed:

    scaled = wall time * NOMINAL_S / median of the kernel times around it

The kernel is the same code for every commit of the package, so a change
to the package moves the numerator only.  Set-up times are scaled alike
by a start-up kernel: a fresh interpreter that imports numpy, timed
between the set-ups.  Each workload uses the kernel
that resembles its hot path: `exact` (rational elimination and small
dictionaries, as the cyclotomic arithmetic, Reynolds averaging and rref
of the catalog entries) or `array` (int64 polynomial evaluation over a
grid, as the singular-point scan of the probe at a large prime).  Both are timed with the garbage collector off, so the
heap the package leaves behind does not slow the kernel.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Kernel times on the machine described in README.md; the scaled times
# read as wall seconds on a machine where each kernel takes this long.
NOMINAL_S = {"exact": 0.005, "array": 0.004, "startup": 0.2}
# The start-up kernel, which scales set-up times: a fresh interpreter
# importing the modules that every set-up imports before the package.
STARTUP_ARGV = ("-c", "import fractions, json, numpy")
# operations on each side of the one being scaled whose kernel times
# enter its median
WINDOW = 5


def exact_kernel() -> int:
    """Gauss-Jordan elimination over Q on a fixed 9x9 matrix, then a
    dictionary of tuple keys."""
    n = 9
    m = [[Fraction((i * 7 + j * 13 + i * j) % 17 - 8, 1 + (i + j) % 3)
          for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        pivot = next((r for r in range(rank, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    table = {}
    for k in range(3000):
        key = ((k * 31) % 997, k % 7)
        table[key] = table.get(key, 0) + k
    return rank * 10000 + len(table)


def array_kernel(p: int = 43) -> int:
    """Count the points of the (Z/p)^3 grid where a fixed cubic vanishes
    mod p, one temporary array per product."""
    x, y, z = np.indices((p,) * 3, dtype=np.int64).reshape(3, -1)
    value = x * x % p * y + 3 * z * z % p * x + y * y * y
    return int((value % p == 0).sum())


KERNELS = {"exact": exact_kernel, "array": array_kernel}
# what each kernel returns; a different value means it did other work
EXPECTED = {"exact": 93000, "array": 1849}


def time_kernel(name: str) -> float:
    """Wall seconds of one run of the kernel, with the collector off.
    One run, not the best of several: a first run pays the page faults
    and cache misses that the operations around it pay too."""
    kernel = KERNELS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED[name]:
        raise RuntimeError(f"reference kernel {name} returned {result}, "
                           f"expected {EXPECTED[name]}")
    return elapsed


def time_startup(env, cwd, timeout: float) -> float:
    """Wall seconds of one start-up kernel process."""
    start = time.monotonic()
    subprocess.run([sys.executable, *STARTUP_ARGV], env=env, cwd=cwd,
                   check=True, capture_output=True, text=True,
                   timeout=timeout)
    return time.monotonic() - start


def scale(op_s, ref_s, nominal: float, window: int = WINDOW) -> list:
    """Each operation time at the nominal speed.  ref_s[i] is the kernel
    time taken right after operation i; operation i is scaled by the
    median of the kernel times of operations i - window to i + window."""
    if len(op_s) != len(ref_s):
        raise ValueError("one kernel time per operation")
    return [t * nominal / statistics.median(
                ref_s[max(0, i - window):i + window + 1])
            for i, t in enumerate(op_s)]
