"""Host-speed calibration: a fixed reference kernel timed beside the workload.

On a shared virtual machine the same code runs up to about 1.6x slower for
seconds to minutes at a time, as other tenants load the host (CPU time
equals wall time, so the slow state is a slower CPU, not lost time slices).
A run can fall wholly inside a slow or a fast stretch, so no statistic taken
within one run removes it.

The benchmark therefore times a small fixed kernel -- an interpreter loop,
NumPy scalar calls, row and column updates of a 48x48 matrix and calls on a
4096-element array, the kinds of work the steklov layers do -- between
operations, and scales every reported time by ``REFERENCE_S / k``, where
``k`` is the kernel's time measured next to it.  A reported time reads as
the time the operation would take on a host on which the kernel takes
``REFERENCE_S``; the raw times are kept in each run's record.  The kernel
calls nothing of steklov, so a change of the package moves the reported
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel's time (best of three) on the 2-vCPU Xeon virtual machine the
# benchmark was tuned on, in its fast state (0.76-1.43 ms over 30 s).
REFERENCE_S = 0.8e-3
# Least wall time between two kernel timings inside the timed phase.
INTERVAL_S = 0.1
# Kernel timings on each side of an operation that set its scale.
WINDOW = 5


def _kernel() -> float:
    s = 0
    for i in range(6000):  # interpreter loop
        s += i * i % 7
    x = 0.3
    for _ in range(150):  # NumPy scalar calls
        x = float(np.tanh(np.float64(x))) + 0.1
    m = np.arange(48 * 48, dtype=float).reshape(48, 48) * 1e-4
    for _ in range(40):  # row and column updates of a small matrix
        row = m[3, :].copy()
        m[3, :] = m[5, :] * 0.6 + row * 0.8
        m[:, 5] = m[:, 3] * 0.5
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(15):  # whole-array calls
        a = np.tanh(a) + np.float64(0.5)
    return s + x + float(m[0, 0] + a[0])


def kernel_s() -> float:
    """Best of three timings of the kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Kernel timings taken between the operations of a timed phase."""

    def __init__(self):
        self.points: list[tuple[int, float]] = []  # (operations done before it, kernel s)
        self._last = -math.inf

    def between(self, done: int, force: bool = False) -> None:
        """Time the kernel if INTERVAL_S has passed since the last timing."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            self.points.append((done, kernel_s()))
            self._last = time.perf_counter()

    def scales(self, n: int) -> list[float]:
        """REFERENCE_S / k for operations 0..n-1.

        k is the median of the WINDOW kernel timings before and the WINDOW
        after each operation: a single 5 ms timing is itself noisy, and the
        host's speed changes over seconds.
        """
        out = []
        j = 0
        for i in range(n):
            while j + 1 < len(self.points) and self.points[j + 1][0] <= i:
                j += 1
            near = self.points[max(0, j + 1 - WINDOW) : j + 1 + WINDOW]
            out.append(REFERENCE_S / statistics.median(k for _done, k in near))
        return out
