"""Host-speed reference: a fixed computation timed inside every pass.

On a shared host the speed of the machine changes from minute to minute, and
a pass time moves with it.  ``perfbench/child.py`` times this computation
just before and just after the program runs, in the same interpreter, and
``perfbench/run.py`` divides each pass's times by it, so what is left is the
program's own cost.  The mix follows the program's: float recurrences in
pure Python (the special-function layer), small complex numpy arrays (group
and Fock-space helpers) and a dense BLAS product.

The computation never changes with the program under test: changing it
changes the unit of every time metric.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median time of ``reference()`` on the host the benchmark was tuned on
# (Intel Xeon, 2 vCPUs, Python 3.11, OpenBLAS pinned to 1 thread); time
# metrics are reported in seconds of that host: measured / reference * NOMINAL_S
NOMINAL_S = 0.15


def reference() -> float:
    """Run the fixed computation once and return its duration in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for n in range(1, 40000):
        a, b = 1.0, 0.5
        for k in range(8):
            a, b = b, (2 * k + 1.3) * b / (k + 1) - a * 0.7
        acc += math.lgamma(n % 50 + 1.5) + a
    rng = np.random.default_rng(0)
    m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    x = m
    for _ in range(200):
        x = (x @ m) / 64.0
        acc += np.exp(1j * np.angle(x[:, :8])).sum().real
    b = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    for _ in range(6):
        acc += (b @ b)[0, 0].real
    return time.perf_counter() - start
