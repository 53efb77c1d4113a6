"""Machine-speed probe: a fixed kernel that uses no flexmkt code.

The kernel mixes what the package spends its time on: dense numpy
matrix-vector products and rank-one updates of a 150x150 inverse, a
row-by-row ratio test in Python, and building many small dicts. Its time
tracks how fast this machine runs such code at the moment, which on a
shared virtual machine changes by up to a factor of two within seconds.
"""

from __future__ import annotations

import time

# The kernel's time, in seconds, on the machine the reference figures
# come from; end-to-end times are scaled to it.
REFERENCE_S = 0.080


def kernel_seconds() -> float:
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    m, n = 150, 300
    f = rng.random((m, n))
    binv = np.eye(m)
    for it in range(400):
        y = binv[it % m] @ f
        u = binv @ f[:, int(np.argmin(y))]
        best = None
        for i in range(m):
            if u[i] > 1e-9:
                ratio = (i + 1.0) / u[i]
                if best is None or ratio < best[0]:
                    best = (ratio, i)
        row = best[1] if best else 0
        binv -= np.outer(u, binv[row]) * 1e-12
    rows = [None] * 64       # bounded, so the probe leaves peak memory alone
    for k in range(50000):
        rows[k % 64] = {k % 97: 1.0, (k * 7) % 89: -1.0, "x": float(k)}
    return time.perf_counter() - t0
