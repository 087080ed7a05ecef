"""The reference kernel behind the benchmark's calibrated seconds.

The 2-core machine the benchmark was written on shares its cores with
other tenants: measured whole-process speed switches between two levels
about 1.45x apart, for stretches of seconds to minutes, and CPU time moves
with wall time (bench/README.md). Medians of raw stage times therefore
spread 20-30% between runs. Timing this fixed, csm-independent kernel
right before and after every timed stage slice and dividing by it cancels
most of that drift.

One calibrated second (``cal-s``) is the time of ``KERNELS_PER_CAL_S``
reference kernels run at the same moment. A change to ``csm`` moves the
stage time and not the kernel, so it shows in full.
"""

from __future__ import annotations

import time

import numpy as np

KERNELS_PER_CAL_S = 100

_rng = np.random.default_rng(0)
_DATA = _rng.random(200_000)
_IDX = _rng.integers(0, _DATA.size, 100_000)
_BINS = _IDX % 1000


def reference() -> float:
    """Seconds one pass of the kernel takes now (interpreter and numpy work
    in roughly the mix the pipeline stages run)."""
    t = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i
    table = {i: (i, i + 1) for i in range(8_000)}
    x = _DATA[_IDX]
    np.sort(x)
    counts = np.zeros(1000)
    np.add.at(counts, _BINS, x)
    float(np.exp(x).sum()) + s + len(table)
    return time.perf_counter() - t


def calibrated(seconds: float, reference_seconds: float) -> float:
    """``seconds`` expressed in calibrated seconds."""
    return seconds / (reference_seconds * KERNELS_PER_CAL_S)
