"""Machine-speed gauge: divides the host's speed drift out of the timings.

The reference machine is a share of a host whose speed drifts by up to 2x
over minutes (a fixed loop's time moves with the host's other load), which
swamps any change to the program.  The gauge times a fixed calibration
kernel, independent of meandim, between jobs; a latency measured between two
gauge readings is scaled by REFERENCE_S / (mean of the two readings), so it
reads in *reference seconds*: the time the job would take on the machine
when the kernel takes REFERENCE_S.  A slower program still reads slower; a
slower machine does not.  The raw seconds are printed beside every run.

The kernel mixes what meandim's hot loops do: integer arithmetic, dict
updates, Fraction sums, sorting, small numpy products and a power iteration
on a 160 x 160 matrix, as in the spectral radius of an SFT.  The collector is
paused while it runs, so a large heap left by the program cannot slow the
kernel and make the program look faster.
"""

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0021  # kernel time on the reference machine in its fast phase
REPS = 3  # kernel runs per reading; the reading is their median

_MATRIX = np.arange(1024.0).reshape(32, 32) / 1024.0
_SQUARE = (np.arange(160.0 * 160).reshape(160, 160) % 7) / 7.0


def kernel():
    acc = 0
    table = {}
    for i in range(6000):
        acc += (i * i) % 97
        table[i % 257] = table.get(i % 257, 0) + 1
    frac = Fraction(0)
    for i in range(1, 300):
        frac += Fraction(1, i % 31 + 1)
    sorted(range(2000, 0, -1))
    product = _MATRIX
    for _ in range(20):
        product = product @ _MATRIX
    vec = np.ones(160)
    for _ in range(40):
        vec = _SQUARE @ vec
        vec = vec / vec.max()
    return acc, frac


def reading():
    """Seconds per kernel run now: the median of REPS runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(before, after):
    """Factor from raw seconds, measured between two readings, to reference
    seconds."""
    return REFERENCE_S / ((before + after) / 2)
