"""Calibration kernel: a fixed piece of work that measures the host's speed.

The benchmark's reference host (2 vCPU Intel Xeon guest) shares its cores
with other tenants.  There, the speed of a single-threaded process switches
between regimes up to about 2x apart for seconds to minutes at a time, on
both vCPUs at once, with no steal time and no involuntary context switches
visible inside the guest.  Raw wall times then spread across runs far wider
than any useful regression bound.

The kernel below is timed next to the work being measured, and each time is
reported at the nominal speed: ``seconds * NOMINAL_S / kernel_seconds``.
It uses the same kind of operations as the library (Python calls and numpy
operations on arrays of about a hundred elements) but none of its code, so a
change to the library moves the measured time and leaves the kernel alone.
Over the twenty runs of ``baseline.json`` and ``baseline_rerun.json``, the
raw median pass time spread (quartile distance over median) 0.30, 0.12 and
0.40 on ``sweep_small_n``, ``diagnose_large_n`` and ``hetero_point``; scaled,
it spread 0.039, 0.068 and 0.043.  Work on arrays of megabytes slows much
less than the kernel, so this scaling suits only workloads like these.
"""

import math
import time

import numpy as np

# The kernel's time on an uncontended core of the reference host; it only
# sets the scale of the reported times.
NOMINAL_S = 0.002

_A = np.linspace(0.1, 1.0, 128)


def _kernel() -> float:
    s = 0.0
    for i in range(150):
        b = np.roll(_A, i % 7) * _A
        s += float(np.sum(b)) + math.log1p(abs(s) % 3.0)
    return s


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
