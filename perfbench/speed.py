"""Host-speed calibration, so times from a drifting vCPU stay comparable.

On the shared 2-vCPU VM this benchmark was built on, the speed of the
vCPU drifts by up to 1.7x over tens of seconds with no steal time
reported: a fixed pure-Python loop took 9 to 15 ms per 100k iterations
within one 90 s window, and the program's build and execute times moved
with it.  Even 20 s means of that loop spread by 15% (quartile distance
over median), so no affordable run length averages the drift out.

Every timed piece of program work is therefore bracketed by a short
fixed calibration kernel, and times are reported in *reference* units:
the wall time scaled by ``REFERENCE_S`` over the kernel's time around
it, i.e. the time the work would take on a host that runs the kernel in
``REFERENCE_S``.  The kernel runs outside the timed region and touches
none of the program's code, so a change to the program moves the scaled
time exactly as it moves the wall time.  The raw wall times are printed
alongside, on the run's info line.
"""

from __future__ import annotations

import time

#: kernel iterations: about 0.5 ms of pure-Python work on that VM
KERNEL_ITERATIONS = 10_000
#: the kernel's time on the reference host, close to its median between
#: ops there, so reference times read close to that host's wall times
REFERENCE_S = 0.0005
_TABLE = {key: key for key in range(256)}


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel.

    Integer arithmetic and dict lookups on a prebuilt table: interpreter
    dispatch like the program's, and no allocation of objects the
    garbage collector tracks, so the kernel cannot shift the program's
    collections.
    """
    table = _TABLE
    start = time.perf_counter()
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += table[i & 255]
    return time.perf_counter() - start


def settled_kernel_seconds(runs: int = 7) -> float:
    """The median of a few kernel runs, for brackets around long work."""
    return sorted(kernel_seconds() for _ in range(runs))[runs // 2]


def scale(before: float, after: float) -> float:
    """The factor from wall time to reference time, for work bracketed by
    kernel times ``before`` and ``after``."""
    return 2 * REFERENCE_S / (before + after)
