"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by up to 2x within
minutes: on a shared 2-core VM the same job list took 29 s in one run and
50 s a few minutes later, while a similar interpreted kernel (a Fraction
loop) slowed from 4.3 ms to 8.2 ms in step. Every job therefore times this
kernel just before and just after ``main`` and every 0.1 s of CPU time
during it, and the runner reports job times scaled to a host on which the
kernel's mean time takes ``NOMINAL_S``. The kernel
does what hkdd does most, big-integer arithmetic with Euclid reductions in
interpreted loops, and it imports nothing, so it also runs before the
import that ``setup_s`` times.
"""

import time

NOMINAL_S = 0.002


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    num, den = 1, 1
    for i in range(1, 160):
        num, den = num * 7 * i + den, den * 3 * i
        a, b = num, den
        while b:
            a, b = b, a % b
        num, den = num // a, den // a
    return time.perf_counter() - t0
