"""A fixed reference computation that tracks the speed of a shared host.

On a shared 2-vCPU host (Xeon at 2 GHz) the same Python work runs up to
about 1.8 times slower while neighbours load the machine: in fifteen
second windows over five minutes, a fixed loop and a fixed set of
``VerificationService`` requests each spread by 0.17-0.19 of their
median (IQR), while the ratio of the two spread by 0.02.  The benchmark
therefore runs :func:`reference_ms` next to the program (before the first
timed request, after every one, and around every launch) and states its
timings at the reference speed: a time measured while the reference took
``r`` ms per call is reported multiplied by ``REFERENCE_MS / r``.  A
change that makes the program slower or faster moves the reported figures
one for one; a host that gets slower moves both sides of the ratio and
cancels.

The reference is pure-Python integer and dictionary work, like the
program's polynomial arithmetic, and belongs to the benchmark, so a
change to the program cannot change it.
"""

from __future__ import annotations

import os
import statistics
import time

#: The reference's time per call, in ms, on a quiet 2 GHz Xeon vCPU.  It
#: only sets the scale of the reported figures.
REFERENCE_MS = 15.0
_ITERATIONS = 80_000


def _reference() -> int:
    table: dict[int, int] = {}
    for step in range(_ITERATIONS):
        key = (step * 7919) % 4099
        table[key] = table.get(key, 0) ^ (step << 3)
    return len(table)


def _timed_ms() -> float:
    start = time.perf_counter()
    _reference()
    return 1000 * (time.perf_counter() - start)


def reference_ms() -> float:
    """The reference's wall time in ms: run once on each CPU the calling
    thread may use, and averaged, as the two vCPUs of a shared host are
    often loaded differently."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) == 1:
        return _timed_ms()
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(_timed_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def pin_to_one_cpu() -> None:
    """Keep the calling thread, and the processes it starts from now on,
    on one CPU, so that the reference runs where the program runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scale(reference: list[float]) -> float:
    """The factor that states times measured alongside ``reference`` at
    the reference speed (above 1 on a host faster than the reference)."""
    return REFERENCE_MS / statistics.fmean(reference)
