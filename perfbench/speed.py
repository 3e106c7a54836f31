"""Reading how fast the shared machine runs Python while a job runs.

On the 2-core Intel Xeon VM this benchmark was defined on (Python 3.11.7)
the same Python code runs up to 1.9x slower while other tenants are busy,
and the state switches within a fraction of a second.  timed() times a
small fixed piece of reference work a few times before and after a job
and every SAMPLE_S seconds during it, from a SIGALRM handler, and rescales
the job's wall time by the samples' mean wall time and its CPU time by
their mean CPU time, each sample clipped at MAX_SLOWDOWN.  The reference
work never touches oscalg, so a change to the library moves rescaled times
as much as raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

# reference_work() on an uncontended core of that VM, in wall and in CPU
# seconds alike.
REFERENCE_S = 220e-6
SAMPLE_S = 0.02
EDGE_SAMPLES = 4
# The machine's slow state runs the reference work about 2x slower; 99% of
# samples stay below 3x.  A slower sample was descheduled or interrupted,
# and clipping it bounds what one such sample does to a job's factor.  The
# mean, not the median, of the clipped samples follows the share of a job
# spent in each state; a median snaps to one of them.
MAX_SLOWDOWN = 3.0


def reference_work():
    """Fixed pure-Python work of the library's own kind: exact fractions,
    tuples and dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 100):
        acc += Fraction(i, i + 1)
        table[(i, i % 7)] = acc
    return acc


def reference_time() -> tuple:
    """(wall, CPU) seconds of one reference_work().  The garbage collector
    is off inside the timed interval, so the time does not grow with the
    heap of the library under test; switching it is outside the interval."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = process_time()
        t0 = perf_counter()
        reference_work()
        wall = perf_counter() - t0
        cpu = process_time() - c0
    finally:
        if enabled:
            gc.enable()
    return wall, cpu


def edge_samples():
    return [reference_time() for _ in range(EDGE_SAMPLES)]


def _factor(times) -> float:
    return statistics.mean(min(t / REFERENCE_S, MAX_SLOWDOWN) for t in times)


def slowdown(samples) -> float:
    """How many times slower than REFERENCE_S the reference work ran, by
    the samples' wall times."""
    return _factor(wall for wall, _ in samples)


def cpu_slowdown(samples) -> float:
    """The same by the samples' CPU times: how much more CPU time the same
    work took, with time spent waiting for a CPU left out."""
    return _factor(cpu for _, cpu in samples)


def timed(fn, *args) -> dict:
    """Run fn(*args) while sampling the machine's speed.

    Returns the result, the raw wall time, the wall time rescaled by
    slowdown() and the CPU time rescaled by cpu_slowdown() (the sampling's
    own time taken out of both) and the wall slowdown."""
    samples = edge_samples()
    paused = [0.0, 0.0]

    def sample(signum, frame):
        c0 = process_time()
        t0 = perf_counter()
        samples.append(reference_time())
        paused[0] += perf_counter() - t0
        paused[1] += process_time() - c0

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        c0 = process_time()
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        cpu = process_time() - c0
        spent_wall, spent_cpu = paused
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += edge_samples()
    factor = slowdown(samples)
    return {"result": result, "raw_wall": wall,
            "wall": (wall - spent_wall) / factor,
            "cpu": (cpu - spent_cpu) / cpu_slowdown(samples),
            "slowdown": factor}
