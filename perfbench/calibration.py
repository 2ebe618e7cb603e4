"""Host-speed calibration: a fixed kernel timed between requests.

The shared host this benchmark runs on goes through stretches, from
seconds to minutes long, in which the same work takes up to 1.5 times
as long, in wall and in CPU time alike.  A stretch can cover a whole
run, so no statistic over one run's requests removes it.  What does is
timing a fixed piece of work right beside each request: the host slows
it by the same factor.

:func:`kernel_seconds` times one pass of a kernel made of the two kinds
of work the program does, interpreted Python over dicts, tuples and
floats (the machine model, lowering, search) and small NumPy matrix
products (the policy network).  It lives here, outside the program, so
no change to the program moves it.  :func:`scale` turns the kernel time
measured beside some requests into the factor that converts their times
to :data:`REFERENCE_SECONDS`, the kernel's time on a quiet 2-vCPU x86-64
box: a time reported "at reference speed" is what it would have taken
there.  The host's slow stretches slow each workload less than the
kernel, and by a different amount, so each workload scales by the
kernel's ratio to the power of its own measured sensitivity.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's time on the 2-vCPU x86-64 box the bounds were set on,
#: in a stretch where the host ran at its usual (fast) speed
REFERENCE_SECONDS = 0.0032
#: passes per measurement; the fastest one counts
PASSES = 5
#: Python-work iterations and NumPy products per pass (~2 ms + ~1.2 ms
#: on that box)
PYTHON_STEPS = 3_000
NUMPY_STEPS = 200

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.standard_normal((64, 64))
_INPUTS = _RNG.standard_normal((64, 16))


def _python_work() -> float:
    totals: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(PYTHON_STEPS):
        key = (i % 97, i % 13)
        totals[key] = totals.get(key, 0.0) + i * 0.5
        acc += sum(x * 1.0001 for x in key)
    ordered = sorted(totals.items(), key=lambda item: item[1])
    return acc + len(ordered)


def _numpy_work() -> float:
    acc = 0.0
    for _ in range(NUMPY_STEPS):
        acc += float(np.tanh(_WEIGHTS @ _INPUTS).sum())
    return acc


def kernel_seconds() -> float:
    """Wall time of the fastest of :data:`PASSES` passes of the kernel.

    The fastest pass leaves out a pass the scheduler happened to
    interrupt, and keeps a slowdown that lasts the whole measurement.
    """
    fastest = float("inf")
    for _ in range(PASSES):
        began = time.perf_counter()
        _python_work()
        _numpy_work()
        fastest = min(fastest, time.perf_counter() - began)
    return fastest


def scale(before: float, after: float, sensitivity: float) -> float:
    """Factor converting times measured between two kernel measurements
    of ``before`` and ``after`` seconds to reference speed.

    ``sensitivity`` is how strongly the measured work follows the
    kernel: its time grows as the kernel's to that power.
    """
    return (REFERENCE_SECONDS / ((before + after) / 2)) ** sensitivity
