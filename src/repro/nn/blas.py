"""Single-threaded BLAS for small-batch inference.

Cost-model scoring runs one forward pass per beam expansion, on tens of
rows.  A batch that size is above OpenBLAS's threading threshold but
far too small to amortize handing work to a second thread: every call
waits for another core to wake up, and on a busy host that wait
dominates.  On a 2-vCPU Xeon VM, the 28 batches of one cost-guided
Table-II search took 0.20-0.23 s of prediction with the default thread
count and 0.016 s on one thread.  One thread also keeps predictions
independent of the host's core count, since a threaded GEMM splits the
work differently and can change the low bits.

:func:`single_threaded_blas` pins the calling thread to one BLAS thread
through OpenBLAS's thread-local ``openblas_set_num_threads_local``
(OpenBLAS 0.3.27 and later).  Under any other BLAS, or an older
OpenBLAS, it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager, suppress
from typing import Callable, Iterator

import numpy as np


def _openblas_paths() -> list[str]:
    """Candidate paths of the OpenBLAS library numpy loaded."""
    paths: list[str] = []
    with suppress(OSError), open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            openblas = path.startswith("/") and "openblas" in path.lower()
            if openblas and path not in paths:
                paths.append(path)
    # Wheel layouts, for platforms without /proc.
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        paths += sorted(glob.glob(os.path.join(root, pattern)))
    return paths


@functools.lru_cache(maxsize=None)
def _thread_setter() -> Callable[[int], int] | None:
    for path in _openblas_paths():
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Run the block's BLAS calls on the calling thread alone."""
    setter = _thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
