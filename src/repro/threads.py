"""Dense array primitives on every allowed core.

A batch's images are independent, and numpy runs GEMMs and ufunc loops
with the GIL released, so contiguous image slices of one call can run on
several threads at once.  :func:`map_images` is the one place that does
so; the engine's fused closed-form conv layer, dense conv map,
spike-time encoding, spike decoding and time-domain max pooling call it,
and so does the weight quantiser, over C_out slices.
:func:`map_groups` splits a loop instead: the fixed-point datapath's
per-spike-time GEMMs, whose integer sums add up the same in any
grouping, run as one group per thread.  :func:`run_concurrently` runs a
few unrelated calls side by side: a bundle open hashes the file and
decodes the weights at once.

The result equals the whole-batch call bitwise whenever ``fn`` treats
images independently and rounds each one the same way whatever the
slice size: elementwise ufuncs and windowed reductions always do.  A
GEMM does when BLAS tiles each row alike in the slice and in the whole
batch, so the conv map starts every slice on a multiple of 16 GEMM rows
(``unit``).  A linear layer's GEMM has one row per image, and numpy and
BLAS take other kernels for 1-3 rows, so linear layers never come here.

A GEMM only splits when BLAS itself runs on one thread: a
multi-threaded BLAS already spreads one GEMM over the cores, and slices
calling it from several threads at once contend (under numpy's OpenBLAS
on two threads, a batch-32 VGG-16 call took a median 1.23 s that way
against 1.04 s whole, on 2 cores).

One pool serves the whole process.  It has one thread per core in the
process's affinity mask, starts on the first call that splits, and is
dropped in a forked child (its threads do not survive the fork).
Worker processes call :func:`set_threads` and :func:`set_blas_threads`
with 1, so N processes never run N threads each.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

#: Most slices each thread takes per call.  Several small slices, each
#: written into one preallocated output, keep every transient (an
#: im2col block, a ufunc temporary) a fraction of the batch's: 4-image
#: slices for VGG-16's wide layers at batch 32 on 2 cores.
SLICES_PER_THREAD = 4

#: Fewest output elements a slice holds, so that its work outweighs
#: its fixed cost: a thread handoff, and BLAS packing a conv's weights,
#: which costs as much as a few hundred GEMM rows.  Smaller calls run
#: inline.  On VGG-16 at batch 32 the 4x4 convs are halved, not cut
#: into 64-row GEMMs (24 against 35 ms), and at batch 2, 1-image
#: slices made a call 1.2-1.7x slower than inline; 2**17 keeps batch 2
#: inline and measured the same at batch 32 as giving every thread a
#: slice.
MIN_SLICE_ELEMENTS = 1 << 17

_PREFIX = "repro-images"
_lock = threading.Lock()
_threads = None     # None: one per core in the affinity mask
_executor = None    # (threads, ThreadPoolExecutor), created lazily


def thread_count() -> int:
    """Threads :func:`map_images` splits a batch across in this process:
    one per core in the affinity mask, unless :func:`set_threads` set it."""
    if _threads is not None:
        return _threads
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def set_threads(n) -> None:
    """Split across at most ``n`` threads from now on (``None``: one per
    allowed core); 1 makes every call run inline."""
    global _threads
    if n is not None and n < 1:
        raise ValueError("threads must be >= 1")
    _threads = n


@functools.lru_cache(maxsize=None)
def _openblas():
    """numpy's OpenBLAS ``(get_num_threads, set_num_threads)``; ``None``
    when no OpenBLAS is mapped into the process (another BLAS, or no
    ``/proc``)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"),
                               ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# Probe once, at import (numpy has mapped its BLAS by now): the ctypes
# handles a probe drops sit in reference cycles, which a first probe
# inside a layer would leave to the cyclic collector.
_openblas()


def blas_threads():
    """Threads numpy's OpenBLAS splits one GEMM across; ``None`` when no
    OpenBLAS is mapped into the process (another BLAS, or no
    ``/proc``)."""
    entry = _openblas()
    return None if entry is None else entry[0]()


def set_blas_threads(n: int) -> None:
    """Run numpy's OpenBLAS on ``n`` threads from now on (nothing to do
    without one)."""
    entry = _openblas()
    if entry is not None:
        entry[1](n)


def _pool(threads: int) -> ThreadPoolExecutor:
    global _executor
    with _lock:
        if _executor is None or _executor[0] != threads:
            if _executor is not None:
                _executor[1].shutdown(wait=False)
            _executor = (threads, ThreadPoolExecutor(
                threads, thread_name_prefix=_PREFIX))
        return _executor[1]


def _drop_pool() -> None:
    global _executor, _lock
    _executor, _lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _inline(threads: int, parts: int, blas: bool) -> bool:
    """Whether a call split into ``parts`` runs on the calling thread:
    one thread, fewer than two parts, a call from a pool thread, or a
    GEMM (``blas``) under a BLAS not known to run on one thread."""
    return (threads < 2 or parts < 2 or (blas and blas_threads() != 1)
            or threading.current_thread().name.startswith(_PREFIX))


def _run_all(threads: int, calls) -> list:
    """Run the zero-argument ``calls`` on the pool; their results in
    order, or the first failure (after every call has finished)."""
    pool = _pool(threads)
    futures = [pool.submit(call) for call in calls]
    wait(futures)
    return [future.result() for future in futures]


def map_images(fn, x: np.ndarray, shape, dtype, blas: bool = False,
               unit: int = 1) -> np.ndarray:
    """``fn(x)``, computed over contiguous image slices of ``x``.

    ``fn`` maps ``x[a:b]`` to the ``b - a`` images' part of the result,
    whose whole is ``shape`` (leading axis = images).  Slices run on the
    shared pool, each written into one preallocated ``dtype`` array, and
    start on a multiple of ``unit`` images.  There are as many slices
    as keep each at :data:`MIN_SLICE_ELEMENTS` or more, up to
    :data:`SLICES_PER_THREAD` per thread.  With fewer than two such
    slices, one thread, a 0-d ``x``, a call from a pool thread, or
    ``blas`` (``fn`` runs a GEMM) under a BLAS that is not known to run
    on one thread, this is just ``fn(x)``.
    """
    n = len(x) if np.ndim(x) else 0
    units = -(-n // unit)
    threads = thread_count()
    slices = min(units, threads * SLICES_PER_THREAD,
                 math.prod(shape) // MIN_SLICE_ELEMENTS)
    if _inline(threads, slices, blas):
        return fn(x)
    out = np.empty(shape, dtype)
    bounds = [min(n, unit * (units * i // slices))
              for i in range(slices + 1)]

    def run(a: int, b: int) -> None:
        out[a:b] = fn(x[a:b])

    _run_all(threads, [functools.partial(run, a, b)
                       for a, b in zip(bounds, bounds[1:])])
    return out


def map_groups(fn, count: int) -> list:
    """``fn`` over round-robin groups of ``range(count)``, one per thread.

    Returns ``[fn(range(g, count, groups)) for g in range(groups)]``,
    each call run on the shared pool, with one group per thread (at most
    ``count``).  Round-robin groups spread loop steps whose cost drifts
    along the range evenly.  The caller combines the results, so ``fn``
    must yield parts whose combination does not depend on the grouping.
    The groups run GEMMs, so under the rules that make a ``blas``
    :func:`map_images` call run inline (one thread, a call from a pool
    thread, a BLAS not known to run on one thread), and with fewer than
    two groups, this is ``[fn(range(count))]``.
    """
    threads = thread_count()
    groups = min(threads, count)
    if _inline(threads, groups, blas=True):
        return [fn(range(count))]
    return _run_all(threads, [functools.partial(fn, range(g, count, groups))
                              for g in range(groups)])


def run_concurrently(*calls) -> list:
    """The results of the zero-argument ``calls``, run side by side.

    Each call runs on the shared pool; the results come back in order,
    or the first failure once every call has finished.  With one thread
    or from a pool thread the calls run inline, one after another.
    The calls should spend their time with the GIL released (hashing
    large buffers, copying arrays), or running them at once gains
    nothing.
    """
    threads = thread_count()
    if _inline(threads, len(calls), blas=False):
        return [call() for call in calls]
    return _run_all(threads, calls)
