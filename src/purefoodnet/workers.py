"""Worker threads for the engine's large numpy work: conv products, Glorot
draws, finiteness scans and PFT1 payload reads, each split only past
_ONE_BLOCK_BYTES, each share giving the bytes it would on one thread. There
is one worker per CPU the affinity mask allows (`taskset` limits them)
wherever `one_blas_thread` can hold numpy's BLAS at one thread, as it can
on OpenBLAS, whatever thread count the environment gives it; on a BLAS
without OpenBLAS's thread-count calls there is one."""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache

# An array of at most this many bytes is worked on as one piece on the
# calling thread. Small work does split: with two CPUs given, two threads
# filled a train_inmem-size im2col matrix 1.25-1.37x as fast as one. The
# gate keeps it off the pool's hand-offs, as every training-size run was.
_ONE_BLOCK_BYTES = 16 << 20
# CPUs this process may use: its affinity mask where the platform has one.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _blas_thread_calls():
    """(get, set) of the thread count of the BLAS numpy loaded, found
    through numpy's own extension module, or None where that BLAS has no
    such calls: numpy's bundled OpenBLAS prefixes its symbols with
    `scipy_` and suffixes its 64-bit-index build with `64_`."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        blas = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(blas, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(blas, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


_BLAS_THREADS = _blas_thread_calls()
# One worker per CPU only where every product can be held on one BLAS
# thread: two callers' OpenBLAS teams compete for the same CPUs (on two CPUs,
# two workers trained 7% slower than one and took 14 MB more). A team also
# splits a product's sum unlike one thread does, so only there does a conv's
# filter gradient take its products tap by tap.
_ONE_BLAS_THREAD = _BLAS_THREADS is not None
_WORKERS = _CPUS if _ONE_BLAS_THREAD else 1
_hold_lock = threading.Lock()
_holds = 0  # holds entered and not yet left, on any thread
_callers_threads = 1  # the BLAS thread count when the outermost hold began


@contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread per call, as a `with` block or a
    decorator, and give the caller's count back when the outermost hold
    ends, whether it returns or raises. The count is the process's, so holds
    nest and overlap across threads: the first sets it, the last restores
    it. Where the count is 1 already a hold costs one `get` call; where the
    BLAS has no such calls it does nothing."""
    global _holds, _callers_threads
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    with _hold_lock:
        if not _holds:
            _callers_threads = get()
            if _callers_threads != 1:
                put(1)
        _holds += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if not _holds and _callers_threads != 1:
                put(_callers_threads)


_local = threading.local()  # `in_pool` is true on the pool's threads


@cache
def _pool():
    """The threads beside the calling one, which is a worker too, made when
    first used: importing concurrent.futures takes about 11 ms."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(1, _CPUS - 1), thread_name_prefix="purefoodnet",
                              initializer=setattr, initargs=(_local, "in_pool", True))


def shares(total: int) -> list[tuple[int, int]]:
    """(start, stop) of min(_WORKERS, total) near-equal shares of `total`."""
    n = max(1, min(_WORKERS, total))
    return [(total * j // n, total * (j + 1) // n) for j in range(n)]


def run_jobs(jobs) -> list:
    """The result of each callable in `jobs`, in order. With more than one
    worker, this thread runs jobs[0] while the pool runs the rest; either
    way every job has finished before this returns or raises, and the first
    error in job order is the one raised. Pool jobs run in copies of the
    caller's context, which holds numpy's `errstate`. Jobs do untraced
    work (the span tracer is not thread-safe) in buffers the caller made (a
    pool thread's allocations stay in its malloc arena). A pool thread runs
    its own jobs in order: waiting there for the pool could deadlock."""
    if _WORKERS == 1 or getattr(_local, "in_pool", False):
        return [job() for job in jobs]
    from concurrent.futures import wait
    futures = [_pool().submit(contextvars.copy_context().run, job) for job in jobs[1:]]
    try:
        first = jobs[0]()
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]
