"""Worker threads for the engine's numpy work, each share giving the bytes it
would on one thread. The training kernels (conv, batch norm and pool,
forward and backward) give out image shares of at least _LEAST_SHARE_BYTES,
and run independent sums and products side by side; Glorot draws,
finiteness scans and PFT1 payload reads split only past _ONE_BLOCK_BYTES.
There is one worker per CPU the affinity mask allows (`taskset` limits
them) wherever `one_blas_thread` can hold numpy's BLAS at one thread, as it
can on OpenBLAS, whatever thread count the environment gives it; on a BLAS
without OpenBLAS's thread-count calls there is one."""

from __future__ import annotations

import contextvars
import ctypes
import os
import queue
import threading
from contextlib import contextmanager
from functools import cache

# Glorot draws, finiteness scans, PFT1 reads and a conv's cache-sized
# blocks: an array of at most this many bytes is worked on as one piece on
# the calling thread. The training kernels are gated by _LEAST_SHARE_BYTES
# instead, and a conv whose im2col matrix is within this is one block per
# share.
_ONE_BLOCK_BYTES = 16 << 20
# A training kernel's share walks at least this many bytes of its input, or
# the call is one share on the calling thread. On a 2-CPU Xeon host a
# hand-off to the pool and back took 37-65 us, and a batch norm or pool over
# 256 KB 110-360 us on one thread, so two shares at this floor save more
# than their hand-offs cost when two CPUs are free.
_LEAST_SHARE_BYTES = 1 << 18
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
def _pool() -> queue.SimpleQueue:
    """The queue of the threads beside the calling one, which is a worker
    too, started when first used. On a 2-CPU Xeon host two no-op jobs
    through it took 37-65 us where concurrent.futures' executor took
    117-168 us, the pool's thread having been idle for 0.2-3 ms first, as
    it is between kernels."""
    tasks = queue.SimpleQueue()
    for j in range(max(1, _CPUS - 1)):
        threading.Thread(target=_serve, args=(tasks,), name=f"purefoodnet-{j}",
                         daemon=True).start()
    return tasks


if hasattr(os, "register_at_fork"):  # a forked child has none of the threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _serve(tasks: queue.SimpleQueue) -> None:
    """Run the queued jobs, in order, for as long as the process lives. The
    pool job that pops a call's last token wakes its caller. A job's
    references go before that: kept until the next task, a job's arrays
    (a conv's input and buffers) would outlive its call."""
    _local.in_pool = True
    while True:
        task = tasks.get()
        context, job, j, results, errors, tokens, done = task
        del task
        try:
            results[j] = context.run(job)
        except BaseException as error:  # the caller raises it
            errors[j] = error
        del context, job, results, errors
        if tokens.pop() == 0:
            done.release()


def shares(total: int, least: int = 1) -> list[tuple[int, int]]:
    """(start, stop) of near-equal shares of `total`: one per worker, but
    never more than there are shares of at least `least`, and at least one."""
    n = max(1, min(_WORKERS, total // max(1, least)))
    return [(total * j // n, total * (j + 1) // n) for j in range(n)]


def run_jobs(jobs) -> list:
    """The result of each callable in `jobs`, in order. With more than one
    worker, this thread runs jobs[0] while the pool runs the rest; either
    way every job has finished before this returns or raises, and the first
    error in job order is the one raised. Pool jobs run in copies of the
    caller's context, which holds numpy's `errstate`. Jobs do untraced
    work (the span tracer is not thread-safe) in buffers the caller made (a
    pool thread's allocations stay in its malloc arena). A pool thread runs
    its own jobs in order: waiting there for the pool could deadlock. A
    single job runs on this thread, and starts no pool."""
    if len(jobs) < 2 or _WORKERS == 1 or getattr(_local, "in_pool", False):
        return [job() for job in jobs]
    tasks = _pool()
    results, errors = [None] * len(jobs), [None] * len(jobs)
    tokens = list(range(len(jobs) - 1))  # list.pop is atomic under the GIL
    done = threading.Lock()
    done.acquire()
    for j, job in enumerate(jobs[1:], 1):
        tasks.put((contextvars.copy_context(), job, j, results, errors, tokens, done))
    try:
        results[0] = jobs[0]()
    finally:
        done.acquire()
    for error in errors:
        if error is not None:
            raise error
    return results
