"""Worker threads for the engine's large numpy work: conv products, Glorot
draws, finiteness scans and PFT1 payload reads, each split only past
_ONE_BLOCK_BYTES, each share giving the bytes it would on one thread. There
is one worker per CPU the affinity mask allows (`taskset` limits them) when
OpenBLAS runs one thread per call (`OPENBLAS_NUM_THREADS=1`), else one."""

from __future__ import annotations

import contextvars
import os
import threading
from functools import cache

# An array of at most this many bytes is worked on as one piece on the
# calling thread. Small work does split: with two CPUs given, two threads
# filled a train_inmem-size im2col matrix 1.25-1.37x as fast as one. The
# gate keeps it off the pool's hand-offs, as every training-size run was.
_ONE_BLOCK_BYTES = 16 << 20
# CPUs this process may use: its affinity mask where the platform has one.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _one_blas_thread() -> bool:
    """Whether OpenBLAS runs each call on one thread: the first of its
    thread-count variables that holds a positive number says 1."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


# One worker per CPU only while each BLAS call stays on one thread: two
# callers' OpenBLAS teams compete for the same CPUs (on two CPUs, two workers
# trained 7% slower than one and took 14 MB more). A team also splits a
# product's sum unlike one thread does, so only on one BLAS thread does a
# conv's filter gradient take its products tap by tap.
_ONE_BLAS_THREAD = _one_blas_thread()
_WORKERS = _CPUS if _ONE_BLAS_THREAD else 1
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
