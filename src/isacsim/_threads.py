"""The ISACSIM_THREADS workers: contiguous blocks of one numeric pass, and an
ordered pipeline of produce and consume steps.

numpy's FFTs, elementwise products and BLAS products release the interpreter
lock, so the blocks of a pass (`for_blocks`) run in parallel on plain
threads. `ordered` runs a sequence of produce steps the same way and hands
their results to one consume step in index order; the CSV writer formats
chunks of rows with it, one worker writing to the file while another
formats. Each worker of `ordered` carries its own scratch buffers, which
the calling thread allocates before any thread starts: a worker then
reuses memory of the caller's malloc arena chunk after chunk, instead of
allocating in its own arena, where glibc would keep the freed pages after
the call. Each call starts its own threads and joins them before it
returns: no pool outlives a call, which keeps a process that forks between
calls safe.

These threads are the only concurrency of a run. Before it starts a block,
`for_blocks` caps numpy's OpenBLAS pool at one thread through OpenBLAS's own
`set_num_threads` entry point, so a BLAS worker never spins on a core a block
needs, even in a process that loaded numpy with a larger pool. The cap is
applied on the first call, never at import, and a BLAS without that entry
point is left as it is (the bytes are the same, only slower). This module
does not import numpy, so the CLI can read the thread count before the
numeric stack loads.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading

from .errors import ParameterError

# Blocks per worker. More, smaller blocks balance the load when one core is
# busy with other work.
BLOCKS_PER_WORKER = 4

# OpenBLAS's pool size entry points, as numpy's wheels (scipy-openblas64,
# which prefixes and suffixes the names) and plain builds export them.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_BLAS_GETTERS = tuple(name.replace("_set_", "_get_") for name in _BLAS_SETTERS)
_blas_capped = False


def thread_count() -> int:
    """Number of workers: ISACSIM_THREADS when it is set and not empty,
    otherwise the number of CPUs this process may run on.

    Raises ParameterError unless ISACSIM_THREADS is a positive integer.
    """
    threads = os.environ.get("ISACSIM_THREADS")
    if not threads:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (threads.isascii() and threads.isdigit() and int(threads) > 0):
        raise ParameterError(f"ISACSIM_THREADS must be a positive integer, got {threads!r}")
    return int(threads)


def _blas_entry(names, argtypes, restype):
    """The first of `names` that numpy's loaded BLAS exports, as a C function
    of `argtypes` returning `restype`, or None.

    dlsym on numpy's core extension searches the libraries it links, so this
    finds OpenBLAS wherever the numpy build keeps it. Returns None when numpy
    is not loaded yet.
    """
    path = getattr(sys.modules.get("numpy._core._multiarray_umath"), "__file__", None)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = argtypes, restype
            return fn
    return None


def blas_pool_size() -> int | None:
    """Threads in numpy's OpenBLAS pool, or None when it cannot be read."""
    getter = _blas_entry(_BLAS_GETTERS, [], ctypes.c_int)
    return None if getter is None else getter()


def _cap_blas_pool() -> None:
    """Cap numpy's OpenBLAS pool at one thread, once per process: the pool is
    the process's, and so is the flag that records the cap."""
    global _blas_capped
    if _blas_capped:
        return
    setter = _blas_entry(_BLAS_SETTERS, [ctypes.c_int], None)
    if setter is not None:
        setter(1)
        _blas_capped = True


def for_blocks(fn, n: int, min_block: int = 1) -> None:
    """Call fn(block) once for each of the contiguous slices covering range(n).

    range(n) is cut into up to BLOCKS_PER_WORKER * min(thread_count(), n)
    slices of at least `min_block` indices each (one slice when n is
    smaller), and w = min(thread_count(), slices) workers run them: w - 1
    new threads and the calling thread take slices in order until none is
    left; all threads are joined before the call returns, and the first
    exception a block raised is re-raised. With one worker the calling
    thread runs every slice and no thread starts; the blocks still bound the
    size of fn's temporaries.
    """
    _cap_blas_pool()
    workers = max(1, min(thread_count(), n))
    count = max(1, min(n // min_block, BLOCKS_PER_WORKER * workers))
    workers = min(workers, count)
    edges = [n * k // count for k in range(count + 1)]
    pending = iter([slice(lo, hi) for lo, hi in zip(edges, edges[1:])])
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work():
        while not errors:
            with lock:
                block = next(pending, None)
            if block is None:
                return
            try:
                fn(block)
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def ordered(produce, consume, n: int, scratch) -> None:
    """Call consume(produce(i, s)) for each i in range(n), consuming in index
    order, with s the scratch of the worker that takes index i.

    w = min(thread_count(), n) workers, w - 1 new threads and the calling
    thread, each take the next index, produce its result, wait until every
    earlier result has been consumed, and then consume their own. So a
    result is consumed as soon as it and all results before it are ready,
    consume calls never overlap, and at most w results exist at a time.
    After the first exception that produce or consume raised, no index is
    started and no result is consumed; the exception is re-raised once all
    threads are joined. With one worker the calling thread does everything
    and no thread starts.

    The calling thread makes each worker's s = scratch() before any thread
    starts. A worker's result may live in its s, since the worker consumes
    each result before it produces the next, and the workers' buffers are
    the caller's allocations, freed to the caller's malloc arena when the
    call returns.
    """
    workers = max(1, min(thread_count(), n))
    scratches = [scratch() for _ in range(workers)]
    pending = iter(range(n))
    turn = 0  # the index whose result is consumed next
    changed = threading.Condition()
    errors: list[BaseException] = []

    def work(s):
        nonlocal turn
        while not errors:
            with changed:
                i = next(pending, None)
            if i is None:
                return
            try:
                result = produce(i, s)
                with changed:
                    while turn != i and not errors:
                        changed.wait()
                if errors:
                    return
                consume(result)
                del result  # before the next produce, so a worker holds one
                with changed:
                    turn += 1
                    changed.notify_all()
            except BaseException as exc:  # re-raised in the calling thread
                with changed:
                    errors.append(exc)
                    changed.notify_all()
                return

    threads = [threading.Thread(target=work, args=(s,)) for s in scratches[1:]]
    for thread in threads:
        thread.start()
    work(scratches[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
