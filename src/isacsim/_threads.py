"""The ISACSIM_THREADS workers: contiguous slices of one numeric pass, and an
ordered pipeline of produce and consume steps.

numpy's FFTs, elementwise products and BLAS products release the interpreter
lock, so the slices of a pass (`for_blocks`) run in parallel on plain
threads. Where a pass is cut depends on its length alone (`slices`): the
thread count decides only which worker runs a slice, never where one starts
or ends. So a blocked BLAS product, whose bits may depend on the rows it is
given, gives the same bits on any thread count. `ordered` runs a sequence of
produce steps the same way and hands their results to one consume step in
index order; the CSV writer formats spans of values with it, one worker
writing to the file while another formats. Each worker of `ordered` carries
its own scratch buffers, which the calling thread allocates before any
thread starts: a worker then reuses memory of the caller's malloc arena span
after span, instead of allocating in its own arena, where glibc would keep
the freed pages after the call. Both run on one worker loop (`_on_workers`):
it starts w - 1 threads, runs a share of the work on the calling thread,
stops every worker at the first error, and joins every thread before it
returns. No pool outlives a call, which keeps a process that forks between
calls safe.

These threads are the only concurrency of a run. Before it starts a slice,
`for_blocks` caps numpy's OpenBLAS pool at one thread through OpenBLAS's own
`set_num_threads` entry point, so a BLAS worker never spins on a core a slice
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

# The most slices a pass is cut into, whatever the thread count; so a pass
# runs on at most this many threads.
MAX_SLICES = 16

# OpenBLAS's pool size entry points, as numpy's wheels (scipy-openblas64,
# which prefixes and suffixes the names) and plain builds export them.
_BLAS_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
_BLAS_GETTERS = tuple(name.replace("_set_", "_get_") for name in _BLAS_SETTERS)
_BLAS_CORENAMES = tuple(name.replace("_set_num_threads", "_get_corename") for name in _BLAS_SETTERS)
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


def blas_core() -> str | None:
    """The CPU kernel numpy's OpenBLAS dispatched to ("SkylakeX", "Haswell",
    ...), or None when it cannot be read. The bits of a BLAS product depend
    on it."""
    getter = _blas_entry(_BLAS_CORENAMES, [], ctypes.c_char_p)
    name = None if getter is None else getter()
    return None if name is None else name.decode("ascii", "replace")


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


def slices(n: int, min_block: int = 1) -> list[slice]:
    """The cut of range(n) into max(1, min(n // min_block, MAX_SLICES))
    contiguous slices, their lengths differing by at most one: each holds at
    least `min_block` indices unless n is smaller, and then the one slice
    holds all of them."""
    count = max(1, min(n // min_block, MAX_SLICES))
    edges = [n * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _on_workers(items, run, scratch) -> None:
    """Call run(item, s, wait) once for each item of `items`, with s the
    scratch of the worker that takes the item: the one worker loop of this
    module.

    w = max(1, min(thread_count(), len(items))) workers, w - 1 new threads
    and the calling thread, take the items in order under one condition.
    The calling thread makes each worker's s = scratch() before any thread
    starts. wait(ready) blocks under that condition until ready() holds and
    then returns True, or returns False once a worker has failed; a worker
    wakes every waiter each time it finishes an item. After the first
    exception that run raised, no worker takes another item and every
    waiter gives up; the exception is re-raised once all threads are
    joined. With one worker the calling thread runs every item and no
    thread starts.
    """
    scratches = [scratch() for _ in range(max(1, min(thread_count(), len(items))))]
    pending = iter(items)
    changed = threading.Condition(threading.Lock())
    errors: list[BaseException] = []

    def wait(ready) -> bool:
        with changed:
            changed.wait_for(lambda: errors or ready())
        return not errors

    def work(s):
        try:
            while True:
                with changed:
                    changed.notify_all()  # the item just finished may be what a waiter needs
                    item = None if errors else next(pending, None)
                if item is None:
                    return
                run(item, s, wait)
        except BaseException as exc:  # re-raised in the calling thread
            with changed:
                errors.append(exc)
                changed.notify_all()

    threads = [threading.Thread(target=work, args=(s,)) for s in scratches[1:]]
    for thread in threads:
        thread.start()
    work(scratches[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def for_blocks(fn, n: int, min_block: int = 1) -> None:
    """Call fn(block) once for each slice of `slices(n, min_block)`.

    w = min(thread_count(), slices) workers run them: w - 1 new threads and
    the calling thread take slices in order until none is left, no slice
    starts after one has raised, and the first exception a block raised is
    re-raised once all are joined. With one worker the calling thread runs
    every slice and no thread starts; the slices still bound the size of
    fn's temporaries.
    """
    _cap_blas_pool()
    _on_workers(slices(n, min_block), lambda block, s, wait: fn(block), lambda: None)


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
    turn = 0  # the index whose result is consumed next

    def step(i, s, wait):
        nonlocal turn
        result = produce(i, s)
        if wait(lambda: turn == i):
            consume(result)
            turn = i + 1  # only index i's worker writes it; waiters read it under the condition

    _on_workers(range(n), step, scratch)
