"""Contiguous blocks of one numeric pass, run on the ISACSIM_THREADS cores.

numpy's FFTs and elementwise products release the interpreter lock, so the
blocks of a pass run in parallel on plain threads. Each call starts its own
threads and joins them before it returns: no pool outlives a call, which
keeps a process that forks between calls safe. This module does not import
numpy, so the CLI can read the thread count before the numeric stack loads.
"""

from __future__ import annotations

import os
import threading

from .errors import ParameterError

# Blocks per worker. More, smaller blocks balance the load when one core is
# busy with other work; the strided fast-time FFT also runs faster on them.
BLOCKS_PER_WORKER = 4


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


def for_blocks(fn, n: int) -> None:
    """Call fn(block) once for each of the contiguous slices covering range(n).

    With w = min(thread_count(), n) workers, range(n) is cut into up to
    BLOCKS_PER_WORKER * w slices. w - 1 new threads and the calling thread
    take slices in order until none is left; all threads are joined before
    the call returns, and the first exception a block raised is re-raised.
    With one worker the calling thread runs every slice and no thread
    starts; the blocks still bound the size of fn's temporaries.
    """
    workers = max(1, min(thread_count(), n))
    count = max(1, min(n, BLOCKS_PER_WORKER * workers))
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
