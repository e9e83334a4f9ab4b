"""Deterministic chunked execution.

Work is split into fixed chunks up front; chunk k always consumes Philox
substream k, and results are folded in chunk order.  Output is therefore
byte-identical whether chunks run inline or on a process pool of any size.

A process keeps at most one pool.  The first call that needs two or more
workers starts it, later calls with the same worker count reuse it, a call
with another count replaces it, and an atexit hook shuts it down.  Workers
are forked once, when the pool starts, so module state patched after that
is not seen by them.  A forked child never uses its parent's pool.  The
pool is process state: pooled calls from several threads at once are not
supported.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from .errors import DomainError

__all__ = ["default_threads", "run_ordered"]

# ((pid, workers), executor) of the live pool, or None.
_pool = None


def default_threads() -> int:
    return os.cpu_count() or 1


def _shutdown():
    """Shut down this process's pool.  A pool inherited by fork is only
    dropped: its locks were copied mid-use and its pipes are the parent's."""
    global _pool
    entry, _pool = _pool, None
    if entry is not None and entry[0][0] == os.getpid():
        entry[1].shutdown()


def _executor(workers: int):
    """The process's pool of `workers` processes, started on first use.

    A pool of another size is shut down before the new one forks: forking
    while its threads run is unsafe (Python 3.12+ warns about it).
    """
    global _pool
    key = (os.getpid(), workers)
    if _pool is None or _pool[0] != key:
        _shutdown()
        _pool = (key, ProcessPoolExecutor(max_workers=workers))
    return _pool[1]


atexit.register(_shutdown)


def run_ordered(worker, arg_tuples, threads: int = 1) -> list:
    """Run worker(*args) for every tuple, returning results in input order.

    The process's pool, sized min(threads, len(tasks), CPUs), runs them (a
    fork-started pool starts every worker up front); with one, they run
    inline, and otherwise the worker must be a picklable top-level function.
    A pool that loses a worker raises BrokenProcessPool and is discarded, so
    the next call starts a fresh one.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads!r}")
    tasks = list(arg_tuples)
    workers = min(threads, len(tasks), default_threads())
    if workers <= 1:
        return [worker(*args) for args in tasks]
    try:
        return list(_executor(workers).map(worker, *zip(*tasks)))
    except BrokenProcessPool:
        _shutdown()
        raise
