"""Deterministic chunked execution.

Work is split into fixed chunks up front; chunk k always consumes Philox
substream k, and results are folded in chunk order.  Output is therefore
byte-identical whether chunks run inline or on a process pool of any size.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import DomainError

__all__ = ["default_threads", "run_ordered"]


def default_threads() -> int:
    return os.cpu_count() or 1


def run_ordered(worker, arg_tuples, threads: int = 1) -> list:
    """Run worker(*args) for every tuple, returning results in input order.

    The worker must be a picklable top-level function when threads > 1.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads!r}")
    tasks = list(arg_tuples)
    if threads == 1 or len(tasks) <= 1:
        return [worker(*args) for args in tasks]
    workers = min(threads, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *zip(*tasks)))
