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

Each worker has a pipe of its own.  The calling thread hands every idle
worker the next chunk and waits on the pipes for replies, so the pool runs
no thread: nothing but the caller is running when a later pool forks.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import signal
import traceback
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

from .errors import check_integer

__all__ = ["default_threads", "run_ordered"]

# The README promises forked workers; Python 3.14 changes the default method.
_FORK = multiprocessing.get_context("fork")

# ((pid, workers), _Pool) of the live pool, or None.
_pool = None


def default_threads() -> int:
    return os.cpu_count() or 1


class _RemoteTraceback(Exception):
    """A worker's traceback text, attached as the cause of a task's error."""

    def __str__(self):
        return self.args[0]


def _serve(conn, parent_ends):
    """Worker loop: reply to each (worker, args) message until None arrives.

    A reply is (True, result) or (False, (exception, traceback text)); a
    result or exception that cannot be pickled is replied as that error.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller handles interrupts
    for end in parent_ends:  # copied by the fork; closed so that the caller's exit reads as end-of-file
        end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the caller is gone
            return
        if message is None:
            return
        worker, args = message
        try:
            reply = (True, worker(*args))
        except Exception as exc:
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as exc:  # send pickles the whole reply before writing any of it
            conn.send((False, (exc, traceback.format_exc())))


class _Pool:
    """`workers` forked processes, each reached through its own pipe."""

    def __init__(self, workers: int):
        self.conns, self.procs = [], []
        for _ in range(workers):
            parent_end, child_end = _FORK.Pipe()
            proc = _FORK.Process(target=_serve, args=(child_end, [*self.conns, parent_end]), daemon=True)
            proc.start()
            child_end.close()
            self.conns.append(parent_end)
            self.procs.append(proc)

    def run(self, worker, tasks: list):
        """Run worker(*args) for every task; returns the results in task
        order and {index: (exception, traceback text)} of the tasks that
        raised.  After a failure no task is handed out, but those already
        out finish, so every task before the lowest failing index has run.
        A worker that exits without replying raises BrokenProcessPool."""
        results, failures, out = [None] * len(tasks), {}, {}
        idle, sent = list(self.conns), 0
        while True:
            while idle and sent < len(tasks) and not failures:
                conn = idle.pop()
                try:
                    conn.send((worker, tasks[sent]))
                except OSError as exc:
                    raise BrokenProcessPool("a pool worker exited") from exc
                out[conn] = sent
                sent += 1
            if not out:
                return results, failures
            for conn in wait(list(out)):
                index = out.pop(conn)
                try:
                    ok, value = conn.recv()
                except (EOFError, OSError) as exc:
                    raise BrokenProcessPool("a pool worker exited without replying") from exc
                if ok:
                    results[index] = value
                else:
                    failures[index] = value
                idle.append(conn)

    def close(self, kill: bool = False):
        """Stop every worker, by message or (kill) by SIGKILL, and join it.
        The message does not depend on end-of-file, which a process forked
        from the caller while the pool is up would hold back."""
        for conn, proc in zip(self.conns, self.procs):
            if kill:
                proc.kill()
            else:
                with contextlib.suppress(OSError):  # the worker is gone already
                    conn.send(None)
        for conn, proc in zip(self.conns, self.procs):
            proc.join()
            conn.close()


def _shutdown(kill: bool = False):
    """Shut down this process's pool.  A pool inherited by fork is only
    dropped: its workers and pipes are the parent's."""
    global _pool
    entry, _pool = _pool, None
    if entry is not None and entry[0][0] == os.getpid():
        entry[1].close(kill)


def _pool_of(workers: int) -> _Pool:
    """The process's pool of `workers` processes, started on first use.
    A pool of another size is shut down before the new one forks, so that
    the new workers copy none of its pipes."""
    global _pool
    key = (os.getpid(), workers)
    if _pool is None or _pool[0] != key:
        _shutdown()
        _pool = (key, _Pool(workers))
    return _pool[1]


atexit.register(_shutdown)


def run_ordered(worker, arg_tuples, threads: int = 1) -> list:
    """Run worker(*args) for every tuple, returning results in input order.

    The process's pool, sized min(threads, len(tasks), CPUs), runs them,
    each idle worker taking the next task in input order; with one worker
    they run inline, and otherwise the worker must be a picklable top-level
    function.  A task that raises stops the hand-out; once the tasks already
    out finish, the lowest-index error is re-raised with its type, the
    worker's traceback text as its __cause__, and the pool kept.  A worker
    that exits without replying raises BrokenProcessPool; then, and on any
    other exception (an interrupt, an argument that cannot be pickled), the
    workers are killed and the pool dropped, so the next call starts afresh.
    """
    check_integer("threads", threads, 1)
    tasks = list(arg_tuples)
    workers = min(threads, len(tasks), default_threads())
    if workers <= 1:
        return [worker(*args) for args in tasks]
    try:
        results, failures = _pool_of(workers).run(worker, tasks)
    except BaseException:
        _shutdown(kill=True)
        raise
    if failures:
        exc, text = failures[min(failures)]
        raise exc from _RemoteTraceback(text)
    return results
