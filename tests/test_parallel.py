"""The process keeps one pool: started lazily, reused, replaced, recovered and never shared with a fork."""

import contextlib
import ctypes
import multiprocessing
import os
import pickle
import platform
import resource
import signal
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

import jmetric.parallel as parallel
from jmetric.parallel import run_ordered
from jmetric.verify import lipschitz_ceiling, run_all_suites


def _square(x):
    return x * x


def _square_or_die(x):
    if x < 0:
        os._exit(1)  # the worker process dies without a result
    return x * x


@pytest.fixture
def pools(monkeypatch):
    """Count the pools the test starts, with the live pools and the Python
    threads present as each one starts; two CPUs unless re-patched."""
    parallel._shutdown()
    log = SimpleNamespace(started=0, live=set(), live_at_start=[], threads_at_start=[])

    class Counted(parallel._Pool):
        def __init__(self, *args, **kwargs):
            log.live_at_start.append(len(log.live))
            log.threads_at_start.append(threading.active_count())
            super().__init__(*args, **kwargs)
            log.started += 1
            log.live.add(self)

        def close(self, *args, **kwargs):
            log.live.discard(self)
            super().close(*args, **kwargs)

    monkeypatch.setattr(parallel, "_Pool", Counted)
    monkeypatch.setattr(parallel, "default_threads", lambda: 2)
    yield log
    with _deadline():
        parallel._shutdown()


def test_ceilings_and_suites_share_one_pool(pools):
    first = lipschitz_ceiling("disk", maps=4, pairs_per_map=500, seed=1, threads=2)
    second = lipschitz_ceiling("halfplane", maps=4, pairs_per_map=500, seed=2, threads=2)
    reports = run_all_suites(samples=4097, seed=3, threads=2)  # two chunks per suite
    assert pools.started == 1
    assert all(r.passed for r in [first, second, *reports])
    assert first.to_json() == lipschitz_ceiling("disk", maps=4, pairs_per_map=500, seed=1).to_json()


def test_changing_worker_count_replaces_the_pool(pools, monkeypatch):
    monkeypatch.setattr(parallel, "default_threads", lambda: 3)
    tasks = [(-k,) for k in range(3)]
    with warnings.catch_warnings(record=True) as caught, _deadline():
        warnings.simplefilter("always")
        results = [run_ordered(abs, tasks, workers) for workers in (2, 3, 2)]
    assert results == [[0, 1, 2]] * 3
    assert pools.started == 3
    assert pools.live_at_start == [0, 0, 0]
    assert len(pools.live) == 1
    # No other thread runs when a pool forks, which is what Python 3.12+ warns about.
    assert pools.threads_at_start == [1, 1, 1]
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


def test_broken_pool_is_replaced_on_the_next_call(pools):
    assert run_ordered(_square, [(2,), (3,)], 2) == [4, 9]
    with pytest.raises(BrokenProcessPool):
        run_ordered(_square_or_die, [(1,), (-1,)], 2)
    assert parallel._pool is None and not pools.live
    assert not multiprocessing.active_children()
    assert run_ordered(_square, [(4,), (5,), (6,)], 2) == [16, 25, 36]
    assert pools.started == 2


def _negative_fails(x):
    if x < 0:
        raise ValueError(x)
    return x


def _logged(log, index, seconds, fails):
    with open(log, "a") as f:
        f.write(f"{index}\n")
    time.sleep(seconds)
    if fails:
        raise ValueError(index)
    return index


def _churn(k):
    """(pid, the minor page faults of allocating and freeing 2 MiB of heap in 32 KiB arrays the
    second of two times): the first makes private pages the fork shares with the caller."""
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(4096) for _ in range(64)]
        del arrays
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _lock(x):
    return threading.Lock()  # a result that cannot be pickled


@contextlib.contextmanager
def _deadline(seconds=60):
    """Fail the test from the main thread if the block outlives `seconds`.
    (Not with a TimeoutError: that is an OSError, which Process.join swallows.)"""

    def expire(signum, frame):
        pytest.fail(f"the block did not finish in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pooled_call_leaves_no_thread_behind(pools):
    before = threading.active_count()
    with _deadline():
        assert run_ordered(_square, [(k,) for k in range(8)], 2) == [k * k for k in range(8)]
    assert threading.active_count() == before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_workers_keep_their_freed_heap(pools):
    # The pool forks from a child that first puts back glibc's default thresholds, which the
    # caller may have raised, so its workers keep their heap only by setting their own.  A
    # trimmed heap faults 140-180 of the arrays' 512 pages back in; a kept one a few pages at
    # most, of Python's own objects.  A worker's first task can still meet free heap that it
    # shares with the child, so only repeat tasks count.
    def kept():
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(parallel._M_MMAP_THRESHOLD, 128 << 10)
        mallopt(parallel._M_TRIM_THRESHOLD, 128 << 10)
        seen, repeats = set(), []
        for pid, faults in run_ordered(_churn, [(k,) for k in range(8)], 2):
            if pid in seen:
                repeats.append(faults)
            seen.add(pid)
        parallel._shutdown()
        print("faults of repeat tasks:", repeats)
        return repeats and max(repeats) < 16

    assert _exit_code_of_child(kept) == 0


@pytest.mark.parametrize("library", [SimpleNamespace(), OSError("no such library")])
def test_heap_set_up_returns_quietly_without_mallopt(monkeypatch, library):
    def load(name):
        if isinstance(library, OSError):
            raise library
        return library

    monkeypatch.setattr(ctypes, "CDLL", load)
    assert parallel._keep_heap() is None


def test_task_error_is_re_raised_and_the_pool_kept(pools):
    with _deadline():
        with pytest.raises(ValueError) as caught:
            run_ordered(_negative_fails, [(1,), (-1,), (2,), (-2,)], 2)
        assert caught.value.args == (-1,)  # the lowest-index failure
        assert isinstance(caught.value.__cause__, parallel._RemoteTraceback)
        assert "_negative_fails" in str(caught.value.__cause__)
        with pytest.raises((TypeError, pickle.PicklingError)):
            run_ordered(_lock, [(1,), (2,)], 2)
        assert run_ordered(_square, [(3,), (4,)], 2) == [9, 16]
    assert pools.started == 1


def test_failure_stops_the_hand_out_and_the_lowest_index_wins(pools, tmp_path):
    # Task 1 fails while task 0 still runs: tasks 2 and 3 are never handed out,
    # and task 0, failing later, is the error raised.
    log = str(tmp_path / "started")
    tasks = [(log, 0, 0.5, True), (log, 1, 0.0, True), (log, 2, 0.0, False), (log, 3, 0.0, False)]
    with _deadline():
        with pytest.raises(ValueError) as caught:
            run_ordered(_logged, tasks, 2)
    assert caught.value.args == (0,)
    with open(log) as f:
        assert sorted(f.read().split()) == ["0", "1"]


def test_shutdown_stops_workers_while_a_fork_holds_their_pipes(pools):
    # A child forked after the pool started holds copies of its pipes, so closing
    # them sends the workers no end-of-file: only the stop message stops them.
    assert run_ordered(_square, [(1,), (2,)], 2) == [1, 4]
    release, hold = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.read(release, 1)
        os._exit(0)
    try:
        with _deadline():
            parallel._shutdown()
        assert not multiprocessing.active_children()
    finally:
        os.write(hold, b"x")
        os.waitpid(pid, 0)
        os.close(release)
        os.close(hold)


def test_interrupt_kills_the_pool(pools, monkeypatch):
    real_wait = parallel.wait
    calls = []

    def interrupted_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(parallel, "wait", interrupted_once)
    with _deadline():
        with pytest.raises(KeyboardInterrupt):
            run_ordered(_square, [(k,) for k in range(4)], 2)
        assert parallel._pool is None and not pools.live
        assert not multiprocessing.active_children()
        assert run_ordered(_square, [(k,) for k in range(4)], 2) == [0, 1, 4, 9]
    assert pools.started == 2


def _exit_code_of_child(body, seconds=60.0) -> int:
    """Fork; the child exits 0 when body() is true and 1 otherwise."""
    pid = os.fork()
    if pid == 0:  # never return into pytest from the child
        code = 1
        try:
            code = 0 if body() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child did not finish")


def test_forked_child_starts_its_own_pool(pools):
    assert run_ordered(_square, [(1,), (2,)], 2) == [1, 4]
    inherited = parallel._pool[1]

    # The child must not even shut down its copy of the parent's pool: its stop
    # messages would reach the parent's workers.
    def own_pool():
        results = run_ordered(_square, [(3,), (4,)], 2)
        key, pool = parallel._pool
        parallel._shutdown()
        return results == [9, 16] and key[0] == os.getpid() and pool is not inherited and inherited in pools.live

    def exit_hook():
        parallel._shutdown()  # what atexit runs
        return parallel._pool is None and inherited in pools.live

    assert _exit_code_of_child(own_pool) == 0
    assert _exit_code_of_child(exit_hook) == 0
    assert parallel._pool[1] is inherited
    assert run_ordered(_square, [(5,), (6,)], 2) == [25, 36]
    assert pools.started == 1
