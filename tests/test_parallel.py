"""The process keeps one pool: started lazily, reused, replaced, recovered and never shared with a fork."""

import os
import signal
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

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
    """Count the executors the test starts, with the live executors and the
    Python threads present as each one starts; two CPUs unless re-patched."""
    parallel._shutdown()
    log = SimpleNamespace(started=0, live=set(), live_at_start=[], threads_at_start=[])

    class Counted(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            log.live_at_start.append(len(log.live))
            log.threads_at_start.append(threading.active_count())
            super().__init__(*args, **kwargs)
            log.started += 1
            log.live.add(self)

        def shutdown(self, *args, **kwargs):
            log.live.discard(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Counted)
    monkeypatch.setattr(parallel, "default_threads", lambda: 2)
    yield log
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
    with warnings.catch_warnings(record=True) as caught:
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
    assert run_ordered(_square, [(4,), (5,), (6,)], 2) == [16, 25, 36]
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


# The pool's threads run while the test forks; the fork is the point of the test.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_starts_its_own_pool(pools):
    assert run_ordered(_square, [(1,), (2,)], 2) == [1, 4]
    inherited = parallel._pool[1]

    # The child must not even shut down its copy of the parent's executor: that
    # takes locks another thread of the parent may have held at the fork.
    def own_pool():
        results = run_ordered(_square, [(3,), (4,)], 2)
        key, executor = parallel._pool
        parallel._shutdown()
        return results == [9, 16] and key[0] == os.getpid() and executor is not inherited and inherited in pools.live

    def exit_hook():
        parallel._shutdown()  # what atexit runs
        return parallel._pool is None and inherited in pools.live

    assert _exit_code_of_child(own_pool) == 0
    assert _exit_code_of_child(exit_hook) == 0
    assert parallel._pool[1] is inherited
    assert run_ordered(_square, [(5,), (6,)], 2) == [25, 36]
    assert pools.started == 1
