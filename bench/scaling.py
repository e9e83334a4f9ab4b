"""Scaled time: wall times corrected for the host's speed drift.

The host's speed drifts by up to 1.7x within seconds, per CPU (other
tenants share the cores; no steal time shows, so CPU time drifts too).  A
fixed pure-Python reference loop, timed between measurements at most
REF_EVERY_S apart, tracks that drift: a measured wall time is scaled by
REF_NOMINAL_S / (mean of the reference times just before and just after
it), i.e. reported in seconds at the speed where the loop takes
REF_NOMINAL_S.  For workloads whose ops run a process pool, helper
processes time the loop at the same moment on the other CPUs and the
reference is the mean over all of them.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
import time
from array import array
from time import perf_counter

REF_NOMINAL_S = 2.0e-3
REF_EVERY_S = 0.1


def reference_loop(n: int = 4000) -> float:
    t0 = perf_counter()
    z = 0.3 + 0.4j
    acc = 0.0
    for k in range(n):
        w = (z * k + 1.0) / (k + 2.0 - z)
        acc += math.log1p(abs(w))
    return perf_counter() - t0


def reference() -> float:
    return min(reference_loop() for _ in range(3))


def _reference_server(conn):
    """Helper process: time the reference loop whenever asked."""
    while conn.recv():
        conn.send(reference())


class Scaler:
    """Scales op wall times by the reference times that bracket them.

    A context manager: leaving it stops and reaps the helper processes.
    They are forked before any op runs, while this process has no threads.
    """

    def __init__(self, cpus: int = 1):
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        for _ in range(cpus - 1):
            conn, far = ctx.Pipe()
            proc = ctx.Process(target=_reference_server, args=(far,), daemon=True)
            proc.start()
            self._helpers.append((proc, conn))
        self.refs = [self._reference()]
        self._at = time.monotonic()
        self._pending: list[float] = []
        self._scaled = array("d")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def _reference(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [reference()] + [conn.recv() for _, conn in self._helpers]
        return statistics.fmean(times)

    def add(self, elapsed: float):
        self._pending.append(elapsed)
        if time.monotonic() - self._at > REF_EVERY_S:
            self.flush()

    def flush(self):
        """Time the reference now and scale every op since the last one."""
        if not self._pending:
            return
        self.refs.append(self._reference())
        self._at = time.monotonic()
        factor = 2.0 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])
        self._scaled.extend(elapsed * factor for elapsed in self._pending)
        self._pending.clear()

    def take(self) -> array:
        """Scaled times of every op added so far, emptied for the next round."""
        self.flush()
        scaled, self._scaled = self._scaled, array("d")
        return scaled


def scaled_call(fn):
    """(scaled wall time, result) of one call of fn()."""
    before = reference()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    return elapsed * 2.0 * REF_NOMINAL_S / (before + reference()), result
