"""In-memory span recorder that wraps jmetric's functions from outside.

While a Tracer is installed, every public function defined in a jmetric
module is replaced, under each name any jmetric module binds it to, by one
wrapper.  The wrapper records a span per call (name, start, end, parent,
op) and counts failures at that boundary: a raised exception, a None
result or a -inf result.  Private helpers and methods are charged to the
nearest wrapped caller, except chunk workers handed to `run_ordered`,
which get a span of their own when they run inline.  `Uniforms.next` gets
a counting wrapper that charges each uniform draw to the innermost open
span.  No source file is edited, and uninstall() restores every original
binding.

Spans are appended to flat typed arrays (26 bytes each) so that a few
million of them fit in memory; summary() reduces them with numpy.
"""

from __future__ import annotations

import contextlib
import functools
import math
import types
from array import array
from time import perf_counter_ns

import numpy as np

import jmetric
from jmetric import cli, domains, errors, grammar, maps, parallel, sampling, search, verify

# Layer modules, named by their last dotted component.
LAYERS = (domains, maps, sampling, parallel, verify, search, grammar, cli)
MAX_NAMES = 1024


class Tracer:
    """Spans and boundary counts of the jmetric calls made while recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        self.op = array("i")
        self.failures = [0] * MAX_NAMES
        self.draws = [0] * MAX_NAMES
        self.pole_errors: dict[int, BaseException] = {}
        self.tasks = 0
        self.active = False
        self.op_index = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._observers: dict = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            if nid >= MAX_NAMES:
                raise RuntimeError("too many span names")
            self.names.append(name)
            self._ids[name] = nid
        return nid

    # -- installation -------------------------------------------------------

    def install(self, observers: dict | None = None):
        """Wrap every layer function; observers maps a span name to a
        callback that receives each successful result of that function."""
        self._observers = observers or {}
        wrappers = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")
        run_ordered = parallel.run_ordered
        wrappers[run_ordered] = self._wrap_run_ordered(wrappers[run_ordered])
        for module in (jmetric,) + LAYERS:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._patch(sampling.Uniforms, "next", self._draw_counter(sampling.Uniforms.next))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        is_maps = name.startswith("maps.")
        observer = self._observers.get(name)
        tracer = self
        start, end, parent, names, ops = self.start, self.end, self.parent, self.name, self.op
        stack, failures = self._stack, self.failures
        neg_inf = -math.inf

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op_index)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter_ns()
                stack.pop()
                failures[nid] += 1
                if is_maps and isinstance(exc, errors.PoleEncountered):
                    tracer.pole_errors[id(exc)] = exc
                raise
            end[idx] = perf_counter_ns()
            stack.pop()
            if result is None or (result.__class__ is float and result == neg_inf):
                failures[nid] += 1
            elif observer is not None:
                observer(result)
            return result

        return wrapper

    def _wrap_run_ordered(self, traced):
        """Count tasks, and trace chunk workers that run in this process."""
        tracer = self

        @functools.wraps(traced)
        def run_ordered(worker, arg_tuples, threads=1):
            tasks = list(arg_tuples)
            if tracer.active:
                tracer.tasks += len(tasks)
                if threads <= 1 or len(tasks) <= 1:
                    layer = worker.__module__.rsplit(".", 1)[-1]
                    worker = tracer._wrap(worker, f"{layer}.{worker.__name__}")
            return traced(worker, tasks, threads)

        return run_ordered

    def _draw_counter(self, next_fn):
        tracer = self
        names, stack, draws = self.name, self._stack, self.draws

        def next(u):
            if tracer.active and stack:
                draws[names[stack[-1]]] += 1
            return next_fn(u)

        return next

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextlib.contextmanager
    def op_span(self, index: int):
        """Root span of one op; every span the op causes descends from it."""
        self.op_index = index
        idx = len(self.name)
        self.name.append(self.name_id("bench.op"))
        self.parent.append(-1)
        self.op.append(index)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()
            self.op_index = -1

    # -- reduction ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def self_ns(self) -> np.ndarray:
        """Per span: duration minus the durations of its direct children.

        Calls are synchronous, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def summary(self) -> dict:
        """Per span name: calls, failures, draws, total and self seconds."""
        a = self.arrays()
        count = len(self.names)
        calls = np.bincount(a["name"], minlength=count)
        total = np.bincount(a["name"], weights=a["end"] - a["start"], minlength=count)
        own = np.bincount(a["name"], weights=self.self_ns(), minlength=count)
        return {
            name: {
                "calls": int(calls[i]),
                "failures": self.failures[i],
                "draws": self.draws[i],
                "total_s": float(total[i]) * 1e-9,
                "self_s": float(own[i]) * 1e-9,
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def counting_pools():
    """Count process pools the package creates; yields a one-item list."""
    started = [0]
    patches = []
    for module in LAYERS:
        base = vars(module).get("ProcessPoolExecutor")
        if base is None:
            continue

        class CountedPool(base):
            def __init__(self, *args, **kwargs):
                started[0] += 1
                super().__init__(*args, **kwargs)

        patches.append((module, base))
        module.ProcessPoolExecutor = CountedPool
    try:
        yield started
    finally:
        for module, base in patches:
            module.ProcessPoolExecutor = base
