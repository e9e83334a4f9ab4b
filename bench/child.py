"""One fresh-interpreter benchmark session; run.py starts it.

    python3 bench/child.py --workload NAME --seed N --seconds S --mode MODE

The package is imported from src/ of the checkout that holds this file.

Modes:
  setup    import jmetric, make the first round of inputs, report when ready
           and a reference-loop time for scaling set-up time
  measure  setup, then closed-loop rounds of ops at nproc workers until
           --seconds have passed (at least one round)
  trace    setup, then the layer probes, and three passes over the
           workload's first ops: untraced at 1 worker, traced at 1 worker,
           and a pool-counting pass at nproc workers

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import jmetric  # noqa: E402
import numpy  # noqa: E402

import metrics  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from scaling import REF_NOMINAL_S, Scaler, reference  # noqa: E402
from spans import Tracer, counting_pools  # noqa: E402


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def tail(latencies: list) -> float:
    """Latency with exactly 10 ops of the round beyond it."""
    return sorted(latencies)[len(latencies) - 11]


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def run_op(wl, op, threads, tally, checking):
    """Time one op and check its output; returns (seconds, work units).

    A failed op completes no work.
    """
    tally.attempted += 1
    t0 = perf_counter()
    try:
        result, units = wl.run(op, threads)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = perf_counter() - t0
        tally.fail(f"raised {exc!r}")
        return elapsed, 0
    elapsed = perf_counter() - t0
    with checking():
        try:
            wl.check(op, result)
        except workloads.CheckFailed as exc:
            tally.fail(str(exc))
            return elapsed, 0
    return elapsed, units


def round_stats(latencies) -> tuple[float, float]:
    return statistics.median(latencies), tail(latencies)


def measure(wl, seed, seconds, inputs, threads, tally) -> dict:
    work, op_time, scaled_time = 0, 0.0, 0.0
    raw_rounds, scaled_rounds = [], []
    with Scaler(threads if wl.pooled else 1) as scaler:
        start = time.monotonic()
        while True:
            t_round = time.monotonic()
            lat = array("d")
            for op in inputs:
                elapsed, units = run_op(wl, op, threads, tally, contextlib.nullcontext)
                lat.append(elapsed)
                scaler.add(elapsed)
                work += units
            scaled = scaler.take()
            op_time += sum(lat)
            scaled_time += sum(scaled)
            raw_rounds.append(round_stats(lat))
            scaled_rounds.append(round_stats(scaled))
            now = time.monotonic()
            # Start another round only if it can end within the budget.
            if (now - start) + (now - t_round) > seconds:
                break
            inputs = wl.make_round(seed, len(raw_rounds))
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    def figures(time_s, rounds):
        return {
            "work_per_s": work / time_s,
            "op_p50_s": statistics.median(r[0] for r in rounds),
            "op_tail_s": statistics.median(r[1] for r in rounds),
        }

    return {
        "rounds": len(raw_rounds),
        "ops": len(raw_rounds) * wl.round_ops,
        "round_ops": wl.round_ops,
        "tail_percentile": 100.0 * (wl.round_ops - 10) / wl.round_ops,
        "work": work,
        "work_unit": wl.unit,
        "op_time_s": op_time,
        "references_s": {"nominal": REF_NOMINAL_S, "median": statistics.median(scaler.refs),
                         "min": min(scaler.refs), "max": max(scaler.refs), "count": len(scaler.refs)},
        "unscaled": figures(op_time, raw_rounds),
        "metrics": dict(figures(scaled_time, scaled_rounds), peak_rss_mib=rss / 1024.0),
    }


def first_ops(wl, seed) -> list:
    ops, index = [], 0
    while len(ops) < wl.trace_ops:
        ops.extend(wl.make_round(seed, index))
        index += 1
    return ops[: wl.trace_ops]


def trace(wl, seed, tally) -> dict:
    threads = nproc()
    probe_failures: list[str] = []
    values = probes.layer_probes(seed, threads, probe_failures)
    values.update(probes.source_lines(os.path.join(SRC, "jmetric")))
    tally.attempted += 1
    if probe_failures:
        tally.fail("probe: " + "; ".join(probe_failures))

    ops = first_ops(wl, seed)

    def run_pass(threads, tracer=None) -> float:
        """Scaled op time of one pass over ops."""
        with Scaler() as scaler:
            for k, op in enumerate(ops):
                if tracer is None:
                    scaler.add(run_op(wl, op, threads, tally, contextlib.nullcontext)[0])
                else:
                    with tracer.op_span(k):
                        elapsed = run_op(wl, op, threads, tally, tracer.paused)[0]
                    scaler.add(elapsed)
            return sum(scaler.take())

    untraced = run_pass(1)
    seen = {"samples": 0, "skipped": 0, "evaluations": 0}

    def on_report(report):
        seen["samples"] += report.samples
        seen["skipped"] += report.skipped

    def on_search(report):
        seen["evaluations"] += report.evaluations

    tracer = Tracer()
    tracer.install({
        "verify.run_suite": on_report,
        "verify.lipschitz_ceiling": on_report,
        "search.estimate_lipschitz": on_search,
    })
    try:
        with tracer.recording():
            traced = run_pass(1, tracer)
    finally:
        tracer.uninstall()
    with counting_pools() as pools:
        run_pass(threads)

    spans = tracer.summary()
    empty = {"calls": 0, "failures": 0, "draws": 0, "self_s": 0.0}

    def span(name):
        return spans.get(name, empty)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    interior = span("sampling.sample_interior")
    objective = span("search.ratio_objective")
    values.update({
        "domains.j_distance.calls": span("domains.j_distance")["calls"],
        "domains.signed_boundary_offset.calls": span("domains.signed_boundary_offset")["calls"],
        "domains.self_s": layer_self("domains"),
        "maps.apply.calls": span("maps.apply")["calls"],
        "maps.derivative.calls": span("maps.derivative")["calls"],
        "maps.pole_hits": len(tracer.pole_errors),
        "maps.self_s": layer_self("maps"),
        "sampling.pair.calls": span("sampling.sample_interior_pair")["calls"],
        "sampling.draws_per_point": ratio(interior["draws"], interior["calls"]),
        "sampling.self_s": layer_self("sampling"),
        "parallel.pool_starts": pools[0],
        "parallel.tasks": tracer.tasks,
        "verify.guarded_ratio.calls": span("verify.guarded_ratio")["calls"],
        "verify.trusted_ratio": 1.0 - seen["skipped"] / seen["samples"] if seen["samples"] else 0.0,
        "verify.self_s": layer_self("verify"),
        "search.evaluations": seen["evaluations"],
        "search.ratio_objective.calls": objective["calls"],
        "search.feasible_ratio": 1.0 - ratio(objective["failures"], objective["calls"]) if objective["calls"] else 0.0,
        "search.self_s": layer_self("search"),
        "grammar.format_map.calls": span("grammar.format_map")["calls"],
        "grammar.format_complex.calls": span("grammar.format_complex")["calls"],
        "trace.overhead_ratio": traced / untraced,
    })
    missing = set(metrics.PER_LAYER) - set(values)
    extra = set(values) - set(metrics.PER_LAYER)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics out of step: missing {sorted(missing)}, extra {sorted(extra)}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite per-layer metrics: {bad}")

    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}.npz")
    tracer.save(spans_path)
    return {
        "trace_ops": len(ops),
        "untraced_s": untraced,
        "traced_s": traced,
        "span_count": len(tracer.name),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": spans,
        "metrics": {name: values[name] for name in metrics.PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(jmetric.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"jmetric was imported from {jmetric.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_round(args.seed, 0)
    ready = time.monotonic()
    payload = {"ready": ready, "reference_s": reference(), "reference_nominal_s": REF_NOMINAL_S}
    if args.mode != "setup":
        tally = Tally()
        if args.mode == "measure":
            payload.update(measure(wl, args.seed, args.seconds, inputs, nproc(), tally))
        else:
            payload.update(trace(wl, args.seed, tally))
        payload.update(
            machine=machine(numpy.__version__),
            source_lines=probes.source_lines(os.path.join(SRC, "jmetric")),
            threads=nproc(),
            attempted=tally.attempted,
            failed=tally.failed,
            failure_reasons=tally.reasons,
        )
    print(json.dumps(payload, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
