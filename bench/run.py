#!/usr/bin/env python3
"""jmetric benchmark: one workload per invocation, each session in a fresh
interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: five set-up sessions (setup_s is
the median) and one measuring session that runs the workload for about S
seconds; times are scaled for the host's speed drift (see scaling.py).
--trace 1 runs one traced session that yields the per-layer metrics.
Every op's output is checked.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full record (machine facts, op counts, failure reasons), which is also
written to bench/out/.  See bench/README.md.

This script imports nothing from jmetric: it runs src/jmetric of the
checkout that holds it, and exits 2 without a result if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

SETUP_SESSIONS = 5
# Whole-run budget; the contract allows 180 s.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _terminate(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def session(args: list[str], deadline: float) -> dict:
    """Run child.py to completion in its own process group; return its JSON
    with setup_s, the time from spawn to the child's ready mark."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"session {args} ran past the {RUN_LIMIT_S:.0f} s budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"session {args} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"session {args} printed nothing")
    payload = json.loads(lines[-1])
    payload["setup_s"] = payload["ready"] - spawned
    return payload


def result_line(correct: bool, attempted: int, failed: int, values: dict, table: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
        },
        allow_nan=False,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jmetric benchmark")
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "jmetric", "__init__.py")):
        print(f"error: no jmetric sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        if args.trace:
            main_session = session(common + ["--mode", "trace"], deadline)
            values = main_session["metrics"]
            table = metrics.PER_LAYER
            record = dict(main_session, kind="trace")
        else:
            sessions = [session(common + ["--mode", "setup"], deadline) for _ in range(SETUP_SESSIONS - 1)]
            main_session = session(common + ["--mode", "measure"], deadline)
            sessions.append(main_session)
            setups = [s["setup_s"] for s in sessions]
            scaled = [s["setup_s"] * s["reference_nominal_s"] / s["reference_s"] for s in sessions]
            values = dict(main_session["metrics"], setup_s=statistics.median(scaled))
            table = metrics.END_TO_END
            record = dict(main_session, kind="measure", setup_unscaled_s=setups, setup_scaled_s=scaled)
            record["ops_failed_ratio"] = main_session["failed"] / main_session["attempted"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, metrics=values)
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)
    failed = main_session["failed"]
    for name in table:
        print(f"{name:40s} {values[name]:>16.6g} {table[name][0]}", file=sys.stderr)
    if not args.trace:
        print(f"{'ops_failed_ratio':40s} {record['ops_failed_ratio']:>16.6g} ratio", file=sys.stderr)
    print(json.dumps({"record": record}, allow_nan=False))
    print(result_line(failed == 0, main_session["attempted"], failed, values, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
