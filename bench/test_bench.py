"""Self-tests of the benchmark harness; they are not part of the package's
test suite.  Run them with

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from jmetric import domains, grammar, search, verify  # noqa: E402

import child  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    w = wl.WORKLOADS[name]
    first = w.make_round(7, 0)
    assert len(first) == w.round_ops
    assert first == w.make_round(7, 0)
    assert first != w.make_round(8, 0)
    assert first != w.make_round(7, 1)


def _report(**changes):
    good = verify.CheckReport("lipschitz-ceiling-disk", 40_000, 1, True, 0.25, {"z": "0.5"}, "absolute", 3)
    return dataclasses.replace(good, **changes)


def test_report_check_accepts_a_good_report():
    wl.check_report(_report(), 40_000)


@pytest.mark.parametrize(
    "changes",
    [
        {"passed": False},
        {"skipped": 40_000},
        {"worst_margin": math.inf},
        {"samples": 39_999},
    ],
    ids=["failing", "all-skipped", "infinite-margin", "short"],
)
def test_report_check_rejects_bad_reports(changes):
    with pytest.raises(wl.CheckFailed):
        wl.check_report(_report(**changes), 40_000)


def _suite_runs(op_seed, **changes):
    reports = [
        {"suite": name, "samples": wl.SuiteBatch.samples, "seed": op_seed, "passed": True,
         "worst_margin": 0.5, "worst_witness": {"z": "0.5"}}
        for name in metrics.BATCH_SUITES
    ]
    reports[3].update(changes)
    return [(0, json.dumps(report)) for report in reports]


def test_suite_check_rejects_failing_and_vacuous_suites():
    batch = wl.WORKLOADS["suite-batch"]
    batch.check(5, _suite_runs(5))
    for changes in ({"passed": False}, {"worst_margin": math.inf, "worst_witness": {}}, {"seed": 6}):
        with pytest.raises(wl.CheckFailed):
            batch.check(5, _suite_runs(5, **changes))
    runs = _suite_runs(5)
    runs[0] = (1, runs[0][1])
    with pytest.raises(wl.CheckFailed):
        batch.check(5, runs)
    with pytest.raises(wl.CheckFailed):
        batch.check(5, _suite_runs(5)[:-1])


@pytest.fixture(scope="module")
def automorphism_search():
    entry = wl.SEARCH_MAPS[0]
    return entry, search.estimate_lipschitz(entry[1], entry[2], search.SearchConfig(seed=3))


def test_search_check_accepts_the_seed_search(automorphism_search):
    wl.check_search(*automorphism_search)


@pytest.mark.parametrize("direction", [math.inf, -math.inf])
def test_search_check_rejects_a_witness_off_by_one_ulp(automorphism_search, direction):
    entry, report = automorphism_search
    nudged = dataclasses.replace(report, best_ratio=math.nextafter(report.best_ratio, direction))
    with pytest.raises(wl.CheckFailed, match="witness"):
        wl.check_search(entry, nudged)


def test_scalar_checks_accept_real_answers_and_reject_wrong_ones():
    queries = wl.WORKLOADS["scalar-queries"].make_round(11, 0)[:50]
    for q in queries:
        wl.check_query(q, wl.run_query(q))
    dist = next(q for q in queries if q["kind"] == "dist")
    value = wl.run_query(dist)[0] * (1.0 + 1e-9)
    with pytest.raises(wl.CheckFailed):
        wl.check_query(dist, (value, grammar.format_complex(value)))
    with pytest.raises(wl.CheckFailed):
        wl.check_query(dist, (value, "0.5"))


def test_tracer_records_nested_spans_and_restores_bindings():
    disk = domains.UnitDisk()
    m = grammar.parse_map("blaschke:0.0;[0.5+0i]")
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording(), tracer.op_span(0):
            search.ratio_objective(disk, disk, m, 0.1 + 0.2j, -0.3 + 0.1j)
            domains.j_distance(disk, 0.5, 0.5)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["search.ratio_objective"]["calls"] == 1
    assert spans["domains.j_distance"]["calls"] >= 3
    arrays = tracer.arrays()
    assert arrays["parent"][0] == -1 and (arrays["parent"][1:] >= 0).all()
    assert (arrays["op"] == 0).all()
    assert (tracer.self_ns() >= 0).all()
    assert not hasattr(verify.j_distance, "__wrapped__")
    assert not hasattr(search.ratio_objective, "__wrapped__")


def test_tail_leaves_exactly_ten_ops_beyond():
    assert child.tail([float(k) for k in range(100)]) == 89.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == metrics.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == metrics.PER_LAYER


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scalar-queries", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
