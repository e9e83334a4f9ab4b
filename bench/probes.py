"""Per-layer probes of the traced run: micro-timings, pool start-up,
speed-up, search quality and source size.

Micro-timings time a plain loop of direct calls on inputs drawn with the
workload generators, untraced, and report the median of several passes;
the loop itself costs about 30 ns per call and is included.  Every timing
here is scaled time (see scaling.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics

import numpy as np

from jmetric import cli, domains, grammar, maps, parallel, sampling, search, verify

import metrics
import workloads as wl
from scaling import scaled_call
from spans import Tracer

MICRO_INPUTS = 2000


def per_call_ns(fn, inputs, passes: int = 5) -> float:
    def loop():
        for args in inputs:
            fn(*args)

    return median_s(loop, passes) * 1e9 / len(inputs)


def median_s(fn, passes: int) -> float:
    return statistics.median(scaled_call(fn)[0] for _ in range(passes))


def _map(model):
    return grammar.parse_map(wl.map_text(model))


def _image_case(rng):
    """A Moebius map whose pole sits at least 0.2 outside a random source."""
    d = wl.random_domain(rng)
    while True:
        a, b, c, dd = (complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(4))
        if abs(a * dd - b * c) >= 0.3 and wl.model_offset(d, -dd / c) <= -0.2:
            return maps.Mobius(a, b, c, dd), grammar.parse_domain(wl.domain_text(d))


def micro_timings(rng) -> dict:
    disk = domains.UnitDisk()
    n = MICRO_INPUTS

    def disk_pair():
        return wl.domain_point(rng, ("unitdisk",)), wl.domain_point(rng, ("unitdisk",))

    out = {}
    out["domains.j_distance.ns"] = per_call_ns(domains.j_distance, [(disk, *disk_pair()) for _ in range(n)])
    makers = {
        "mobius": (wl.real_mobius_model, ("upperhalfplane",)),
        "blaschke1": (lambda r: wl.blaschke_model(r, 1), ("unitdisk",)),
        "blaschke4": (lambda r: wl.blaschke_model(r, 4), ("unitdisk",)),
        "extremal": (wl.extremal_model, ("upperhalfplane",)),
        "compose": (lambda r: ("compose", wl.blaschke_model(r, 2), wl.blaschke_model(r, 2)), ("unitdisk",)),
    }
    for variant, (make, d) in makers.items():
        inputs = [(_map(make(rng)), wl.domain_point(rng, d)) for _ in range(n)]
        out[f"maps.apply.ns.{variant}"] = per_call_ns(maps.apply, inputs)
    ratio_inputs = [(disk, disk, _map(wl.blaschke_model(rng, 4)), *disk_pair()) for _ in range(n)]
    out["verify.guarded_ratio.ns"] = per_call_ns(verify.guarded_ratio, ratio_inputs)
    out["search.ratio_objective.ns"] = per_call_ns(search.ratio_objective, ratio_inputs)
    u = sampling.Uniforms(sampling.substream(rng.getrandbits(31), 0))
    out["sampling.pair.ns"] = per_call_ns(
        sampling.sample_interior_pair, [(disk, u, verify.PAIR_MARGIN, verify.PAIR_SEPARATION)] * n
    )
    models = [wl.disk_self_map(rng) if k % 2 else wl.halfplane_self_map(rng) for k in range(n // 4)]
    out["grammar.parse_map.ns"] = per_call_ns(grammar.parse_map, [(wl.map_text(m),) for m in models])
    out["grammar.format_map.ns"] = per_call_ns(grammar.format_map, [(_map(m),) for m in models])
    texts = [(wl.domain_text(wl.random_domain(rng)),) for _ in range(n // 4)]
    out["grammar.parse_domain.ns"] = per_call_ns(grammar.parse_domain, texts)
    cases = [_image_case(rng) for _ in range(n // 8)]
    out["maps.mobius_image_domain.us"] = per_call_ns(maps.mobius_image_domain, cases) / 1e3
    automorphism = wl.SEARCH_MAPS[0][2]
    certify_seed = rng.getrandbits(31)
    out["maps.certify_s"] = median_s(lambda: maps.is_self_map_sampled(automorphism, disk, 1000, certify_seed), 5)
    return out


def verify_rates(rng) -> dict:
    out = {}
    samples = 2048
    for name in metrics.SUITES:
        s = rng.getrandbits(31)
        out[f"verify.suite.{name}.us_per_sample"] = (
            median_s(lambda: verify.run_suite(name, samples, s, 1), 3) * 1e6 / samples
        )
    maps_per, pairs = 2, 4000
    for kind in metrics.CEILING_KINDS:
        s = rng.getrandbits(31)
        out[f"verify.ceiling.{kind}.us_per_pair"] = (
            median_s(lambda: verify.lipschitz_ceiling(kind, maps_per, pairs, s, 1), 3) * 1e6 / (maps_per * pairs)
        )
    return out


def search_probes(rng, nproc: int, failures: list) -> dict:
    """Every search map once: the automorphism at 1 worker (timed), the
    others at nproc workers, each checked like a distortion-search op."""
    out = {}
    for k, entry in enumerate(wl.SEARCH_MAPS):
        name, src, m = entry[:3]
        threads = 1 if k == 0 else nproc
        cfg = search.SearchConfig(seed=rng.getrandbits(31))
        elapsed, report = scaled_call(lambda: search.estimate_lipschitz(src, m, cfg, threads=threads))
        try:
            wl.check_search(entry, report)
        except wl.CheckFailed as exc:
            failures.append(str(exc))
        out[f"search.best_ratio.{name}"] = report.best_ratio
        if k == 0:
            out["search.automorphism_1w.s"] = elapsed
            out["search.automorphism_1w.evaluations"] = report.evaluations
    return out


def cli_argvs(rng) -> dict:
    z, w = wl.domain_point(rng, ("unitdisk",)), wl.domain_point(rng, ("unitdisk",))
    m = wl.blaschke_model(rng, 2)
    return {
        "dist": ["dist", "--domain", "unitdisk", "--z", wl.cx_text(z), "--w", wl.cx_text(w)],
        "map-eval": ["map-eval", "--map", wl.map_text(m), "--z", wl.cx_text(z)],
        "verify": ["verify", "--suite", "g-negativity", "--samples", "256", "--seed", str(rng.getrandbits(31)),
                   "--threads", "1"],
        "search": ["search", "--domain", "unitdisk", "--map", wl.map_text(m), "--grid", "4", "--rounds", "2",
                   "--threads", "1"],
        "extremal": ["extremal", "--a", repr(rng.uniform(-3, 3)), "--b", repr(rng.uniform(-3, 3)),
                     "--t", "1.0,10.0,100.0"],
        "bounds": ["bounds", "--a", repr(rng.uniform(0.0, 0.99))],
    }


def _cli_call(argv, failures: list):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        failures.append(f"cli {argv[0]} exited {code}")


def cli_probes(rng, failures: list) -> dict:
    argvs = cli_argvs(rng)
    out = {}
    for command in metrics.CLI_COMMANDS:
        argv = argvs[command]
        out[f"cli.main.us.{command}"] = per_call_ns(_cli_call, [(argv, failures)] * 10, passes=3) / 1e3
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording():
            for _ in range(5):
                for argv in argvs.values():
                    _cli_call(argv, failures)
    finally:
        tracer.uninstall()
    main = tracer.arrays()["name"] == tracer.name_id("cli.main")
    out["cli.self_us"] = float(np.median(tracer.self_ns()[main])) / 1e3
    return out


def parallel_probes(seed: int, nproc: int) -> dict:
    out = {"parallel.pool_start_s": median_s(lambda: parallel.run_ordered(abs, [(k,) for k in range(nproc)], nproc), 5)}
    one, many = [], []
    for _ in range(3):
        for threads, times in ((1, one), (nproc, many)):
            times.append(scaled_call(lambda: verify.lipschitz_ceiling("disk", 4, 10_000, seed, threads))[0])
    out["parallel.speedup"] = statistics.median(one) / statistics.median(many)
    out["parallel.efficiency"] = out["parallel.speedup"] / nproc
    return out


def source_lines(src_dir: str) -> dict:
    out = {}
    total = 0
    for name in sorted(os.listdir(src_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src_dir, name), "rb") as handle:
            lines = handle.read().count(b"\n")
        total += lines
        module = name[:-3]
        if module in metrics.MODULES:
            out[f"{module}.src_lines"] = lines
    out["total.src_lines"] = total
    return out


def layer_probes(seed: int, nproc: int, failures: list) -> dict:
    rng = wl.stream("probes", seed, "inputs")
    out = {}
    # Pools first: forks get slower as the process grows.
    out.update(parallel_probes(rng.getrandbits(31), nproc))
    out.update(micro_timings(rng))
    out.update(verify_rates(rng))
    out.update(search_probes(rng, nproc, failures))
    out.update(cli_probes(rng, failures))
    return out
