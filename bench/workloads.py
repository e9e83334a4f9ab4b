"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every input is a pure function of (workload, seed, round): the benchmark
draws it with its own `random.Random` stream and hands jmetric only the
results, i.e. seeds, maps, points and text.  Ops call the library through
module attributes (``verify.lipschitz_ceiling``), never through names bound
at import time, so the tracer's wrappers see the benchmark's own calls.

A check returns None when an op's output is right and raises CheckFailed
with the reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

from jmetric import cli, domains, grammar, maps, search, verify

import metrics


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(condition: bool, reason: str):
    if not condition:
        raise CheckFailed(reason)


def stream(workload: str, seed: int, label) -> random.Random:
    """Independent generator for one (workload, seed, label) triple.

    String seeding hashes with SHA-512, so streams do not depend on
    PYTHONHASHSEED or on the platform.
    """
    return random.Random(f"{workload}/{seed}/{label}")


# ---------------------------------------------------------------------------
# Report checks shared by ceiling-sweep and suite-batch
# ---------------------------------------------------------------------------


def check_report_fields(passed, samples, expected_samples, skipped, worst_margin, label):
    """A report passes only if it passed, ran every requested sample, scored
    at least one of them (no vacuous pass) and has a finite worst margin."""
    _require(passed is True, f"{label}: passed is {passed!r}")
    _require(samples == expected_samples, f"{label}: samples {samples!r} != {expected_samples}")
    _require(samples - skipped > 0, f"{label}: every sample was skipped")
    _require(
        isinstance(worst_margin, float) and math.isfinite(worst_margin),
        f"{label}: worst_margin {worst_margin!r} is not finite",
    )


def check_report(report, expected_samples: int):
    check_report_fields(
        report.passed, report.samples, expected_samples, report.skipped, report.worst_margin, report.suite
    )


# ---------------------------------------------------------------------------
# ceiling-sweep
# ---------------------------------------------------------------------------


class CeilingSweep:
    """One lipschitz_ceiling call per op; kinds cycle disk, halfplane,
    mobius-images with a fresh seed per op."""

    name = "ceiling-sweep"
    pooled = True  # ops run a process pool
    unit = "pairs"
    maps_per_op = 4
    pairs_per_map = 10_000
    cycle = metrics.CEILING_KINDS
    round_ops = 23 * len(metrics.CEILING_KINDS)
    trace_ops = len(metrics.CEILING_KINDS)

    def make_round(self, seed: int, index: int) -> list:
        rng = stream(self.name, seed, index)
        return [(self.cycle[k % len(self.cycle)], rng.getrandbits(63)) for k in range(self.round_ops)]

    def run(self, op, threads: int):
        kind, op_seed = op
        report = verify.lipschitz_ceiling(kind, self.maps_per_op, self.pairs_per_map, op_seed, threads=threads)
        return report, self.maps_per_op * self.pairs_per_map

    def check(self, op, report):
        check_report(report, self.maps_per_op * self.pairs_per_map)


# ---------------------------------------------------------------------------
# suite-batch
# ---------------------------------------------------------------------------


class SuiteBatch:
    """In-process `jmetric verify --suite <name>` for each of BATCH_SUITES
    per op, stdout captured.

    8192 samples are two 4096-sample chunks, so every suite starts its own
    process pool, as a CLI user's run does today.
    """

    name = "suite-batch"
    pooled = True  # ops run a process pool
    unit = "suite samples"
    samples = 2 * 4096
    round_ops = 30
    trace_ops = 1

    def make_round(self, seed: int, index: int) -> list:
        rng = stream(self.name, seed, index)
        return [rng.getrandbits(31) for _ in range(self.round_ops)]

    def argv(self, suite: str, op_seed: int, threads: int) -> list[str]:
        return [
            "verify", "--suite", suite, "--samples", str(self.samples), "--seed", str(op_seed),
            "--threads", str(threads), "--output", "json",
        ]

    def run(self, op_seed, threads: int):
        results = []
        for suite in metrics.BATCH_SUITES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(self.argv(suite, op_seed, threads))
            results.append((code, out.getvalue()))
        return results, len(metrics.BATCH_SUITES) * self.samples

    def check(self, op_seed, results):
        _require(len(results) == len(metrics.BATCH_SUITES), f"expected {len(metrics.BATCH_SUITES)} runs")
        for name, (code, text) in zip(metrics.BATCH_SUITES, results):
            _require(code == 0, f"{name}: exit code {code}")
            try:
                rep = json.loads(text)
            except ValueError as exc:
                raise CheckFailed(f"{name}: stdout is not JSON: {exc}") from None
            _require(isinstance(rep, dict), f"{name}: expected one report")
            _require(rep.get("suite") == name, f"report for {rep.get('suite')!r} where {name!r} was due")
            _require(rep.get("seed") == op_seed, f"{name}: seed {rep.get('seed')!r} != {op_seed}")
            # The JSON carries no skip count; a suite that scored no sample
            # keeps worst_margin at +inf and its witness empty.
            skipped = 0 if rep.get("worst_witness") else rep.get("samples")
            check_report_fields(
                rep.get("passed"), rep.get("samples"), self.samples, skipped, rep.get("worst_margin"), name
            )


# ---------------------------------------------------------------------------
# distortion-search
# ---------------------------------------------------------------------------

# (name, source domain, map, self-map?, floor).  Floors are the seed code's
# best_ratio cut to four decimals, so a faster but weaker search fails.
SEARCH_MAPS = (
    ("automorphism", domains.UnitDisk(), maps.Blaschke(0.0, (0.5,)), True, 1.4997),
    ("extremal", domains.UpperHalfPlane(), maps.Extremal(1.0, 1.0), True, 1.9999),
    ("cayley", domains.UpperHalfPlane(), maps.Mobius(1.0, -1j, 1.0, 1j), False, 1.9508),
    ("blaschke3", domains.UnitDisk(), maps.Blaschke(0.0, (0.5, 0.5j, -0.5)), True, 1.0442),
)
assert tuple(entry[0] for entry in SEARCH_MAPS) == metrics.SEARCH_MAPS


def check_search(entry, report):
    """Exact witness re-evaluation, the factor-2 ceiling, and the floor."""
    name, src, m, self_map, floor = entry
    dst = src if self_map else maps.mobius_image_domain(m, src)
    again = search.ratio_objective(src, dst, m, report.witness_z, report.witness_w)
    _require(again == report.best_ratio, f"{name}: witness gives {again!r}, report says {report.best_ratio!r}")
    _require(report.best_ratio <= 2.0 + 1e-9, f"{name}: best_ratio {report.best_ratio!r} above 2")
    _require(report.best_ratio >= floor, f"{name}: best_ratio {report.best_ratio!r} below floor {floor}")


class DistortionSearch:
    """One estimate_lipschitz call per op, cycling over SEARCH_MAPS."""

    name = "distortion-search"
    pooled = True  # ops run a process pool
    unit = "evaluations"
    round_ops = 7 * len(SEARCH_MAPS)
    trace_ops = 1

    def make_round(self, seed: int, index: int) -> list:
        rng = stream(self.name, seed, index)
        return [(k % len(SEARCH_MAPS), rng.getrandbits(31)) for k in range(self.round_ops)]

    def run(self, op, threads: int):
        k, op_seed = op
        _, src, m, _, _ = SEARCH_MAPS[k]
        report = search.estimate_lipschitz(src, m, search.SearchConfig(seed=op_seed), threads=threads)
        return report, report.evaluations

    def check(self, op, report):
        check_search(SEARCH_MAPS[op[0]], report)


# ---------------------------------------------------------------------------
# scalar-queries: text in, text out, one point per call
# ---------------------------------------------------------------------------
#
# Maps are modelled as tuples so the benchmark can evaluate them without
# jmetric: ("mobius", a, b, c, d), ("blaschke", rotation, zeros),
# ("extremal", a, b), ("compose", outer, inner).  Domains likewise:
# ("unitdisk",), ("upperhalfplane",), ("disk", center, radius),
# ("halfplane", normal, offset).


def cx_text(z: complex) -> str:
    if z.imag < 0.0:
        return f"{z.real!r}-{-z.imag!r}i"
    return f"{z.real!r}+{z.imag!r}i"


def map_text(m) -> str:
    kind = m[0]
    if kind == "mobius":
        return "mobius:" + ",".join(cx_text(v) for v in m[1:])
    if kind == "blaschke":
        return f"blaschke:{m[1]!r};[{','.join(cx_text(a) for a in m[2])}]"
    if kind == "extremal":
        return f"extremal:{m[1]!r},{m[2]!r}"
    return f"compose({map_text(m[1])},{map_text(m[2])})"


def domain_text(d) -> str:
    kind = d[0]
    if kind == "disk":
        return f"disk:{d[1].real!r},{d[1].imag!r},{d[2]!r}"
    if kind == "halfplane":
        return f"halfplane:{d[1].real!r},{d[1].imag!r},{d[2]!r}"
    return kind


def model_apply(m, z: complex) -> complex:
    kind = m[0]
    if kind == "mobius":
        _, a, b, c, d = m
        return (a * z + b) / (c * z + d)
    if kind == "blaschke":
        value = complex(math.cos(m[1]), math.sin(m[1]))
        for a in m[2]:
            value *= (z - a) / (1.0 - a.conjugate() * z)
        return value
    if kind == "extremal":
        return m[1] - 1.0 / (m[2] + z)
    return model_apply(m[1], model_apply(m[2], z))


def model_derivative(m, z: complex) -> complex:
    """Closed forms; Blaschke products through the logarithmic derivative,
    a different formula from the library's product rule."""
    kind = m[0]
    if kind == "mobius":
        _, a, b, c, d = m
        return (a * d - b * c) / (c * z + d) ** 2
    if kind == "blaschke":
        log_d = sum((1.0 - abs(a) ** 2) / ((z - a) * (1.0 - a.conjugate() * z)) for a in m[2])
        return model_apply(m, z) * log_d
    if kind == "extremal":
        return 1.0 / (m[2] + z) ** 2
    return model_derivative(m[1], model_apply(m[2], z)) * model_derivative(m[2], z)


def model_offset(d, z: complex) -> float:
    kind = d[0]
    if kind == "unitdisk":
        return 1.0 - abs(z)
    if kind == "upperhalfplane":
        return z.imag
    if kind == "disk":
        return d[2] - abs(z - d[1])
    return z.real * d[1].real + z.imag * d[1].imag - d[2]


def model_j(d, z: complex, w: complex) -> float:
    return math.log1p(abs(z - w) / min(model_offset(d, z), model_offset(d, w)))


def _disk_point(rng, center=0j, radius=1.0, margin=0.05) -> complex:
    rho = (radius - margin * radius) * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return center + complex(rho * math.cos(phi), rho * math.sin(phi))


def _halfplane_point(rng, base=0j, normal=1j) -> complex:
    height = 10.0 ** rng.uniform(-1.3, 1.0)
    return base + rng.uniform(-10.0, 10.0) * (1j * normal) + height * normal


def blaschke_model(rng, zeros: int):
    return ("blaschke", rng.uniform(0.0, 2.0 * math.pi), tuple(_disk_point(rng, margin=0.1) for _ in range(zeros)))


def real_mobius_model(rng):
    """Real coefficients with determinant >= 0.1: a half-plane automorphism."""
    while True:
        a, b, c, d = (rng.uniform(-2.0, 2.0) for _ in range(4))
        if a * d - b * c >= 0.1:
            return ("mobius", complex(a), complex(b), complex(c), complex(d))


def extremal_model(rng):
    return ("extremal", rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))


def disk_self_map(rng):
    if rng.random() < 0.7:
        return blaschke_model(rng, rng.randint(1, 4))
    return ("compose", blaschke_model(rng, 2), blaschke_model(rng, 2))


def halfplane_self_map(rng):
    pick = rng.random()
    if pick < 0.35:
        return real_mobius_model(rng)
    if pick < 0.7:
        return extremal_model(rng)
    return ("compose", extremal_model(rng), real_mobius_model(rng))


def random_domain(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return ("unitdisk",)
    if pick == 1:
        return ("upperhalfplane",)
    if pick == 2:
        return ("disk", complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)), rng.uniform(0.5, 3.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return ("halfplane", complex(math.cos(phi), math.sin(phi)), rng.uniform(-2.0, 2.0))


def domain_point(rng, d) -> complex:
    kind = d[0]
    if kind == "unitdisk":
        return _disk_point(rng)
    if kind == "upperhalfplane":
        return _halfplane_point(rng)
    if kind == "disk":
        return _disk_point(rng, d[1], d[2])
    return _halfplane_point(rng, d[2] * d[1], d[1])


def self_map_query(rng):
    """(domain model, self-map model, two distinct interior points)."""
    if rng.random() < 0.5:
        d, m = ("unitdisk",), disk_self_map(rng)
    else:
        d, m = ("upperhalfplane",), halfplane_self_map(rng)
    z = domain_point(rng, d)
    w = z
    while w == z:
        w = domain_point(rng, d)
    return d, m, z, w


def make_query(rng, kind: str) -> dict:
    if kind == "dist":
        d = random_domain(rng)
        z, w = domain_point(rng, d), domain_point(rng, d)
        return {"kind": kind, "model": (d, z, w), "domain": domain_text(d), "z": cx_text(z), "w": cx_text(w)}
    if kind in ("apply", "derivative"):
        d, m, z, _ = self_map_query(rng)
        return {"kind": kind, "model": (m, z), "map": map_text(m), "z": cx_text(z)}
    if kind == "pair":
        d, m, z, w = self_map_query(rng)
        return {
            "kind": kind, "model": (d, m, z, w), "domain": domain_text(d), "map": map_text(m),
            "z": cx_text(z), "w": cx_text(w),
        }
    ts = sorted(10.0 ** rng.uniform(-2.0, 6.0) for _ in range(3))
    a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    return {"kind": kind, "model": (a, b, ts), "a": repr(a), "b": repr(b), "t": ",".join(map(repr, ts))}


def run_query(q: dict):
    """Parse the text, make one library call, format the result."""
    kind = q["kind"]
    if kind == "dist":
        d = grammar.parse_domain(q["domain"])
        value = domains.j_distance(d, grammar.parse_complex(q["z"]), grammar.parse_complex(q["w"]))
        return value, grammar.format_complex(value)
    if kind == "apply":
        value = maps.apply(grammar.parse_map(q["map"]), grammar.parse_complex(q["z"]))
        return value, grammar.format_complex(value)
    if kind == "derivative":
        value = maps.derivative(grammar.parse_map(q["map"]), grammar.parse_complex(q["z"]))
        return value, grammar.format_complex(value)
    if kind == "pair":
        d = grammar.parse_domain(q["domain"])
        m = grammar.parse_map(q["map"])
        z, w = grammar.parse_complex(q["z"]), grammar.parse_complex(q["w"])
        value = verify.check_lipschitz_pair(d, d, m, z, w)
        return value, grammar.format_complex(value)
    ts = [float(t) for t in q["t"].split(",")]
    rows = search.extremal_sweep(ts, float(q["a"]), float(q["b"]))
    return rows, search.sweep_to_csv(rows)


def _close(value: complex, expected: complex, rel: float) -> bool:
    return abs(value - expected) <= rel * max(1.0, abs(expected))


def check_query(q: dict, result):
    kind = q["kind"]
    value, text = result
    if kind == "sweep":
        a, b, ts = q["model"]
        lines = text.splitlines()
        _require(len(value) == len(ts) and len(lines) == len(ts) + 1, "sweep row count")
        for row, t, line in zip(value, ts, lines[1:]):
            _require(row.t == t, f"sweep t {row.t!r} != {t!r}")
            _require(row.abs_rel_gap <= 1e-9, f"sweep gap {row.abs_rel_gap!r} at t={t!r}")
            fields = [float(part) for part in line.split(",")]
            _require(fields == [row.t, row.closed_form, row.measured, row.abs_rel_gap], "CSV round trip")
        return
    _require(grammar.parse_complex(text) == value, f"parse(format({value!r})) != value")
    if kind == "dist":
        d, z, w = q["model"]
        expected = model_j(d, z, w)
        _require(abs(value - expected) <= 1e-12 * expected, f"j {value!r} != log1p formula {expected!r}")
    elif kind == "apply":
        m, z = q["model"]
        _require(_close(value, model_apply(m, z), 1e-9), f"apply {value!r} != {model_apply(m, z)!r}")
    elif kind == "derivative":
        m, z = q["model"]
        _require(_close(value, model_derivative(m, z), 1e-8), f"derivative {value!r} != {model_derivative(m, z)!r}")
    else:
        d, m, z, w = q["model"]
        expected = model_j(d, model_apply(m, z), model_apply(m, w)) / model_j(d, z, w)
        _require(0.0 <= value <= 2.0 + 1e-9, f"ratio {value!r} outside [0, 2]")
        _require(abs(value - expected) <= 1e-6 * expected, f"ratio {value!r} != {expected!r}")


class ScalarQueries:
    """Single-point queries; a cycle is one query of each kind."""

    name = "scalar-queries"
    pooled = False
    unit = "queries"
    cycle = ("dist", "apply", "derivative", "pair", "sweep")
    round_ops = 50 * len(cycle)
    trace_ops = 80 * round_ops

    def make_round(self, seed: int, index: int) -> list:
        rng = stream(self.name, seed, index)
        return [make_query(rng, self.cycle[k % len(self.cycle)]) for k in range(self.round_ops)]

    def run(self, q, threads: int):
        return run_query(q), 1

    def check(self, q, result):
        check_query(q, result)


WORKLOADS = {wl.name: wl for wl in (CeilingSweep(), SuiteBatch(), DistortionSearch(), ScalarQueries())}
assert tuple(WORKLOADS) == metrics.WORKLOADS
