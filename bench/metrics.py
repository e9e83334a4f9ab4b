"""Names and units of every metric the benchmark reports.

Pure data: importing this module imports nothing from jmetric, so the
command (run.py) and the self-tests can read it without loading the package.
BENCHMARK.json at the repository root lists the same names; a self-test
keeps the two in step.
"""

WORKLOADS = ("ceiling-sweep", "suite-batch", "distortion-search", "scalar-queries")

# name -> (unit, better).  Printed with --trace 0.
END_TO_END = {
    "work_per_s": ("work/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

SUITES = (
    "identity-halfplane",
    "identity-disk",
    "schwarz-pick-halfplane",
    "schwarz-pick-disk",
    "step-1-2",
    "step-2-2",
    "bound-2-3",
    "g-negativity",
    "lipschitz-pair",
)
# The suites a suite-batch op runs: all but the two Schwarz-Pick suites,
# whose fixed 1e-12 absolute tolerance is below the rounding error of
# composed automorphisms, so they report FAIL on some seeds (see README.md).
# Their kernels are still timed per layer (verify.suite.<name>.us_per_sample).
BATCH_SUITES = tuple(name for name in SUITES if not name.startswith("schwarz-pick"))
CEILING_KINDS = ("disk", "halfplane", "mobius-images")
SEARCH_MAPS = ("automorphism", "extremal", "cayley", "blaschke3")
APPLY_VARIANTS = ("mobius", "blaschke1", "blaschke4", "extremal", "compose")
CLI_COMMANDS = ("dist", "map-eval", "verify", "search", "extremal", "bounds")
MODULES = ("domains", "maps", "grammar", "sampling", "parallel", "verify", "search", "cli", "errors")


def _per_layer() -> dict:
    m = {}

    def add(name, unit, better="lower"):
        m[name] = (unit, better)

    add("domains.j_distance.calls", "count")
    add("domains.j_distance.ns", "ns")
    add("domains.signed_boundary_offset.calls", "count")
    add("domains.self_s", "s")

    add("maps.apply.calls", "count")
    for variant in APPLY_VARIANTS:
        add(f"maps.apply.ns.{variant}", "ns")
    add("maps.derivative.calls", "count")
    add("maps.pole_hits", "count")
    add("maps.mobius_image_domain.us", "us")
    add("maps.certify_s", "s")
    add("maps.self_s", "s")

    add("sampling.pair.calls", "count")
    add("sampling.pair.ns", "ns")
    add("sampling.draws_per_point", "draws/point")
    add("sampling.self_s", "s")

    add("parallel.pool_starts", "count")
    add("parallel.pool_start_s", "s")
    add("parallel.tasks", "count")
    add("parallel.speedup", "ratio", "higher")
    add("parallel.efficiency", "ratio", "higher")

    add("verify.guarded_ratio.calls", "count")
    add("verify.guarded_ratio.ns", "ns")
    add("verify.trusted_ratio", "ratio", "higher")
    for suite in SUITES:
        add(f"verify.suite.{suite}.us_per_sample", "us/sample")
    for kind in CEILING_KINDS:
        add(f"verify.ceiling.{kind}.us_per_pair", "us/pair")
    add("verify.self_s", "s")

    add("search.evaluations", "count")
    add("search.ratio_objective.calls", "count")
    add("search.ratio_objective.ns", "ns")
    add("search.feasible_ratio", "ratio", "higher")
    add("search.self_s", "s")
    for name in SEARCH_MAPS:
        add(f"search.best_ratio.{name}", "ratio", "higher")
    add("search.automorphism_1w.s", "s")
    add("search.automorphism_1w.evaluations", "count")

    add("grammar.parse_map.ns", "ns")
    add("grammar.parse_domain.ns", "ns")
    add("grammar.format_map.calls", "count")
    add("grammar.format_map.ns", "ns")
    add("grammar.format_complex.calls", "count")

    for command in CLI_COMMANDS:
        add(f"cli.main.us.{command}", "us")
    add("cli.self_us", "us")

    for module in MODULES:
        add(f"{module}.src_lines", "lines")
    add("total.src_lines", "lines")
    add("trace.overhead_ratio", "ratio")
    return m


# name -> (unit, better).  Printed with --trace 1.
PER_LAYER = _per_layer()
