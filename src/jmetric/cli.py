"""Batch command-line front end.

Subcommands: dist, map-eval, verify, search, extremal, bounds.  Results go
to stdout (plain, json, or csv), diagnostics to stderr.  Exit codes: 0 ok,
1 a verification suite failed, 2 usage or parse errors, 3 math/domain
errors such as pole hits or points outside their domain.

A config file (--config) holds flat key=value lines mirroring the long
flags, e.g. "domain=unitdisk"; explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import sys

from .errors import JmetricError, ParseError
from .grammar import _to_json, format_complex, parse_complex, parse_domain, parse_map
from .maps import apply
from .domains import boundary_distance, j_distance
from .parallel import default_threads
from .search import SearchConfig, cstar_bounds, estimate_lipschitz, extremal_sweep, sweep_to_csv
from .verify import SUITE_NAMES, run_all_suites, run_suite

_VALUE_FLAGS = {
    "--domain", "--dst-domain", "--map", "--z", "--w", "--suite", "--samples",
    "--seed", "--t", "--a", "--b", "--grid", "--rounds", "--margin",
    "--separation", "--threads", "--output", "--config",
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' (e.g. --w -0.5+0i)
    into --flag=value form so argparse does not read the value as a flag."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, flags):
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, default=None)
        p.add_argument("--output", default=None, choices=("plain", "json", "csv"))
        p.add_argument("--config", default=None)
        return p

    add("dist", "distance ratio metric between two points", ["--domain", "--z", "--w"])
    add("map-eval", "evaluate a map at a point", ["--map", "--z", "--domain"])
    add("verify", "run a verification suite", ["--suite", "--samples", "--seed", "--threads"])
    add(
        "search",
        "estimate the metric distortion constant of a map",
        ["--domain", "--dst-domain", "--map", "--grid", "--rounds", "--margin",
         "--separation", "--seed", "--threads"],
    )
    add("extremal", "closed-form vs measured distortion sweep", ["--a", "--b", "--t"])
    add("bounds", "distortion constant window for |f(0)| = a", ["--a"])
    return parser


def _load_config(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}", 0) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"config line {lineno} is not key=value", 0)
        values[key.strip()] = value.strip()
    return values


class _Options:
    """Flag values with config-file fallback; flags win on conflict."""

    def __init__(self, args):
        self._args = args
        self._config = _load_config(args.config) if args.config else {}

    def get(self, name, default=None):
        value = getattr(self._args, name.replace("-", "_"))
        if value is not None:
            return value
        return self._config.get(name, default)

    def require(self, name) -> str:
        value = self.get(name)
        if value is None:
            raise ParseError(f"missing required option --{name}", 0)
        return value

    def get_int(self, name, default, minimum=None):
        raw = self.get(name)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"--{name} must be an integer, got {raw!r}", 0) from None
        if minimum is not None and value < minimum:
            raise ParseError(f"--{name} must be at least {minimum}, got {value!r}", 0)
        return value

    def get_float(self, name, default):
        raw = self.get(name)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ParseError(f"--{name} must be a number, got {raw!r}", 0) from None

    def output(self, default: str) -> str:
        value = self.get("output", default)
        if value not in ("plain", "json", "csv"):
            raise ParseError(f"--output must be plain, json, or csv, got {value!r}", 0)
        return value


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _plain_complex(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt9(z.real)
    sign = "+" if z.imag > 0.0 else "-"
    return f"{_fmt9(z.real)}{sign}{_fmt9(abs(z.imag))}i"


def _cmd_dist(opt: _Options) -> int:
    domain = parse_domain(opt.require("domain"))
    z = parse_complex(opt.require("z"))
    w = parse_complex(opt.require("w"))
    value = j_distance(domain, z, w)
    style = opt.output("plain")
    if style == "json":
        print(
            _to_json(
                {
                    "domain": opt.require("domain"),
                    "z": format_complex(z),
                    "w": format_complex(w),
                    "j_distance": value,
                }
            )
        )
    elif style == "plain":
        print(_fmt9(value))
    else:
        raise ParseError("csv output is not supported for dist", 0)
    return 0


def _cmd_map_eval(opt: _Options) -> int:
    m = parse_map(opt.require("map"))
    z = parse_complex(opt.require("z"))
    domain_text = opt.get("domain")
    if domain_text is not None:
        # optional containment guard: reject evaluation points outside it
        boundary_distance(parse_domain(domain_text), z)
    value = apply(m, z)
    style = opt.output("plain")
    if style == "json":
        print(
            _to_json(
                {
                    "map": opt.require("map"),
                    "z": format_complex(z),
                    "value": format_complex(value),
                }
            )
        )
    elif style == "plain":
        print(_plain_complex(value))
    else:
        raise ParseError("csv output is not supported for map-eval", 0)
    return 0


def _report_plain(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    line = (
        f"{report.suite}: {status} samples={report.samples} seed={report.seed} "
        f"worst_margin={_fmt9(report.worst_margin)} convention={report.margin_convention}"
    )
    if report.skipped:
        line += f" skipped={report.skipped}"
    return line


def _cmd_verify(opt: _Options) -> int:
    suite = opt.require("suite")
    samples = opt.get_int("samples", 10_000, minimum=1)
    seed = opt.get_int("seed", 0)
    threads = opt.get_int("threads", default_threads(), minimum=1)
    if suite == "all":
        reports = run_all_suites(samples, seed, threads)
    elif suite in SUITE_NAMES:
        reports = [run_suite(suite, samples, seed, threads)]
    else:
        raise ParseError(
            f"unknown suite {suite!r}", 0, expected=SUITE_NAMES + ("all",)
        )
    style = opt.output("json")
    if style == "json":
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            print("[" + ",".join(r.to_json() for r in reports) + "]")
    elif style == "plain":
        for report in reports:
            print(_report_plain(report))
    else:
        print("suite,samples,seed,passed,worst_margin")
        for r in reports:
            print(f"{r.suite},{r.samples},{r.seed},{str(r.passed).lower()},{r.worst_margin!r}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_search(opt: _Options) -> int:
    src = parse_domain(opt.require("domain"))
    m = parse_map(opt.require("map"))
    dst_text = opt.get("dst-domain")
    dst = parse_domain(dst_text) if dst_text is not None else None
    cfg = SearchConfig(
        boundary_margin=opt.get_float("margin", 1e-6),
        separation_floor=opt.get_float("separation", 1e-7),
        grid_per_axis=opt.get_int("grid", 24),
        refine_rounds=opt.get_int("rounds", 60),
        seed=opt.get_int("seed", 0),
    )
    threads = opt.get_int("threads", default_threads(), minimum=1)
    report = estimate_lipschitz(src, m, cfg, threads=threads, dst=dst)
    style = opt.output("json")
    if style == "json":
        print(report.to_json())
    elif style == "plain":
        print(
            f"best_ratio={_fmt9(report.best_ratio)} witness_z={_plain_complex(report.witness_z)} "
            f"witness_w={_plain_complex(report.witness_w)} evaluations={report.evaluations} "
            f"ceiling={_fmt9(report.theoretical_ceiling)}"
        )
    else:
        raise ParseError("csv output is not supported for search", 0)
    return 0


def _cmd_extremal(opt: _Options) -> int:
    a = opt.get_float("a", 0.0)
    b = opt.get_float("b", 0.0)
    raw = opt.require("t")
    try:
        ts = [float(part) for part in raw.split(",") if part != ""]
    except ValueError:
        raise ParseError(f"--t must be a comma list of numbers, got {raw!r}", 0) from None
    if not ts:
        raise ParseError("--t must name at least one offset", 0)
    rows = extremal_sweep(ts, a, b)
    style = opt.output("csv")
    if style == "csv":
        sys.stdout.write(sweep_to_csv(rows))
    elif style == "json":
        body = ",".join(
            _to_json(
                {
                    "t": r.t,
                    "closed_form": r.closed_form,
                    "measured": r.measured,
                    "abs_rel_gap": r.abs_rel_gap,
                }
            )
            for r in rows
        )
        print("[" + body + "]")
    else:
        for r in rows:
            print(f"{_fmt9(r.t)} {_fmt9(r.closed_form)} {_fmt9(r.measured)}")
    return 0


def _cmd_bounds(opt: _Options) -> int:
    a_mod = opt.get_float("a", None)
    if a_mod is None:
        raise ParseError("missing required option --a", 0)
    lo, hi = cstar_bounds(a_mod)
    style = opt.output("plain")
    if style == "json":
        print(_to_json({"lower": lo, "upper": hi}))
    elif style == "plain":
        print(f"{_fmt9(lo)} {_fmt9(hi)}")
    else:
        raise ParseError("csv output is not supported for bounds", 0)
    return 0


_COMMANDS = {
    "dist": _cmd_dist,
    "map-eval": _cmd_map_eval,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "extremal": _cmd_extremal,
    "bounds": _cmd_bounds,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        opt = _Options(args)
        return _COMMANDS[args.command](opt)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
