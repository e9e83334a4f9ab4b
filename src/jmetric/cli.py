"""Batch command-line front end.

Subcommands: dist, map-eval, verify, search, extremal, bounds.  Results go
to stdout (plain, json, or csv), diagnostics to stderr.  Exit codes: 0 ok,
1 a verification suite failed, 2 usage or parse errors, 3 math/domain
errors such as pole hits or points outside their domain.

A config file (--config) holds flat key=value lines mirroring the command's
long flags, e.g. "domain=unitdisk"; explicit flags win on conflict, and a
key the command does not take is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .errors import JmetricError, ParseError
from .grammar import _to_json, format_complex, parse_complex, parse_domain, parse_map, parse_real
from .maps import apply
from .domains import boundary_distance, j_distance
from .parallel import default_threads
from .search import SearchConfig, cstar_bounds, estimate_lipschitz, extremal_sweep, sweep_to_csv
from .verify import SUITE_NAMES, run_all_suites, run_suite


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join flag/value pairs whose value starts with '-' (e.g. --w -0.5+0i)
    into --flag=value form so argparse does not read the value as a flag."""
    merged = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_FLAGS else None
        merged.append(tok if value is None else f"{tok}={value}")
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags, styles) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(f"--{flag}", default=None)
        p.add_argument("--output", default=None, choices=styles)
        p.add_argument("--config", default=None)
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
    """Flag values with config-file fallback; flags win on conflict.

    keys names the options the command takes; a config key outside them is
    a usage error rather than a silently ignored typo.
    """

    def __init__(self, args, keys: tuple[str, ...]):
        self._args = args
        self._config = _load_config(args.config) if args.config else {}
        for key in self._config:
            if key not in keys:
                raise ParseError(f"unknown config key {key!r}", 0, expected=keys)

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

    def number(self, name, kind, default=None, minimum=None):
        """The option converted by kind (int, or parse_real for a finite
        decimal real); required when default is None."""
        raw = self.require(name) if default is None else self.get(name)
        if raw is None:
            return default
        try:
            value = kind(raw)
        except (ValueError, ParseError):
            noun = "an integer" if kind is int else "a finite decimal real"
            raise ParseError(f"--{name} must be {noun}, got {raw!r}", 0) from None
        if minimum is not None and value < minimum:
            raise ParseError(f"--{name} must be at least {minimum}, got {value!r}", 0)
        return value


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _cmd_dist(opt: _Options, style: str):
    domain_text = opt.require("domain")
    domain = parse_domain(domain_text)
    z = parse_complex(opt.require("z"))
    w = parse_complex(opt.require("w"))
    value = j_distance(domain, z, w)
    if style == "plain":
        return 0, _fmt9(value)
    return 0, _to_json(
        {
            "domain": domain_text,
            "z": format_complex(z),
            "w": format_complex(w),
            "j_distance": value,
        }
    )


def _cmd_map_eval(opt: _Options, style: str):
    map_text = opt.require("map")
    m = parse_map(map_text)
    z = parse_complex(opt.require("z"))
    domain_text = opt.get("domain")
    if domain_text is not None:
        # optional containment guard: reject evaluation points outside it
        boundary_distance(parse_domain(domain_text), z)
    value = apply(m, z)
    if style == "plain":
        return 0, format_complex(value, _fmt9)
    return 0, _to_json(
        {
            "map": map_text,
            "z": format_complex(z),
            "value": format_complex(value),
        }
    )


def _report_plain(report) -> str:
    status = "PASS" if report.passed else "FAIL"
    line = (
        f"{report.suite}: {status} samples={report.samples} seed={report.seed} "
        f"worst_margin={_fmt9(report.worst_margin)} convention={report.margin_convention}"
    )
    if report.skipped:
        line += f" skipped={report.skipped}"
    return line


def _cmd_verify(opt: _Options, style: str):
    suite = opt.require("suite")
    samples = opt.number("samples", int, 10_000, minimum=1)
    seed = opt.number("seed", int, 0, minimum=0)
    threads = opt.number("threads", int, default_threads(), minimum=1)
    if suite == "all":
        reports = run_all_suites(samples, seed, threads)
    elif suite in SUITE_NAMES:
        reports = [run_suite(suite, samples, seed, threads)]
    else:
        raise ParseError(
            f"unknown suite {suite!r}", 0, expected=SUITE_NAMES + ("all",)
        )
    code = 0 if all(r.passed for r in reports) else 1
    if style == "json":
        if len(reports) == 1:
            return code, reports[0].to_json()
        return code, "[" + ",".join(r.to_json() for r in reports) + "]"
    if style == "plain":
        return code, "\n".join(_report_plain(r) for r in reports)
    lines = ["suite,samples,seed,passed,worst_margin"]
    for r in reports:
        lines.append(f"{r.suite},{r.samples},{r.seed},{str(r.passed).lower()},{r.worst_margin!r}")
    return code, "\n".join(lines)


def _cmd_search(opt: _Options, style: str):
    src = parse_domain(opt.require("domain"))
    m = parse_map(opt.require("map"))
    dst_text = opt.get("dst-domain")
    dst = parse_domain(dst_text) if dst_text is not None else None
    cfg = SearchConfig(
        boundary_margin=opt.number("margin", parse_real, 1e-6),
        separation_floor=opt.number("separation", parse_real, 1e-7),
        grid_per_axis=opt.number("grid", int, 24),
        refine_rounds=opt.number("rounds", int, 60),
        seed=opt.number("seed", int, 0, minimum=0),
    )
    threads = opt.number("threads", int, default_threads(), minimum=1)
    report = estimate_lipschitz(src, m, cfg, threads=threads, dst=dst)
    if style == "json":
        return 0, report.to_json()
    return 0, (
        f"best_ratio={_fmt9(report.best_ratio)} witness_z={format_complex(report.witness_z, _fmt9)} "
        f"witness_w={format_complex(report.witness_w, _fmt9)} evaluations={report.evaluations} "
        f"ceiling={_fmt9(report.theoretical_ceiling)}"
    )


def _cmd_extremal(opt: _Options, style: str):
    a = opt.number("a", parse_real, 0.0)
    b = opt.number("b", parse_real, 0.0)
    raw = opt.require("t")
    try:
        ts = [parse_real(part) for part in raw.split(",") if part != ""]
    except ParseError:
        raise ParseError(f"--t must be a comma list of finite decimal reals, got {raw!r}", 0) from None
    if not ts:
        raise ParseError("--t must name at least one offset", 0)
    rows = extremal_sweep(ts, a, b)
    if style == "csv":
        return 0, sweep_to_csv(rows).removesuffix("\n")
    if style == "json":
        return 0, _to_json([{**asdict(r), "abs_rel_gap": r.abs_rel_gap} for r in rows])
    return 0, "\n".join(f"{_fmt9(r.t)} {_fmt9(r.closed_form)} {_fmt9(r.measured)}" for r in rows)


def _cmd_bounds(opt: _Options, style: str):
    lo, hi = cstar_bounds(opt.number("a", parse_real))
    if style == "json":
        return 0, _to_json({"lower": lo, "upper": hi})
    return 0, f"{_fmt9(lo)} {_fmt9(hi)}"


# One row per command: (handler, help, value flags besides --output and
# --config, output styles with the default first).  The parser, the argv
# merge, the accepted config keys and the style check all derive from these
# rows; handler(opt, style) returns (exit code, stdout text).
_COMMANDS = {
    "dist": (
        _cmd_dist, "distance ratio metric between two points",
        ("domain", "z", "w"), ("plain", "json"),
    ),
    "map-eval": (
        _cmd_map_eval, "evaluate a map at a point",
        ("map", "z", "domain"), ("plain", "json"),
    ),
    "verify": (
        _cmd_verify, "run a verification suite",
        ("suite", "samples", "seed", "threads"), ("json", "plain", "csv"),
    ),
    "search": (
        _cmd_search, "estimate the metric distortion constant of a map",
        ("domain", "dst-domain", "map", "grid", "rounds", "margin", "separation", "seed", "threads"),
        ("json", "plain"),
    ),
    "extremal": (
        _cmd_extremal, "closed-form vs measured distortion sweep",
        ("a", "b", "t"), ("csv", "json", "plain"),
    ),
    "bounds": (
        _cmd_bounds, "distortion constant window for |f(0)| = a",
        ("a",), ("plain", "json"),
    ),
}

_VALUE_FLAGS = {
    f"--{flag}" for row in _COMMANDS.values() for flag in row[2] + ("output", "config")
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler, _, flags, styles = _COMMANDS[args.command]
    try:
        opt = _Options(args, flags + ("output",))
        # --output is checked by argparse; a config-file value is checked here.
        style = opt.get("output", styles[0])
        if style not in styles:
            raise ParseError(f"--output must be one of {', '.join(styles)}, got {style!r}", 0, styles)
        code, text = handler(opt, style)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
