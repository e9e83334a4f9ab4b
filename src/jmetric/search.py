"""Numerical lower bounds for the metric distortion constant of a map.

The supremum of j_dst(f(z), f(w)) / j_src(z, w) over interior pairs is
estimated by a deterministic tensor grid over the four real coordinates of
(z, w) followed by coordinatewise pattern search from the best grid cells
and from local-distortion seed points.  Only lower bounds are ever claimed:
the supremum is typically attained in boundary or infinity limits, so no
finite search can certify an upper bound; the ceiling 2 comes from theory.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

from .domains import (
    Disk,
    PlanarDomain,
    UnitDisk,
    UpperHalfPlane,
    boundary_distance,
    halfplane_frame,
)
from .errors import DomainError, JmetricError, SelfMapViolation
from .grammar import _to_json, format_complex
from .maps import (
    Extremal,
    MapExpr,
    Mobius,
    apply,
    derivative,
    is_self_map_sampled,
    maps_into_sampled,
    mobius_image_domain,
)
from .parallel import run_ordered
from .verify import check_lipschitz_pair, guarded_ratio

__all__ = [
    "SearchConfig",
    "SearchReport",
    "SweepRow",
    "ratio_objective",
    "local_distortion",
    "estimate_lipschitz",
    "extremal_ratio",
    "extremal_sweep",
    "sweep_to_csv",
    "cstar_bounds",
]

THEORETICAL_CEILING = 2.0

# math.exp overflows above this.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# z-rows per grid chunk; fixed so chunk boundaries (and therefore reports)
# do not depend on the worker count.
_GRID_ROWS_PER_CHUNK = 16


@dataclass(frozen=True)
class SearchConfig:
    boundary_margin: float = 1e-6
    separation_floor: float = 1e-7
    grid_per_axis: int = 24
    refine_rounds: int = 60
    refine_seeds: int = 16
    shrink_factor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not self.boundary_margin > 0.0:
            raise DomainError("boundary_margin must be positive")
        if not self.separation_floor > 0.0:
            raise DomainError("separation_floor must be positive")
        if self.grid_per_axis < 2:
            raise DomainError("grid_per_axis must be at least 2")
        if self.refine_rounds < 0 or self.refine_seeds < 0:
            raise DomainError("refine_rounds and refine_seeds must be nonnegative")
        if not 0.0 < self.shrink_factor < 1.0:
            raise DomainError("shrink_factor must be in (0, 1)")


@dataclass(frozen=True)
class SearchReport:
    best_ratio: float
    witness_z: complex
    witness_w: complex
    evaluations: int
    config: SearchConfig
    lower_bound_claim: float
    theoretical_ceiling: float
    cstar_interval: tuple[float, float] | None

    def to_json(self) -> str:
        return _to_json(
            {
                "best_ratio": self.best_ratio,
                "witness_z": format_complex(self.witness_z),
                "witness_w": format_complex(self.witness_w),
                "evaluations": self.evaluations,
                "config": asdict(self.config),
                "lower_bound_claim": self.lower_bound_claim,
                "theoretical_ceiling": self.theoretical_ceiling,
                "cstar_interval": list(self.cstar_interval) if self.cstar_interval else None,
            }
        )


def ratio_objective(
    src: PlanarDomain, dst: PlanarDomain, m: MapExpr, z: complex, w: complex
) -> float:
    """check_lipschitz_pair with infeasibility encoded as -inf.

    Pairs whose images fall outside dst (or within rounding noise of its
    boundary) are infeasible rather than errors, so a search can probe the
    admissible region's edge freely.
    """
    value = guarded_ratio(src, dst, m, z, w)
    return -math.inf if value is None else value


def local_distortion(src: PlanarDomain, m: MapExpr, z: complex) -> float:
    """Coincident-pair limit of the distortion ratio at z:
    |f'(z)| d(z, boundary) / d(f(z), boundary)."""
    return _local_distortion(src, src, m, z)


def _local_distortion(src, dst, m, z):
    fz = apply(m, z)
    return abs(derivative(m, z)) * boundary_distance(src, z) / boundary_distance(dst, fz)


# ---------------------------------------------------------------------------
# Search region: two box coordinates per point
# ---------------------------------------------------------------------------


class _Region:
    """Admissible coordinates for one point of the pair.

    Disks use cartesian coordinates over the centered square with side
    2(r - margin) and containment rejection; half-planes use (tangent,
    height) frame coordinates over [-1/d', 1/d'] x [margin, 1/margin] with
    d' = max(margin, 1e-3) and log-spaced heights.
    """

    def __init__(self, domain: PlanarDomain, cfg: SearchConfig):
        self.domain = domain
        self.margin = cfg.boundary_margin
        n = cfg.grid_per_axis
        if isinstance(domain, (UnitDisk, Disk)):
            self.kind = "disk"
            if self.margin >= domain.radius:
                raise DomainError("boundary_margin leaves no interior to search")
            self.cx, self.cy, self.reach = domain.center.real, domain.center.imag, domain.radius - self.margin
            lo_x, hi_x = self.cx - self.reach, self.cx + self.reach
            lo_y, hi_y = self.cy - self.reach, self.cy + self.reach
            self.ax = [lo_x + i * (hi_x - lo_x) / (n - 1) for i in range(n)]
            self.ay = [lo_y + i * (hi_y - lo_y) / (n - 1) for i in range(n)]
            self._step_x = (hi_x - lo_x) / (n - 1)
        else:
            self.kind = "half"
            self.base, self.tangent, self.normal = halfplane_frame(domain)
            span = 1.0 / max(self.margin, 1e-3)
            self.tlo, self.thi = -span, span
            self.hlo, self.hhi = self.margin, 1.0 / self.margin
            self.ax = [self.tlo + i * (self.thi - self.tlo) / (n - 1) for i in range(n)]
            log_lo, log_hi = math.log(self.hlo), math.log(self.hhi)
            step = (log_hi - log_lo) / (n - 1)
            # exp(step), the height ratio of neighbouring rows, must exceed 1 and be finite.
            if not 0.0 < step < _LOG_FLOAT_MAX:
                raise DomainError(f"boundary_margin {self.margin!r} leaves no height range to search")
            self.ay = [math.exp(log_lo + i * (log_hi - log_lo) / (n - 1)) for i in range(n)]
            self._step_x = (self.thi - self.tlo) / (n - 1)
            self._growth = math.exp(step)

    def point(self, a: float, b: float) -> complex:
        if self.kind == "disk":
            return complex(a, b)
        return self.base + a * self.tangent + b * self.normal

    def grid_coords(self) -> list[tuple[float, float]]:
        coords = []
        for a in self.ax:
            for b in self.ay:
                if self.kind == "disk":
                    if math.hypot(a - self.cx, b - self.cy) > self.reach:
                        continue
                coords.append((a, b))
        return coords

    def clip(self, a: float, b: float) -> tuple[float, float]:
        if self.kind == "disk":
            dx, dy = a - self.cx, b - self.cy
            rr = math.hypot(dx, dy)
            if rr > self.reach:
                scale = self.reach / rr
                return self.cx + dx * scale, self.cy + dy * scale
            return a, b
        a = min(max(a, self.tlo), self.thi)
        b = min(max(b, self.hlo), self.hhi)
        return a, b

    def initial_steps(self, coords: tuple[float, float, float, float]) -> list[float]:
        if self.kind == "disk":
            return [self._step_x] * 4
        return [
            self._step_x,
            coords[1] * (self._growth - 1.0),
            self._step_x,
            coords[3] * (self._growth - 1.0),
        ]


def _grid_chunk(src, dst, m, separation, points, lo, hi, keep):
    """Evaluate pairs (points[i], points[j]) for i in [lo, hi); return the
    chunk's evaluation count and its `keep` best (ratio, i, j) entries."""
    found = []
    evals = 0
    for i in range(lo, hi):
        z = points[i]
        for j, w in enumerate(points):
            if abs(z - w) < separation:
                continue
            value = ratio_objective(src, dst, m, z, w)
            evals += 1
            if value != -math.inf:
                found.append((value, i, j))
    found.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
    return evals, found[:keep]


def _refine(src, dst, m, region, cfg, coords, value):
    """Coordinatewise pattern search from one seed pair.

    Steps double after a round with progress and shrink by shrink_factor
    after a stalled one, so the walk can both travel and converge within
    the round budget.
    """
    steps = region.initial_steps(coords)
    coords = list(coords)
    best = value
    evals = 0
    for _ in range(cfg.refine_rounds):
        improved = False
        for k in range(4):
            for sign in (1.0, -1.0):
                cand = list(coords)
                cand[k] += sign * steps[k]
                cand[0], cand[1] = region.clip(cand[0], cand[1])
                cand[2], cand[3] = region.clip(cand[2], cand[3])
                z = region.point(cand[0], cand[1])
                w = region.point(cand[2], cand[3])
                if abs(z - w) < cfg.separation_floor:
                    continue
                candidate = ratio_objective(src, dst, m, z, w)
                evals += 1
                if candidate > best:
                    coords, best = cand, candidate
                    improved = True
                    break
        if improved:
            steps = [s * 2.0 for s in steps]
        else:
            steps = [s * cfg.shrink_factor for s in steps]
    return best, tuple(coords), evals


def estimate_lipschitz(
    src: PlanarDomain,
    m: MapExpr,
    cfg: SearchConfig | None = None,
    threads: int = 1,
    dst: PlanarDomain | None = None,
) -> SearchReport:
    """Deterministic lower-bound search for the distortion supremum of m.

    The destination is src itself when sampling certifies m as a self-map;
    otherwise a plain Moebius map is searched against its computed image
    domain.  An explicit dst overrides both, subject to the same sampled
    certification.  Anything else raises SelfMapViolation.  best_ratio is
    always reproducible by re-evaluating ratio_objective at the reported
    witness; a best ratio past THEORETICAL_CEILING + 1e-9 raises JmetricError.
    """
    cfg = SearchConfig() if cfg is None else cfg
    if dst is not None:
        if not maps_into_sampled(m, src, dst, 1000, cfg.seed):
            raise SelfMapViolation(f"map does not send {src!r} into {dst!r}")
    elif is_self_map_sampled(m, src, 1000, cfg.seed):
        dst = src
    elif isinstance(m, Mobius):
        dst = mobius_image_domain(m, src)
    else:
        raise SelfMapViolation(f"map is not a certified self-map of {src!r}")

    region = _Region(src, cfg)
    coords = region.grid_coords()
    points = [region.point(a, b) for a, b in coords]
    keep = max(cfg.refine_seeds, 1)

    rows = len(points)
    tasks = []
    lo = 0
    while lo < rows:
        hi = min(lo + _GRID_ROWS_PER_CHUNK, rows)
        tasks.append((src, dst, m, cfg.separation_floor, points, lo, hi, keep))
        lo = hi
    evaluations = 0
    top: list[tuple[float, int, int]] = []
    for chunk_evals, chunk_top in run_ordered(_grid_chunk, tasks, threads):
        evaluations += chunk_evals
        top.extend(chunk_top)
    top.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))

    best = -math.inf
    best_coords: tuple[float, float, float, float] | None = None
    if top:
        best = top[0][0]
        best_coords = coords[top[0][1]] + coords[top[0][2]]

    seeds: list[tuple[tuple[float, float, float, float], float]] = []
    for value, i, j in top[:keep]:
        seeds.append((coords[i] + coords[j], value))

    # Local-distortion seeds: near-coincident pairs at the most expanding
    # grid points, covering suprema reached in the z -> w limit.
    distortions = []
    for idx, (a, b) in enumerate(coords):
        try:
            ld = _local_distortion(src, dst, m, region.point(a, b))
        except JmetricError:
            continue
        distortions.append((ld, idx))
    distortions.sort(key=lambda entry: (-entry[0], entry[1]))
    offset = max(10.0 * cfg.separation_floor, 1e-6)
    for _, idx in distortions[: cfg.refine_seeds]:
        a, b = coords[idx]
        for direction in (offset, -offset):
            wa, wb = region.clip(a + direction, b)
            z = region.point(a, b)
            w = region.point(wa, wb)
            if abs(z - w) < cfg.separation_floor:
                continue
            value = ratio_objective(src, dst, m, z, w)
            evaluations += 1
            seeds.append(((a, b, wa, wb), value))
            break

    for seed_coords, seed_value in seeds:
        if seed_value == -math.inf:
            continue
        value, at, extra = _refine(src, dst, m, region, cfg, seed_coords, seed_value)
        evaluations += extra
        if value > best:
            best, best_coords = value, at

    if best_coords is None:
        raise DomainError("the search region contained no feasible pair")

    witness_z = region.point(best_coords[0], best_coords[1])
    witness_w = region.point(best_coords[2], best_coords[3])
    if best > THEORETICAL_CEILING + 1e-9:  # past the proven ceiling, the ratio is rounding noise
        where = f"z = {format_complex(witness_z)}, w = {format_complex(witness_w)}"
        raise JmetricError(f"best ratio {best!r} at {where} exceeds the proven ceiling {THEORETICAL_CEILING}")
    cstar = None
    if dst == src and isinstance(src, (UnitDisk, Disk)) and (src.center, src.radius) == (0j, 1.0):
        cstar = (1.0 + abs(apply(m, 0j)), 2.0)
    return SearchReport(
        best_ratio=best,
        witness_z=witness_z,
        witness_w=witness_w,
        evaluations=evaluations,
        config=cfg,
        lower_bound_claim=best,
        theoretical_ceiling=THEORETICAL_CEILING,
        cstar_interval=cstar,
    )


# ---------------------------------------------------------------------------
# Closed-form analysis of the family a - 1/(b+z)
# ---------------------------------------------------------------------------


def extremal_ratio(t: float) -> float:
    """log(1 + t sqrt(1+t^2)) / log(1+t): the distortion ratio of
    a - 1/(b+z) along the horizontal line one unit above -b, at offset t.

    Tends to 2 as t grows; evaluated through log1p (and a factored form for
    enormous t) so both tails stay accurate.
    """
    if not t > 0.0:
        raise DomainError(f"extremal_ratio needs t > 0, got {t!r}")
    if t > 1e150:
        # 1 + t sqrt(1+t^2) = t^2 (1/t^2 + sqrt(1 + 1/t^2)); avoids t*t overflow.
        u2 = (1.0 / t) ** 2
        tail = u2 + u2 / (1.0 + math.sqrt(1.0 + u2))
        return (2.0 * math.log(t) + math.log1p(tail)) / math.log1p(t)
    return math.log1p(t * math.sqrt(1.0 + t * t)) / math.log1p(t)


@dataclass(frozen=True)
class SweepRow:
    t: float
    closed_form: float
    measured: float

    @property
    def abs_rel_gap(self) -> float:
        return abs(self.measured - self.closed_form) / self.closed_form


def extremal_sweep(ts, a: float, b: float) -> list[SweepRow]:
    """Cross-validate the measured pipeline ratio against the closed form.

    For each t the measured column evaluates the full metric pipeline on
    the pair z = i - b + t, w = i - b; closed_form is extremal_ratio(t).
    The two agree to high relative accuracy independently of a and b,
    which exercises domains, maps, and the metric in one shot.
    """
    m = Extremal(a, b)
    half = UpperHalfPlane()
    w = complex(-b, 1.0)
    rows = []
    for t in ts:
        t = float(t)
        if not t > 0.0:
            raise DomainError(f"sweep offsets must be positive, got {t!r}")
        z = complex(t - b, 1.0)
        measured = check_lipschitz_pair(half, half, m, z, w)
        rows.append(SweepRow(t, extremal_ratio(t), measured))
    return rows


def sweep_to_csv(rows) -> str:
    lines = ["t,closed_form,measured,abs_rel_gap"]
    for row in rows:
        lines.append(f"{row.t!r},{row.closed_form!r},{row.measured!r},{row.abs_rel_gap!r}")
    return "\n".join(lines) + "\n"


def cstar_bounds(a_mod: float) -> tuple[float, float]:
    """(1 + a_mod, 2): the known window for the best disk constant when
    |f(0)| = a_mod."""
    if not (0.0 <= a_mod < 1.0):
        raise DomainError(f"cstar_bounds needs a_mod in [0, 1), got {a_mod!r}")
    return (1.0 + a_mod, 2.0)
