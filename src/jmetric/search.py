"""Numerical lower bounds for the metric distortion constant of a map.

The supremum of j_dst(f(z), f(w)) / j_src(z, w) over interior pairs is
estimated by a deterministic tensor grid over the four real coordinates of
(z, w) followed by coordinatewise pattern search from the best grid cells
and from local-distortion seed points, all scored through verify's two
stages.  The grid maps and guards each point once (the per-point stage),
ranks the local-distortion seeds from those values and the derivatives, and
scores each pair once for both orders from gathers of them (the pair stage),
in chunks of rows whose pairs (i, j > i) np.repeat and np.arange list row by
row (dropped only where an image is unusable), rescoring with math.log1p only
the pairs that can reach a chunk's top list, which holds each pair once (on a
pool only from 2**20 pairs per worker); the seeds (their z from the grid's
per-point stage) and the walks score through verify._scored_pairs, the walks
with complete polling: all 8 moves of every walk in one pass per round.
Every stage admits, as the suites and ceilings do, all pairs of distinct
points with usable images and takes an image gap from a divided difference
where the two images agree to rounding (verify._GAP_TRUST), so a
near-coincident pair scores its ratio, not rounding noise.  Only lower bounds are ever claimed: the supremum is
typically attained in boundary or infinity limits, so no finite search can
certify an upper bound; the ceiling 2 comes from theory.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .domains import (
    CArr,
    Disk,
    PlanarDomain,
    UnitDisk,
    UpperHalfPlane,
    boundary_distance,
    halfplane_frame,
)
from .errors import DomainError, JmetricError, SelfMapViolation, check_integer
from .grammar import _to_json, format_complex
from .maps import (
    Extremal,
    MapExpr,
    Mobius,
    _divided,
    _on_arrays,
    apply,
    derivative,
    is_self_map_sampled,
    maps_into_sampled,
    mobius_image_domain,
)
from .parallel import run_ordered
from .verify import _exact_ratios, _point_stage, _ranked_ratios, _scored_pairs, check_lipschitz_pair, guarded_ratio

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

# Points per grid axis: 256 already makes ~2**32 pairs, and a chunk's index arrays
# grow with the square of it.
_GRID_MAX = 256

# Walk rounds: each is one pass over 8 moves per walk whether or not a walk moves,
# 0.21-0.34 ms for a default search's 32 walks (2-CPU Xeon), so 10**4 rounds take 2-4 s.
_ROUNDS_MAX = 10_000

# A grid chunk: the consecutive rows i whose pairs (i, j > i) first reach _GRID_CHUNK_ROWS times
# the row count, which alone sets the chunks, so reports do not depend on the worker count.
_GRID_CHUNK_ROWS = 16

# Grid pairs (points squared) per pool worker; smaller grids are scored inline.  2-CPU Xeon,
# extremal map, median of 9 on a started pool: 331,776 pairs take 0.028-0.030 s inline and
# 0.016-0.017 s on two workers, 1,048,576 pairs 0.06-0.10 s and 0.05 s; but 2**17, which pools
# the default half-plane grid, slowed the benchmark's distortion-search in 3 of 4 paired runs.
_PAIRS_PER_WORKER = 1 << 20

# Walks start from the _SEED_COUNT best grid pairs and as many local-distortion seeds,
# each with its w _SEED_OFFSET from its z; steps double after a move, else shrink by _SHRINK.
_SEED_COUNT, _SEED_OFFSET, _SHRINK = 16, 1e-6, 0.5


@dataclass(frozen=True)
class SearchConfig:
    boundary_margin: float = 1e-6
    grid_per_axis: int = 24
    refine_rounds: int = 60
    seed: int = 0

    def __post_init__(self):
        margin = self.boundary_margin
        if isinstance(margin, bool) or not isinstance(margin, numbers.Real) or not 0.0 < margin < math.inf:
            raise DomainError(f"boundary_margin must be positive and finite (a real, not a bool), got {margin!r}")
        object.__setattr__(self, "boundary_margin", float(margin))
        check_integer("grid_per_axis", self.grid_per_axis, 2, _GRID_MAX)
        check_integer("refine_rounds", self.refine_rounds, 0, _ROUNDS_MAX)
        check_integer("seed", self.seed, 0)


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
        fields = asdict(self)  # in field order, the config as a dict
        fields.update(witness_z=format_complex(self.witness_z), witness_w=format_complex(self.witness_w))
        return _to_json(fields)


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
    """Coincident-pair limit of the distortion ratio at z for a self-map m of src:
    |f'(z)| d(z, boundary) / d(f(z), boundary), with f(z) in src.  DomainError where
    |f'(z)| or a boundary distance is past the float range, +inf where the limit is."""
    fz = apply(m, z)
    try:
        slope = abs(derivative(m, z))
    except OverflowError as exc:  # abs() of a finite derivative past ~1.3e308 per coordinate
        raise DomainError(f"local_distortion: |f'(z)| is past the float range at {z!r}") from exc
    dz, dfz = boundary_distance(src, z), boundary_distance(src, fz)
    if not max(dz, dfz) < math.inf:
        raise DomainError(f"local_distortion: a boundary distance is past the float range at {z!r}")
    scaled = slope * dz
    return scaled / dfz if scaled < math.inf else slope * (dz / dfz)  # divide first only past the float range


# ---------------------------------------------------------------------------
# Search region: two box coordinates per point
# ---------------------------------------------------------------------------


class _Region:
    """Admissible coordinates for one point of the pair, as float arrays.

    Disks use cartesian coordinates over the centered square with side
    2(r - margin) and containment rejection; half-planes use (tangent,
    height) frame coordinates over [-1/d', 1/d'] x [margin, 1/margin] with
    d' = max(margin, 1e-3) and log-spaced heights.  Points are built through
    CArr and the disk's radii by math.hypot, so each element gets the bits
    the same formula gives on floats (np.hypot can differ in the last bit).
    """

    def __init__(self, domain: PlanarDomain, cfg: SearchConfig):
        self.margin = cfg.boundary_margin
        n = cfg.grid_per_axis
        if isinstance(domain, (UnitDisk, Disk)):
            self.kind = "disk"
            if self.margin >= domain.radius:
                raise DomainError("boundary_margin leaves no interior to search")
            if n < 3:  # the corners of the square around the disk, all outside it
                raise DomainError(f"grid_per_axis {n} keeps no disk point; 3 is the smallest grid that keeps one")
            self.cx, self.cy, self.reach = domain.center.real, domain.center.imag, domain.radius - self.margin
            lo_x, hi_x = self.cx - self.reach, self.cx + self.reach
            lo_y, hi_y = self.cy - self.reach, self.cy + self.reach
            self.ax = np.array([lo_x + i * (hi_x - lo_x) / (n - 1) for i in range(n)])
            self.ay = np.array([lo_y + i * (hi_y - lo_y) / (n - 1) for i in range(n)])
            self._step_x = (hi_x - lo_x) / (n - 1)
        else:
            self.kind = "half"
            self.base, self.tangent, self.normal = halfplane_frame(domain)
            span = 1.0 / max(self.margin, 1e-3)
            self.tlo, self.thi = -span, span
            self.hlo, self.hhi = self.margin, 1.0 / self.margin
            self.ax = np.array([self.tlo + i * (self.thi - self.tlo) / (n - 1) for i in range(n)])
            log_lo, log_hi = math.log(self.hlo), math.log(self.hhi)
            step = (log_hi - log_lo) / (n - 1)
            # exp(step), the height ratio of neighbouring rows, must exceed 1 and be finite.
            if not 0.0 < step < _LOG_FLOAT_MAX:
                raise DomainError(f"boundary_margin {self.margin!r} leaves no height range to search")
            self.ay = np.array([math.exp(log_lo + i * (log_hi - log_lo) / (n - 1)) for i in range(n)])
            self._step_x = (self.thi - self.tlo) / (n - 1)
            self._growth = math.exp(step)

    def point(self, a, b) -> CArr:
        if self.kind == "disk":
            return CArr(a, b)
        # A float operand of complex arithmetic is promoted to (x, 0.0).
        return self.base + CArr(a, np.zeros_like(a)) * self.tangent + CArr(b, np.zeros_like(b)) * self.normal

    def grid(self):
        """The grid's coordinate arrays (a, b), a-major; a disk keeps the points within reach."""
        a, b = np.repeat(self.ax, len(self.ay)), np.tile(self.ay, len(self.ax))
        if self.kind == "disk":
            inside = ~(_hypot(a - self.cx, b - self.cy) > self.reach)
            a, b = a[inside], b[inside]
        return a, b

    def clip(self, a, b):
        """(a, b) moved into the region: radially onto the reach of a disk, into
        the box of a half-plane; call under np.errstate."""
        if self.kind == "disk":
            dx, dy = a - self.cx, b - self.cy
            rr = _hypot(dx, dy)
            scale, out = self.reach / rr, rr > self.reach
            return np.where(out, self.cx + dx * scale, a), np.where(out, self.cy + dy * scale, b)
        return np.minimum(np.maximum(a, self.tlo), self.thi), np.minimum(np.maximum(b, self.hlo), self.hhi)

    def initial_steps(self, coords):
        """The 4 x W first steps of walks from the 4 x W coordinates."""
        steps = np.full(np.shape(coords), self._step_x)
        if self.kind == "half":
            steps[1::2] = coords[1::2] * (self._growth - 1.0)
        return steps


def _hypot(x, y):
    """math.hypot of every element pair of the float arrays x, y."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(x))


def _grid_chunk(stage, lo, hi, keep):
    """Score, from the grid's per-point stage, the pairs of distinct points i, j with i in
    [lo, hi) and j > i; return their count in both orders and the `keep` best finite
    (ratio, i, j) entries, each pair once, ordered by (-ratio, i, j).  Entries carry
    guarded_ratio's bits (see verify._ranked_ratios), which (j, i) shares."""
    rows = np.arange(lo, hi)
    count = len(stage.at) - 1 - rows  # row i pairs with j = i + 1, i + 2, ..., row-major
    i = np.repeat(rows, count)
    j = np.arange(count.sum()) + np.repeat(rows + 1 - (np.cumsum(count) - count), count)
    with np.errstate(all="ignore"):
        gap = abs(stage.points[i] - stage.points[j])
        distinct = gap != 0.0
        evaluations = 2 * int(np.count_nonzero(distinct))
        distinct &= stage.usable[i] & stage.usable[j]
        if not distinct.all():
            i, j, gap = i[distinct], j[distinct], gap[distinct]
        ratio, exact = _ranked_ratios(stage.take(i), stage.take(j), gap, keep, 0.0)
    r, i, j = ratio[exact], i[exact], j[exact]
    found = np.flatnonzero(~np.isnan(r))
    best = found[np.lexsort((j[found], i[found], -r[found]))[:keep]]
    return evaluations, [(float(r[k]), int(i[k]), int(j[k])) for k in best]


def _grid_top(stage, keep, threads):
    """The grid's evaluations and its `keep` best (ratio, i, j) entries by (-ratio, i, j), from
    its chunks (see _GRID_CHUNK_ROWS), on a pool from _PAIRS_PER_WORKER grid pairs per worker."""
    rows, evaluations, top = len(stage.at), 0, []
    before = np.cumsum(np.arange(rows, 0, -1)) - rows  # the pairs (i, j > i) of the rows above each
    starts = np.searchsorted(before, range(0, rows * (rows - 1) // 2, _GRID_CHUNK_ROWS * max(rows, 1))).tolist()
    tasks = [(stage, lo, hi, keep) for lo, hi in zip(starts, starts[1:] + [rows])]
    workers = min(threads, max(1, rows * rows // _PAIRS_PER_WORKER))
    for chunk_evals, chunk_top in run_ordered(_grid_chunk, tasks, workers):
        evaluations += chunk_evals
        top.extend(chunk_top)
    return evaluations, sorted(top, key=lambda entry: (-entry[0], entry[1], entry[2]))[:keep]


def _distortion_order(m, points, stage):
    """The grid points where apply and derivative do not raise and f(z) lies inside dst, by
    decreasing local distortion, then by index (from the per-point stage); call under np.errstate."""
    slope, bad = _on_arrays(_divided, m, points, points)
    order = np.flatnonzero(~bad & np.isfinite(stage.f.real) & np.isfinite(stage.f.imag) & (stage.f_offset > 0.0))
    return order[np.lexsort((order, -(abs(slope) * stage.offset / stage.f_offset)[order]))]


def _seeds(src, dst, m, region, threads):
    """The walks' seed pairs as 4 x S coordinates, their ratios (NaN where infeasible)
    and the evaluations spent on them: the best grid pairs, then, at the most
    expanding grid points in order, a near-coincident pair with w _SEED_OFFSET to the
    right of z, or to its left where the right-hand w clips back onto z; call under
    np.errstate."""
    a, b = region.grid()
    points = region.point(a, b)
    stage = _point_stage(src, dst, m, points)
    evaluations, top = _grid_top(stage, _SEED_COUNT, threads)
    i, j = np.array([e[1] for e in top], dtype=int), np.array([e[2] for e in top], dtype=int)

    # Local-distortion seeds cover suprema reached in the z -> w limit.
    at = _distortion_order(m, points, stage)[:_SEED_COUNT]
    za, zb, z = a[at], b[at], points[at]
    wa, wb = region.clip(za + _SEED_OFFSET, zb)
    back = abs(region.point(wa, wb) - z) == 0.0  # the right-hand w clipped back onto z
    wa[back], wb[back] = region.clip(za[back] - _SEED_OFFSET, zb[back])
    w = region.point(wa, wb)
    ratio, gap = _scored_pairs(z, w, stage.take(at), _point_stage(src, dst, m, w), _exact_ratios)
    coords = np.concatenate([[a[i], b[i], a[j], b[j]], [za, zb, wa, wb]], axis=1)
    ratios = np.concatenate([[e[0] for e in top], ratio])
    return coords, ratios, evaluations + int(np.count_nonzero(gap != 0.0))


def _walk(src, dst, m, region, cfg, coords, best):
    """Coordinatewise pattern search with complete polling (Hooke and Jeeves, JACM 1961;
    Kolda, Lewis and Torczon, SIAM Review 45, 2003) from the 4 x W seed coordinates with
    ratios best, every walk in one pass per round.

    Each round scores the 8 moves of every walk, +step then -step on each coordinate k
    in turn, and a walk takes its best improving move, the first of equal ratios.  A
    move changes one point of the pair and clips that point into the region.  It is
    eligible, and counts as an evaluation, if its z and w are distinct and the pair
    differs from the walk's own (a step below an ulp, or one clipped back at the
    region's edge, leaves it where it is).  Steps double after a move and shrink by
    _SHRINK otherwise, so a walk can both travel and converge within the round
    budget.  Returns each walk's ratio, coordinates and evaluations; call under
    np.errstate.
    """
    steps, width = region.initial_steps(coords), len(best)
    evals = np.zeros(width, dtype=int)
    walks, k, half = np.arange(width), np.arange(4), 4 * width
    col = np.tile(walks, 8)  # the walk that candidate column c moves is col[c]
    # Move 2k + s of walk v (s = 0 for +step on coordinate k, 1 for -step) is column (2k + s)
    # width + v of the candidates.  It changes z for k < 2 and w for k >= 2, so only that
    # point is clipped and mapped; the stage holds the walks' z and w, then the moved points.
    z_at = np.concatenate([2 * width + np.arange(half), col[:half]])
    w_at = np.concatenate([width + col[:half], 2 * width + half + np.arange(half)])
    for _ in range(cfg.refine_rounds):
        here = coords[:, col]
        cand = here.copy()
        moves = cand.reshape(4, 4, 2, width)
        moves[k, k, 0] += steps
        moves[k, k, 1] -= steps
        a, b = np.concatenate([cand[0, :half], cand[2, half:]]), np.concatenate([cand[1, :half], cand[3, half:]])
        a, b = region.clip(a, b)
        cand[0, :half], cand[1, :half], cand[2, half:], cand[3, half:] = a[:half], b[:half], a[half:], b[half:]
        points = region.point(np.concatenate([coords[0], coords[2], a]), np.concatenate([coords[1], coords[3], b]))
        stage = _point_stage(src, dst, m, points)
        ratio, gap = _scored_pairs(points[z_at], points[w_at], stage.take(z_at), stage.take(w_at), _exact_ratios)
        eligible = (gap != 0.0) & (cand != here).any(axis=0)
        evals += eligible.reshape(8, width).sum(axis=0)
        score = np.where(eligible & (ratio > best[col]), ratio, -math.inf).reshape(8, width)
        move = np.argmax(score, axis=0)  # the first best move, in (k, +, -) order
        moved = score[move, walks] > -math.inf
        coords = np.where(moved, cand.reshape(4, 8, width)[:, move, walks], coords)
        best = np.where(moved, score[move, walks], best)
        steps = steps * np.where(moved, 2.0, _SHRINK)
    return best, coords, evals


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
    check_integer("threads", threads, 1)
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
    with np.errstate(all="ignore"):
        coords, ratios, evaluations = _seeds(src, dst, m, region, threads)
        live = ~np.isnan(ratios)
        ratios, coords, evals = _walk(src, dst, m, region, cfg, coords[:, live], ratios[live])
    if not len(ratios):
        raise DomainError("the search region contained no feasible pair")
    k = int(np.argmax(ratios))  # the first walk to reach the best ratio
    best, evaluations = float(ratios[k]), evaluations + int(evals.sum())
    witness_z, witness_w = region.point(coords[0], coords[1]).at(k), region.point(coords[2], coords[3]).at(k)
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
    if not 0.0 < t < math.inf:
        raise DomainError(f"extremal_ratio needs a finite t > 0, got {t!r}")
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
