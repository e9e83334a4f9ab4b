"""Randomized verification suites.

Each suite draws seeded samples, evaluates one identity or inequality, and
reports the worst margin observed.  Margins are signed slacks: nonnegative
means the property held with room to spare, and a suite passes when the
worst margin stays above minus its tolerance.  Identity and bounded
inequality suites track absolute slack (identities normalized by their
magnitude scale); the unbounded inequality chains track slack relative to
the dominating side.

Samples whose image points are numerically boundary-coincident (computed
boundary distance below 1e-9 relative to the image magnitude) or not finite
cannot be evaluated meaningfully in floating point and are skipped; the skip
count is kept on the report, and a run that skipped every sample fails.

Every suite is one row (kernel, tolerance, margin convention) of the
``_SUITES`` table; the kernel maps (seed, chunk index, count) to that
chunk's (worst margin, witness, skip count).  ``_suite(trial, keys, ...)``
builds the row from a trial, which draws one sample from the chunk's Philox
substream and returns (margin, values), or None to skip it; ``keys`` names
the witness entry of each value, formatted only when a sample sets a new
worst margin.  To add a suite, write its trial and add a row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import (
    CArr,
    Disk,
    HalfPlane,
    PlanarDomain,
    UnitDisk,
    UpperHalfPlane,
    j_distance,
    j_distances,
    pseudo_hyperbolic_disk,
    pseudo_hyperbolic_halfplane,
    signed_boundary_offset,
)
from .errors import CoincidentPoints, DomainError, PoleEncountered, PointOutsideDomain
from .grammar import _to_json, format_complex, format_domain, format_map
from .maps import (
    Blaschke,
    Compose,
    Extremal,
    MapExpr,
    Mobius,
    apply,
    apply_arrays,
    image_modulus_bound,
    mobius_image_domain,
)
from .parallel import run_ordered
from .sampling import (
    REJECTION_TRIES,
    Uniforms,
    sample_interior,
    sample_interior_pair,
    sample_interior_pairs,
    substream,
)

__all__ = [
    "CheckReport",
    "check_identity_halfplane",
    "check_identity_disk",
    "check_schwarz_pick_halfplane",
    "check_schwarz_pick_disk",
    "check_step_1_2",
    "check_step_2_2",
    "check_bound_2_3",
    "g_threshold",
    "g_threshold_from_modulus",
    "check_g_negativity",
    "check_lipschitz_pair",
    "guarded_ratio",
    "guarded_ratios",
    "run_suite",
    "run_all_suites",
    "run_schwarz_pick_equality",
    "lipschitz_ceiling",
    "SUITE_NAMES",
]

# Sampling policy shared by all suites.  The half-plane box is kept modest:
# slack roundoff grows like 1e-16 * |f| / Im f, and a span of 10 keeps that
# comfortably below the 1e-12 contraction tolerances while X = |z-w|/s still
# reaches ~1e4.
PAIR_MARGIN = 1e-3
PAIR_SEPARATION = 1e-9
HALFPLANE_SPAN = 10.0

# Image boundary distances below IMAGE_TRUST * (1 + |f|) are treated as
# destroyed by rounding rather than as usable interior points.
IMAGE_TRUST = 1e-9

_CHUNK = 4096

_HALF = UpperHalfPlane()
_DISK = UnitDisk()


# ---------------------------------------------------------------------------
# Scalar checks
# ---------------------------------------------------------------------------


def check_identity_halfplane(x: complex, y: complex) -> float:
    """Residual of |x - conj(y)|^2 - |x - y|^2 = 4 Im x Im y (zero on all of C)."""
    return abs(x - y.conjugate()) ** 2 - abs(x - y) ** 2 - 4.0 * x.imag * y.imag


def check_identity_disk(x: complex, y: complex) -> float:
    """Residual of |1 - conj(x) y|^2 - |x - y|^2 = (1 - |x|^2)(1 - |y|^2)."""
    lhs = abs(1.0 - x.conjugate() * y) ** 2 - abs(x - y) ** 2
    rhs = (1.0 - abs(x) ** 2) * (1.0 - abs(y) ** 2)
    return lhs - rhs


def _sp_slack(distance, z: complex, w: complex, fz: complex, fw: complex) -> float:
    return distance(z, w) - distance(fz, fw)


def _sp_equality(distance, z: complex, w: complex, fz: complex, fw: complex) -> float:
    return -abs(_sp_slack(distance, z, w, fz, fw))


def check_schwarz_pick_halfplane(m: MapExpr, z: complex, w: complex) -> float:
    """Contraction slack of the half-plane pseudo-hyperbolic distance.

    Nonnegative for every holomorphic self-map of the upper half-plane;
    the caller is responsible for m actually being one.
    """
    return _sp_slack(pseudo_hyperbolic_halfplane, z, w, apply(m, z), apply(m, w))


def check_schwarz_pick_disk(m: MapExpr, z: complex, w: complex) -> float:
    """Contraction slack of the disk pseudo-hyperbolic distance."""
    return _sp_slack(pseudo_hyperbolic_disk, z, w, apply(m, z), apply(m, w))


def _images_inside(domain: PlanarDomain, m: MapExpr, z: complex, w: complex) -> tuple[complex, complex]:
    if signed_boundary_offset(domain, z) <= 0.0 or signed_boundary_offset(domain, w) <= 0.0:
        raise PointOutsideDomain(f"points must lie in {format_domain(domain)}")
    fz = apply(m, z)
    fw = apply(m, w)
    if signed_boundary_offset(domain, fz) <= 0.0 or signed_boundary_offset(domain, fw) <= 0.0:
        raise PointOutsideDomain(f"image points left {format_domain(domain)}")
    return fz, fw


def _step_1_2_sides(z: complex, w: complex, fz: complex, fw: complex) -> tuple[float, float]:
    s = z.imag if z.imag <= w.imag else w.imag
    big_s = fz.imag if fz.imag <= fw.imag else fw.imag
    lhs = abs(fz - fw) / big_s
    rhs = (abs(z - w) / s) * math.sqrt(1.0 + lhs)
    return lhs, rhs


def check_step_1_2(m: MapExpr, z: complex, w: complex) -> float:
    """Slack of |f(z)-f(w)|/S <= (|z-w|/s) sqrt(1 + |f(z)-f(w)|/S) on the
    half-plane, with s, S the smaller source/image heights."""
    lhs, rhs = _step_1_2_sides(z, w, *_images_inside(_HALF, m, z, w))
    return rhs - lhs


def _step_2_2_sides(z: complex, w: complex, fz: complex, fw: complex) -> tuple[float, float]:
    if abs(fz) < abs(fw):
        fz, fw = fw, fz
    r = max(abs(z), abs(w))
    lhs = abs(fz - fw) / (1.0 - abs(fz))
    rhs = (abs(z - w) / (1.0 - r)) * ((1.0 + abs(fz)) / (1.0 + r)) * math.sqrt(1.0 + lhs)
    return lhs, rhs


def check_step_2_2(m: MapExpr, z: complex, w: complex) -> float:
    """Slack of the disk analogue, with the points labeled so the image of
    the first has the larger modulus and r = max(|z|, |w|)."""
    lhs, rhs = _step_2_2_sides(z, w, *_images_inside(_DISK, m, z, w))
    return rhs - lhs


def _relative_slack(sides, z: complex, w: complex, fz: complex, fw: complex) -> float:
    lhs, rhs = sides(z, w, fz, fw)
    return (rhs - lhs) / max(1.0, rhs)


def check_bound_2_3(m: MapExpr, z: complex) -> float:
    """Slack of |f(z)| <= (|z| + |f(0)|) / (1 + |f(0)| |z|) for disk self-maps."""
    if abs(z) >= 1.0:
        raise PointOutsideDomain("point must lie in the unit disk")
    a_mod = abs(apply(m, 0j))
    return image_modulus_bound(a_mod, abs(z)) - abs(apply(m, z))


def g_threshold(c: float) -> float:
    """Positive root T = 2(1-c)/(2c-1) of cX + sqrt(1+c^2 X^2) - (1+X).

    Defined for 1/2 < c <= 1; c = 1/2 returns +inf (the expression is
    negative for every X > 0 there).
    """
    if c == 0.5:
        return math.inf
    if not 0.5 < c <= 1.0:
        raise DomainError(f"g_threshold needs c in (1/2, 1] or c = 1/2, got {c!r}")
    return 2.0 * (1.0 - c) / (2.0 * c - 1.0)


def g_threshold_from_modulus(a_mod: float, r: float) -> float:
    """Same threshold written as (2 a r + 1 - a)/(a (1 - r)) with a = |f(0)|."""
    if not (0.0 <= a_mod < 1.0) or not (0.0 <= r < 1.0):
        raise DomainError(f"g_threshold_from_modulus needs arguments in [0, 1), got {a_mod!r}, {r!r}")
    if a_mod == 0.0:
        return math.inf
    return (2.0 * a_mod * r + 1.0 - a_mod) / (a_mod * (1.0 - r))


def check_g_negativity(c: float, x: float) -> float:
    """Value of g(X) = cX + sqrt(1 + c^2 X^2) - (1 + X); negative on (0, T)."""
    if not 0.5 <= c <= 1.0:
        raise DomainError(f"check_g_negativity needs c in [1/2, 1], got {c!r}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"check_g_negativity needs a finite X > 0, got {x!r}")
    return c * x + math.sqrt(1.0 + c * c * x * x) - (1.0 + x)


def check_lipschitz_pair(
    src: PlanarDomain, dst: PlanarDomain, m: MapExpr, z: complex, w: complex
) -> float:
    """Metric distortion ratio j_dst(f(z), f(w)) / j_src(z, w).

    At most 2 (plus float noise) whenever m maps src holomorphically into
    dst and both are generalized disks.
    """
    j_src = j_distance(src, z, w)
    if j_src == 0.0:
        raise CoincidentPoints("the distortion ratio is undefined at coincident points")
    fz = apply(m, z)
    fw = apply(m, w)
    return j_distance(dst, fz, fw) / j_src


def _trusted(domain: PlanarDomain, f):
    """Whether the image f (a complex, or a CArr for a bool array) is finite and
    at least IMAGE_TRUST * (1 + |f|) inside the domain; abs() may overflow."""
    offset = signed_boundary_offset(domain, f)
    # A non-finite image has an inf or nan size, which no finite offset meets.
    return (IMAGE_TRUST * (1.0 + abs(f)) <= offset) & (offset < math.inf)


def _trusted_images(domain: PlanarDomain, m: MapExpr, z: complex, w: complex):
    """(f(z), f(w)), or None on a pole hit or an image that _trusted rejects."""
    try:
        fz, fw = apply(m, z), apply(m, w)
        return (fz, fw) if _trusted(domain, fz) and _trusted(domain, fw) else None
    except (PoleEncountered, DomainError, OverflowError):  # past ~1.3e308 apply or abs(f) overflows
        return None


def guarded_ratio(
    src: PlanarDomain, dst: PlanarDomain, m: MapExpr, z: complex, w: complex
) -> float | None:
    """check_lipschitz_pair, or None when the evaluation is untrustworthy.

    None covers pole hits, coincident points, source points outside src,
    non-finite images or ratios, distances that overflow the float range,
    and image points whose computed boundary distance falls below the
    rounding trust floor.
    """
    images = _trusted_images(dst, m, z, w)
    if images is None:
        return None
    try:
        j_src = j_distance(src, z, w)
        if j_src == 0.0:
            return None
        ratio = j_distance(dst, *images) / j_src
    except (PointOutsideDomain, DomainError):  # DomainError: |z - w| overflowed
        return None
    return ratio if math.isfinite(ratio) else None


def guarded_ratios(src: PlanarDomain, dst: PlanarDomain, m: MapExpr, z: CArr, w: CArr):
    """guarded_ratio for every pair (z[k], w[k]), NaN where it returns None."""
    with np.errstate(all="ignore"):
        fz, bad_z = apply_arrays(m, z)
        fw, bad_w = apply_arrays(m, w)
        keep = np.flatnonzero(_trusted(dst, fz) & _trusted(dst, fw) & ~(bad_z | bad_w))
        # A zero or raising j_src, or a raising j_dst, leaves a non-finite ratio.
        ratio = j_distances(dst, fz[keep], fw[keep]) / j_distances(src, z[keep], w[keep])
    out = np.full(np.shape(z.real), math.nan)
    out[keep] = np.where(np.isfinite(ratio), ratio, math.nan)
    return out


# ---------------------------------------------------------------------------
# Seeded map families
# ---------------------------------------------------------------------------


def random_blaschke(u: Uniforms, max_zeros: int = 4) -> Blaschke:
    count = min(1 + int(u.next() * max_zeros), max_zeros)
    zeros = []
    for _ in range(count):
        rho = 0.95 * math.sqrt(u.next())
        phi = 2.0 * math.pi * u.next()
        zeros.append(complex(rho * math.cos(phi), rho * math.sin(phi)))
    return Blaschke(2.0 * math.pi * u.next(), tuple(zeros))


def random_disk_automorphism(u: Uniforms) -> Blaschke:
    return random_blaschke(u, max_zeros=1)


def random_disk_map(u: Uniforms) -> MapExpr:
    if u.next() < 0.7:
        return random_blaschke(u)
    return Compose(random_blaschke(u, 2), random_blaschke(u, 2))


def random_halfplane_mobius(u: Uniforms) -> Mobius:
    """Real coefficients with determinant >= 0.1: an automorphism of the
    upper half-plane."""
    for _ in range(REJECTION_TRIES):
        a = u.uniform(-2.0, 2.0)
        b = u.uniform(-2.0, 2.0)
        c = u.uniform(-2.0, 2.0)
        d = u.uniform(-2.0, 2.0)
        if a * d - b * c >= 0.1:
            return Mobius(a, b, c, d)
    raise DomainError(f"no half-plane Moebius map with determinant >= 0.1 in {REJECTION_TRIES} draws")


def random_extremal(u: Uniforms) -> Extremal:
    return Extremal(u.uniform(-3.0, 3.0), u.uniform(-3.0, 3.0))


def _random_halfplane_atom(u: Uniforms) -> MapExpr:
    return random_halfplane_mobius(u) if u.next() < 0.5 else random_extremal(u)


def random_halfplane_map(u: Uniforms) -> MapExpr:
    pick = u.next()
    if pick < 0.35:
        return random_halfplane_mobius(u)
    if pick < 0.7:
        return random_extremal(u)
    return Compose(_random_halfplane_atom(u), _random_halfplane_atom(u))


# ---------------------------------------------------------------------------
# Reports, the suite table and its chunk fold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one randomized suite run.

    worst_margin stays +inf, and the JSON carries null, when every sample
    was skipped; such a run does not pass.
    """

    suite: str
    samples: int
    seed: int
    passed: bool
    worst_margin: float
    worst_witness: dict = field(default_factory=dict)
    margin_convention: str = "absolute"
    skipped: int = 0

    def to_json(self) -> str:
        return _to_json(
            {
                "suite": self.suite,
                "samples": self.samples,
                "seed": self.seed,
                "passed": self.passed,
                "worst_margin": self.worst_margin if math.isfinite(self.worst_margin) else None,
                "worst_witness": self.worst_witness,
            }
        )


def _report(suite, samples, seed, chunks, tolerance, convention) -> CheckReport:
    """Fold per-chunk (worst, witness, skipped) results, in chunk order."""
    worst, witness, skipped = math.inf, {}, 0
    for margin, wit, skip in chunks:
        skipped += skip
        if margin < worst:
            worst, witness = margin, wit
    passed = skipped < samples and worst >= -tolerance
    return CheckReport(suite, samples, seed, passed, worst, witness, convention, skipped)


def _run_chunked(row, suite, samples, seed, threads) -> CheckReport:
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples!r}")
    kernel, tolerance, convention = row
    full, rest = divmod(samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rest] if rest else [])
    tasks = [(seed, index, size) for index, size in enumerate(sizes)]
    return _report(suite, samples, seed, run_ordered(kernel, tasks, threads), tolerance, convention)


# Witness formatter by key: maps and domains print in grammar form, c and X
# stay floats, and every other key holds a complex point.
_WITNESS_FORMAT = {"map": format_map, "src": format_domain, "dst": format_domain, "c": float, "X": float}


def _witness(keys, values) -> dict:
    return {key: _WITNESS_FORMAT.get(key, format_complex)(value) for key, value in zip(keys, values)}


def _fold_chunk(trial, keys, seed, index, count):
    """Worst margin, its witness and the skip count of one chunk of a suite."""
    u = Uniforms(substream(seed, index))
    worst, witness, skipped = math.inf, {}, 0
    for _ in range(count):
        sample = trial(u)
        if sample is None:
            skipped += 1
        elif sample[0] < worst:
            worst = sample[0]
            witness = _witness(keys, sample[1])
    return worst, witness, skipped


def _suite(trial, keys, tolerance, convention="absolute"):
    """Table row for a suite made of `trial` draws.  The kernel pickles for
    the pool and carries _fold_chunk's name for tools that label workers."""
    kernel = functools.update_wrapper(functools.partial(_fold_chunk, trial, keys), _fold_chunk)
    return kernel, tolerance, convention


_PAIR = ("map", "src", "dst", "z", "w")


def _random_cnum(u: Uniforms) -> complex:
    return complex(u.uniform(-8.0, 8.0), u.uniform(-8.0, 8.0))


def _trial_identity_halfplane(u):
    x, y = _random_cnum(u), _random_cnum(u)
    return -abs(check_identity_halfplane(x, y)) / (1.0 + abs(x) ** 2 + abs(y) ** 2), (x, y)


def _trial_identity_disk(u):
    x, y = _random_cnum(u), _random_cnum(u)
    return -abs(check_identity_disk(x, y)) / ((1.0 + abs(x) ** 2) * (1.0 + abs(y) ** 2)), (x, y)


def _trial_images(domain, family, score, u):
    """A map from `family` and a pair, scored on their trusted images."""
    m = family(u)
    z, w = sample_interior_pair(domain, u, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
    images = _trusted_images(domain, m, z, w)
    if images is None:
        return None
    fz, fw = images
    return score(z, w, fz, fw), (m, z, w)


def _images_suite(domain, family, score, tolerance, convention="absolute"):
    trial = functools.partial(_trial_images, domain, family, score)
    return _suite(trial, ("map", "z", "w"), tolerance, convention)


def _trial_bound_2_3(u):
    m = random_disk_map(u)
    z = sample_interior(_DISK, u, PAIR_MARGIN)
    try:
        return check_bound_2_3(m, z), (m, z)
    except (PoleEncountered, DomainError):
        return None


def _trial_g_negativity(u):
    a_mod = 0.999 * u.next()
    r = 0.999 * u.next()
    c = (1.0 + a_mod) / (2.0 * (1.0 + a_mod * r))
    cap = min(g_threshold_from_modulus(a_mod, r), 1e6)
    x, tries = cap * u.next(), 1
    while x <= 0.0:
        if tries == REJECTION_TRIES:
            raise DomainError(f"no positive X below {cap!r} in {tries} draws")
        x, tries = cap * u.next(), tries + 1
    return -check_g_negativity(c, x), (c, x)


def _trial_lipschitz_pair(u):
    if u.next() < 0.5:
        src, m = _HALF, random_halfplane_map(u)
    else:
        src, m = _DISK, random_disk_map(u)
    z, w = sample_interior_pair(src, u, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
    ratio = guarded_ratio(src, src, m, z, w)
    return None if ratio is None else (2.0 - ratio, (m, src, src, z, w))


_SP_HALF = functools.partial(_sp_slack, pseudo_hyperbolic_halfplane)
_SP_DISK = functools.partial(_sp_slack, pseudo_hyperbolic_disk)
_STEP_1_2 = functools.partial(_relative_slack, _step_1_2_sides)
_STEP_2_2 = functools.partial(_relative_slack, _step_2_2_sides)

_SUITES = {
    "identity-halfplane": _suite(_trial_identity_halfplane, ("x", "y"), 1e-10),
    "identity-disk": _suite(_trial_identity_disk, ("x", "y"), 1e-10),
    "schwarz-pick-halfplane": _images_suite(_HALF, random_halfplane_map, _SP_HALF, 1e-12),
    "schwarz-pick-disk": _images_suite(_DISK, random_disk_map, _SP_DISK, 1e-12),
    "step-1-2": _images_suite(_HALF, random_halfplane_map, _STEP_1_2, 1e-10, "relative"),
    "step-2-2": _images_suite(_DISK, random_disk_map, _STEP_2_2, 1e-10, "relative"),
    "bound-2-3": _suite(_trial_bound_2_3, ("map", "z"), 1e-10),
    "g-negativity": _suite(_trial_g_negativity, ("c", "X"), 1e-12),
    "lipschitz-pair": _suite(_trial_lipschitz_pair, _PAIR, 1e-9),
}

SUITE_NAMES = tuple(_SUITES)

# Automorphism-only Schwarz-Pick rows scoring -|slack|.
_EQUALITY = {
    "halfplane": _images_suite(
        _HALF, random_halfplane_mobius, functools.partial(_sp_equality, pseudo_hyperbolic_halfplane), 1e-12
    ),
    "disk": _images_suite(
        _DISK, random_disk_automorphism, functools.partial(_sp_equality, pseudo_hyperbolic_disk), 1e-12
    ),
}


def run_suite(name: str, samples: int = 10_000, seed: int = 0, threads: int = 1) -> CheckReport:
    """Run one named suite; see SUITE_NAMES for the catalog."""
    try:
        row = _SUITES[name]
    except KeyError:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}") from None
    return _run_chunked(row, name, samples, seed, threads)


def run_all_suites(samples: int = 10_000, seed: int = 0, threads: int = 1) -> list[CheckReport]:
    return [run_suite(name, samples, seed, threads) for name in SUITE_NAMES]


def run_schwarz_pick_equality(
    kind: str, samples: int = 10_000, seed: int = 0, threads: int = 1
) -> CheckReport:
    """Automorphism-only Schwarz-Pick run scoring -|slack|: passing means the
    contraction is an equality to within 1e-12 on every draw."""
    try:
        row = _EQUALITY[kind]
    except KeyError:
        raise DomainError(f"kind must be 'halfplane' or 'disk', got {kind!r}") from None
    return _run_chunked(row, f"schwarz-pick-{kind}-equality", samples, seed, threads)


# ---------------------------------------------------------------------------
# Distortion ceiling harnesses (one chunk per map)
# ---------------------------------------------------------------------------

_CAYLEY = Mobius(1.0, -1j, 1.0, 1j)
_CEILING_KINDS = ("halfplane", "disk", "mobius-images")


def _random_image_source_and_mobius(u: Uniforms):
    """A random generalized-disk source plus a Moebius map whose pole sits
    safely off the source closure, so the image is again a disk/half-plane."""
    pick = u.next()
    if pick < 0.4:
        src: PlanarDomain = Disk(
            complex(u.uniform(-2.0, 2.0), u.uniform(-2.0, 2.0)), u.uniform(0.5, 2.0)
        )
        scale = src.radius
    elif pick < 0.7:
        src = _HALF
        scale = 1.0
    else:
        phi = 2.0 * math.pi * u.next()
        src = HalfPlane(complex(math.cos(phi), math.sin(phi)), u.uniform(-1.0, 1.0))
        scale = 1.0
    for _ in range(REJECTION_TRIES):
        coeffs = [complex(u.uniform(-2.0, 2.0), u.uniform(-2.0, 2.0)) for _ in range(4)]
        a, b, c, d = coeffs
        if abs(a * d - b * c) >= 0.3 and (c == 0 or signed_boundary_offset(src, -d / c) <= -0.2 * scale):
            return src, Mobius(a, b, c, d)
    raise DomainError(f"no Moebius map with its pole off {src!r} in {REJECTION_TRIES} draws")


def _ceiling_chunk(kind, seed, index, pairs):
    """One map's pairs, drawn from the chunk's generator after the map and
    scored in blocks of _CHUNK, bit for bit as guarded_ratio scores them."""
    rng = substream(seed, index)
    u = Uniforms(rng)
    if kind == "halfplane":
        src, dst, m = _HALF, _HALF, random_halfplane_map(u)
    elif kind == "disk":
        src, dst, m = _DISK, _DISK, random_blaschke(u, 4)
    else:  # "mobius-images"; lipschitz_ceiling checks the kind on entry
        src, m = (_HALF, _CAYLEY) if index == 0 else _random_image_source_and_mobius(u)
        dst = mobius_image_domain(m, src)
    worst, witness, skipped = math.inf, {}, 0
    for start in range(0, pairs, _CHUNK):
        count = min(_CHUNK, pairs - start)
        z, w = sample_interior_pairs(src, rng, count, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
        margin = 2.0 - guarded_ratios(src, dst, m, z, w)
        scored = ~np.isnan(margin)
        skipped += count - int(np.count_nonzero(scored))
        k = int(np.argmin(np.where(scored, margin, math.inf)))  # the first of equal margins, as with <
        if margin[k] < worst:
            worst = float(margin[k])
            witness = _witness(_PAIR, (m, src, dst, complex(z.real[k], z.imag[k]), complex(w.real[k], w.imag[k])))
    return worst, witness, skipped


def lipschitz_ceiling(
    kind: str, maps: int = 200, pairs_per_map: int = 10_000, seed: int = 0, threads: int = 1
) -> CheckReport:
    """Distortion ceiling sweep: `maps` seeded maps, `pairs_per_map` pairs
    each, scored as 2 - ratio with tolerance 1e-9.

    kind: "halfplane" (self-maps of H), "disk" (Blaschke products on D), or
    "mobius-images" (map 0 is the Cayley map onto the unit disk, the rest are
    seeded Moebius maps evaluated against their computed image domains).
    """
    if maps < 1 or pairs_per_map < 1:
        raise DomainError(f"maps and pairs_per_map must be at least 1, got {maps!r} and {pairs_per_map!r}")
    if kind not in _CEILING_KINDS:
        raise DomainError(f"unknown ceiling kind {kind!r}; choose from {', '.join(_CEILING_KINDS)}")
    tasks = [(kind, seed, index, pairs_per_map) for index in range(maps)]
    chunks = run_ordered(_ceiling_chunk, tasks, threads)
    return _report(f"lipschitz-ceiling-{kind}", maps * pairs_per_map, seed, chunks, 1e-9, "absolute")
