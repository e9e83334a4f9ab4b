"""Randomized verification suites.

Each suite draws seeded samples, evaluates one identity or inequality, and
reports the worst margin observed.  Margins are signed slacks: nonnegative
means the property held with room to spare, and a suite passes when the
worst margin stays above minus its tolerance.  Identity and bounded
inequality suites track absolute slack (identities normalized by their
magnitude scale); the unbounded inequality chains track slack relative to
the dominating side; the Schwarz-Pick suites track slack over its rounding
scale (see _sp_margin).

Samples whose image points are numerically boundary-coincident (computed
boundary distance below 1e-9 relative to the image magnitude) or not finite
cannot be evaluated meaningfully in floating point and are skipped, as are
pairs of coincident points: one _scored_pairs admits every pair that the suites,
the ceilings and the search score, the pairs of distinct points with usable
images, however close.  A run keeps its skip count and fails if it skipped all.
A ratio takes |f(z) - f(w)| from the two rounded images, or from the divided
difference |z - w| |f[z, w]| where they agree to rounding (_GAP_TRUST): one rule,
_image_j for both scalar ratios and _image_gaps for every array path.

Every suite is one row (trial, witness keys, tolerance, margin convention) of
``_ROWS``.  A trial draws a whole chunk from the chunk's Philox substream, maps
as parameter arrays grouped by shape (a maps.MapBatch, which evaluates all its
Blaschke groups as one product whatever their zero counts) and points as
arrays, and returns its margins (NaN for a skip) and a function giving sample
k's witness values.  Each formula runs on complex numbers and on CArr, so the
public scalar checks reproduce a witness's margin bit for bit.  To add a
suite, add a row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domains import (
    CArr,
    Disk,
    HalfPlane,
    PlanarDomain,
    UnitDisk,
    UpperHalfPlane,
    _j,
    _j_of_gap,
    _log1p_exact,
    _modulus,
    j_distance,
    pseudo_hyperbolic_disk,
    pseudo_hyperbolic_halfplane,
    signed_boundary_offset,
)
from .errors import CoincidentPoints, DomainError, PoleEncountered, PointOutsideDomain, check_integer
from .grammar import _to_json, format_complex, format_domain, format_map
from .maps import (
    Blaschke,
    Compose,
    Extremal,
    MapBatch,
    MapExpr,
    Mobius,
    _divided,
    _raise_at_pole,
    _rounding_scale,
    _unguarded,
    apply,
    apply_arrays,
    image_modulus_bound,
    mobius_image_domain,
)
from .parallel import run_ordered
from .sampling import REJECTION_TRIES, Uniforms, sample_interior_points, substream

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
    "run_suite",
    "run_all_suites",
    "run_schwarz_pick_equality",
    "lipschitz_ceiling",
    "SUITE_NAMES",
]

# Sampling policy shared by all suites.  The half-plane box is kept modest:
# slack roundoff grows like 1e-16 * |f| / Im f, and a span of 10 keeps that
# comfortably below the 1e-12 contraction tolerances while X = |z-w|/s still
# reaches ~1e4.  PAIR_SEPARATION admits no pair: only the benchmark's scalar pair
# probe (bench/probes.py) reads it, and it goes when that probe does.
PAIR_MARGIN = 1e-3
PAIR_SEPARATION = 1e-9
HALFPLANE_SPAN = 10.0

# Image boundary distances below IMAGE_TRUST * (1 + |f|) are treated as
# destroyed by rounding rather than as usable interior points.
IMAGE_TRUST = 1e-9

_CHUNK = 4096

# Samples per suite run and maps * pairs_per_map per ceiling: a run lists its tasks (one
# per _CHUNK samples or per map, and a ceiling map one count per _CHUNK pairs) before it
# draws, so 10**9 keeps a list near 244k entries; 10**12 samples would need 244M (tens of GB).
_SAMPLES_MAX = 10**9

_HALF = UpperHalfPlane()
_DISK = UnitDisk()


# ---------------------------------------------------------------------------
# Scalar checks; each formula also runs on CArr points
# ---------------------------------------------------------------------------


def _sq(x):
    """x * x: `** 2` calls pow() on a float but multiplies on an array."""
    return x * x


def check_identity_halfplane(x: complex, y: complex) -> float:
    """Residual of |x - conj(y)|^2 - |x - y|^2 = 4 Im x Im y (zero on all of C); DomainError where
    a modulus is past the float range, NaN or +-inf where a square or 4 Im x Im y is."""
    try:
        return _sq(abs(x - y.conjugate())) - _sq(abs(x - y)) - 4.0 * x.imag * y.imag
    except OverflowError as exc:  # abs() of a complex past ~1.3e308 per coordinate
        raise DomainError(f"check_identity_halfplane: a modulus of {x!r}, {y!r} is past the float range") from exc


def check_identity_disk(x: complex, y: complex) -> float:
    """Residual of |1 - conj(x) y|^2 - |x - y|^2 = (1 - |x|^2)(1 - |y|^2); DomainError where a
    modulus is past the float range, NaN or +-inf where conj(x) y, a square or a product is."""
    try:
        lhs = _sq(abs(1.0 - x.conjugate() * y)) - _sq(abs(x - y))
        rhs = (1.0 - _sq(abs(x))) * (1.0 - _sq(abs(y)))
    except OverflowError as exc:  # abs() of a complex past ~1.3e308 per coordinate
        raise DomainError(f"check_identity_disk: a modulus of {x!r}, {y!r} is past the float range") from exc
    return lhs - rhs


def _sp_slack(distance, z: complex, w: complex, fz: complex, fw: complex) -> float:
    return distance(z, w) - distance(fz, fw)


def _sp_margin(distance, domain: PlanarDomain, z, w, fz, fw):
    """Slack over its rounding scale 1 + |f(z)|/d(f(z)) + |f(w)|/d(f(w)), d the
    boundary distance: an image rounded by u|f| moves its distance by about
    u|f|/d(f), so a composition of automorphisms (slack 0) whose images near
    the boundary leave a slack of -1e-12 still scores within tolerance."""
    scale = 1.0 + abs(fz) / signed_boundary_offset(domain, fz) + abs(fw) / signed_boundary_offset(domain, fw)
    return _sp_slack(distance, z, w, fz, fw) / scale


def _sp_equality(distance, domain: PlanarDomain, z, w, fz, fw):
    return -abs(_sp_margin(distance, domain, z, w, fz, fw))


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
    lhs = abs(fz - fw) / np.minimum(fz.imag, fw.imag)
    rhs = (abs(z - w) / np.minimum(z.imag, w.imag)) * np.sqrt(1.0 + lhs)
    return lhs, rhs


def check_step_1_2(m: MapExpr, z: complex, w: complex) -> float:
    """Slack of |f(z)-f(w)|/S <= (|z-w|/s) sqrt(1 + |f(z)-f(w)|/S) on the
    half-plane, with s, S the smaller source/image heights; DomainError
    where |z - w|, |f(z) - f(w)| or a side is past the float range."""
    images = _images_inside(_HALF, m, z, w)
    try:
        with np.errstate(over="raise", invalid="raise"):  # the sides are numpy floats, which overflow to inf
            lhs, rhs = _step_1_2_sides(z, w, *images)
            slack = float(rhs - lhs)
    except (OverflowError, FloatingPointError):  # abs() past ~1.3e308 per coordinate, or a side past it
        slack = math.nan
    if math.isfinite(slack):  # a complex z - w or f(z) - f(w) past the float range is inf, not an error
        return slack
    raise DomainError(f"check_step_1_2: |z - w|, |f(z) - f(w)| or a side is past the float range at {z!r}, {w!r}")


def _step_2_2_sides(z: complex, w: complex, fz: complex, fw: complex) -> tuple[float, float]:
    big = np.maximum(abs(fz), abs(fw))
    r = np.maximum(abs(z), abs(w))
    lhs = abs(fz - fw) / (1.0 - big)
    rhs = (abs(z - w) / (1.0 - r)) * ((1.0 + big) / (1.0 + r)) * np.sqrt(1.0 + lhs)
    return lhs, rhs


def check_step_2_2(m: MapExpr, z: complex, w: complex) -> float:
    """Slack of the disk analogue, with the image of larger modulus in the
    bound's (1 + |f|) and r = max(|z|, |w|)."""
    lhs, rhs = _step_2_2_sides(z, w, *_images_inside(_DISK, m, z, w))
    return float(rhs - lhs)


def _relative_slack(sides, z: complex, w: complex, fz: complex, fw: complex) -> float:
    lhs, rhs = sides(z, w, fz, fw)
    return (rhs - lhs) / np.maximum(1.0, rhs)


def check_bound_2_3(m: MapExpr, z: complex) -> float:
    """Slack of |f(z)| <= (|z| + |f(0)|) / (1 + |f(0)| |z|) for disk self-maps; DomainError past the float range."""
    if _modulus(z) >= 1.0:
        raise PointOutsideDomain("point must lie in the unit disk")
    try:
        a_mod = abs(apply(m, 0j))
        return image_modulus_bound(a_mod, abs(z)) - abs(apply(m, z))
    except OverflowError as exc:  # abs() of a finite image past ~1.3e308 per coordinate
        raise DomainError(f"check_bound_2_3: |f(0)| or |f(z)| is past the float range at {z!r}") from exc


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


def _threshold(a_mod, r):
    return (2.0 * a_mod * r + 1.0 - a_mod) / (a_mod * (1.0 - r))


def g_threshold_from_modulus(a_mod: float, r: float) -> float:
    """Same threshold written as (2 a r + 1 - a)/(a (1 - r)) with a = |f(0)|; +inf at
    a = 0 and wherever T is past the float range."""
    if not (0.0 <= a_mod < 1.0) or not (0.0 <= r < 1.0):
        raise DomainError(f"g_threshold_from_modulus needs arguments in [0, 1), got {a_mod!r}, {r!r}")
    if a_mod == 0.0:
        return math.inf
    try:
        return _threshold(a_mod, r)
    except ZeroDivisionError:  # a (1 - r) underflows to 0 for a subnormal a
        return math.inf


def _g(c, x):
    return c * x + np.sqrt(1.0 + c * c * x * x) - (1.0 + x)


def check_g_negativity(c: float, x: float) -> float:
    """Value of g(X) = cX + sqrt(1 + c^2 X^2) - (1 + X); negative on (0, T).  DomainError
    where c^2 X^2 is past the float range (cX above about 1.34e154)."""
    if not 0.5 <= c <= 1.0:
        raise DomainError(f"check_g_negativity needs c in [1/2, 1], got {c!r}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"check_g_negativity needs a finite X > 0, got {x!r}")
    g = float(_g(c, x))
    if g < math.inf:
        return g
    raise DomainError(f"check_g_negativity: c^2 X^2 is past the float range at c = {c!r}, X = {x!r}")


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
    return _image_j(dst, m, z, w, apply(m, z), apply(m, w)) / j_src


# _image_j and _image_gaps take |f(z) - f(w)| from the two rounded images only where
# that difference is accurate to tau = 5e-10, relative: the 1e-9 tolerance of the
# ceilings, the lipschitz-pair suite and the search's refusal, on a ratio of at most 2
# (a relative error in x moves log1p(x) by at most as much, since x <= (1 + x) log1p(x)).
# To first order each computed image is off by at most e S(z), S = maps._rounding_scale,
# so the computed difference is off by at most e (S(z) + S(w)) + u |f(z) - f(w)|,
# u = 2**-53, and relatively by at most tau + u where |f(z) - f(w)| > (e / tau) (S(z) +
# S(w)).  Elsewhere the gap is |z - w| |f[z, w]| (maps._divided), which has no
# cancellation in it, unless that is 0 or not finite (den_z den_w under- or
# overflowing): then the rounded difference stays.  S and e come from running error
# bounds (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 3): Lemma 3.5
# bounds a complex sum of computed terms by u |x + y|, a product by 2 sqrt(2) u |x| |y|
# and a quotient by 6 u |x / y| (sqrt(2) gamma_4; the scaled division of CPython and CArr
# measures at most 2.72 u over 2e5 random quotients).  With q = 1 / (b + z) = a - f:
#   a - 1/(b + z):  (1 + 6) u |q| + u |f|, at most 8 u (|a| + |q|) <= 8 u (2 |a| + |f|).
#   Moebius:        (1 + 2 sqrt(2)) u (N + |f| D) / |cz + d| + 6 u |f|, N = |a| |z| + |b| and
#                   D = |c| |z| + |d|; |f| <= N / |cz + d|, and with z (a - cf) = df - b and
#                   (cz + d)(a - cf) = det, (N + |f| D) / |cz + d| <= 2 (|a| + |c| |f|)
#                   (|b| + |d| |f|) / |det|: at most 10 u times that.
#   Blaschke:       relatively 2 u for the rotation, and per factor u for z - a, u + 2 sqrt(2)
#                   u r for 1 - conj(a) z (r = |a| |z| / |1 - conj(a) z|), 6 u for the quotient
#                   and 2 sqrt(2) u for the product: at most 10.9 u |f| (1 + sum_k (1 + r_k)),
#                   and 1 + r_k <= 1 / (1 - |a_k|) where |z| <= 1, that is where |f| <= 1.
#   outer o inner:  S_outer(h) + |outer'(h)| S_inner(z) at h = inner(z), with |outer'(h)|
#                   from f ((a - f)^2, (a - cf)^2 / det, or sum_k (1 + |a_k|) / (1 - |a_k|))
#                   and |h| from outer's inverse (maps._slope_bound, maps._preimage_bound).
# maps._rounding_scale takes each of these bounds, with complex moduli bounded above by
# |Re| + |Im| and |det| below by that over sqrt(2).  So e = 10.9 u covers every map, and
# e / tau:
_GAP_TRUST = 10.9 * 2.0**-53 / 5e-10


def _image_j(dst: PlanarDomain, m: MapExpr, z: complex, w: complex, fz: complex, fw: complex) -> float:
    """j_distance(dst, fz, fw) for the images fz, fw of z, w under m, with |z - w| |f[z, w]| for
    |fz - fw| where fz and fw agree to rounding (see _GAP_TRUST) and that is a positive float."""
    try:
        far = abs(fz - fw) > _GAP_TRUST * (_rounding_scale(m, z, fz, abs(fz)) + _rounding_scale(m, w, fw, abs(fw)))
        gap = math.nan if far else abs(z - w) * abs(_divided(m, z, w, _raise_at_pole))
    except (OverflowError, ZeroDivisionError):  # abs() past ~1.3e308 per coordinate, or den_z den_w past it
        gap = math.nan
    return _j_of_gap(dst, fz, fw, gap) if 0.0 < gap < math.inf else j_distance(dst, fz, fw)


def _trusted(size, offset):
    """Whether a finite image of modulus `size` (a float, or an array for a bool array) is
    at least IMAGE_TRUST * (1 + size) inside the domain it is `offset` from the boundary of
    (signed_boundary_offset)."""
    return IMAGE_TRUST * (1.0 + size) <= offset


class _Points(NamedTuple):
    """The per-point stage that _scored_pairs and the search grid score pairs from: a
    point's offset from the source boundary, its image, the image's rounding scale
    (maps._rounding_scale), the image's offset from the destination boundary, whether the
    image is usable (apply gives it and _trusted accepts it) and its position in the stage;
    and, not gathered, the stage's points and map (a MapBatch takes map k at position k).
    The offset and the scale are None in a stage for scores that read only the images."""

    offset: np.ndarray | None
    f: CArr
    scale: np.ndarray | None
    f_offset: np.ndarray
    usable: np.ndarray
    at: np.ndarray
    points: CArr
    m: MapExpr | MapBatch

    def take(self, index) -> _Points:
        offset, scale = (None, None) if self.scale is None else (self.offset[index], self.scale[index])
        return _Points(offset, self.f[index], scale, self.f_offset[index], self.usable[index],
                       self.at[index], self.points, self.m)


def _point_stage(src: PlanarDomain, dst: PlanarDomain, m, z: CArr, gaps: bool = True) -> _Points:
    """_Points of every point of z, with source offsets and rounding scales if gaps; call under np.errstate."""
    f, bad = apply_arrays(m, z)
    size = abs(f)
    # signed_boundary_offset(UnitDisk(), f) is 1.0 - abs(f): one abs() serves both.
    f_offset = 1.0 - size if isinstance(dst, UnitDisk) else signed_boundary_offset(dst, f)
    usable = _trusted(size, f_offset) & ~bad
    offset, scale = (signed_boundary_offset(src, z), _rounding_scale(m, z, f, size)) if gaps else (None, None)
    return _Points(offset, f, scale, f_offset, usable, np.arange(len(z.real)), z, m)


def _image_gaps(pz: _Points, pw: _Points, gap):
    """|f(z) - f(w)| of pairs with usable images as _image_j takes it, from their
    per-point stages pz, pw (gathered to the pairs) and gaps |z - w|; call under np.errstate."""
    fgap = abs(pz.f - pw.f)
    near = np.flatnonzero(fgap <= _GAP_TRUST * (pz.scale + pw.scale))
    near = near[pz.usable[near] & pw.usable[near]]
    if near.size:
        z_at, w_at = pz.at[near], pw.at[near]
        m = pz.m.take(z_at) if isinstance(pz.m, MapBatch) else pz.m
        divided = gap[near] * abs(_divided(m, pz.points[z_at], pw.points[w_at], _unguarded))
        exact = (divided > 0.0) & (divided < math.inf)
        fgap[near[exact]] = divided[exact]
    return fgap


def _pair_ratios(pz: _Points, pw: _Points, gap, fgap, log1p):
    """The pair stage of _scored_pairs: j_dst(f(z), f(w)) / j_src(z, w) for pairs of
    points with usable images, from their per-point values pz, pw (gathered to the
    pairs), their gaps |z - w| and image gaps fgap (_image_gaps); NaN where the ratio
    is not finite.  log1p as for domains._j; call under np.errstate."""
    j_dst = _j(fgap, pz.f_offset, pw.f_offset, log1p)
    # A zero j_src, or a NaN j, leaves a non-finite ratio.
    ratio = j_dst / _j(gap, pz.offset, pw.offset, log1p)
    finite = np.isfinite(ratio)
    return ratio if finite.all() else np.where(finite, ratio, math.nan)


# _ranked_ratios serves callers that rank v = c - r ascending and keep the `keep`
# lowest, the first of equal values first: the search grid its top ratios (c = 0),
# the ceiling its worst margin 2 - r (c = 2).  It scores every pair with np.log1p,
# then rescores with math.log1p each NaN pair and each pair with v' <= t + s (c +
# |t| + 2**-1022), t the keep-th lowest finite v'.  np.log1p is within 4 ulps of
# math.log1p and equal to it on subnormals (tests/test_arrays.py pins both over every
# argument _j can pass), so r' is within d r + 2**-1075 of r, d = 8 * 2**-52 +
# 2 * 2**-53 ~ 2.0e-15 to first order (Higham, Accuracy and Stability of Numerical
# Algorithms, 2002, ch. 3).  v rounds at its own ulp, which for c = 2 is 2's ulp
# however small r is, so |v' - v| <= e (c + |v|) + 2**-1075, e = d + 2 * 2**-53.  The
# exact keep-th lowest T is then at most t + e (c + |t|), and a pair left out has
# v > T whenever s >= 2e / (1 - e): it can enter neither the kept values nor their
# tie order.  A slack relative to r would miss the ceiling's witness where r is small
# and many pairs round to one margin.  s = 1e-12 leaves a factor 200.  The bound
# also needs both passes to score the same image gaps (so they are taken once) and to
# give NaN on the same pairs: np.log1p is 0 only at 0 and finite (also pinned), and a
# ratio that overflows in one pass only lies within d of the float max, far above what
# trusted images reach (2 up to rounding).
_LOG1P_SLACK = 1e-12


def _ranked_ratios(pz: _Points, pw: _Points, gap, keep, c):
    """_pair_ratios of the pairs, with math.log1p (guarded_ratio's bits) on every pair
    that can be among the `keep` lowest values of c - ratio or tie with them, and with
    np.log1p elsewhere (see _LOG1P_SLACK); returns the ratios and the index of the exact
    ones.  Call under np.errstate."""
    fgap = _image_gaps(pz, pw, gap)
    ratio = _pair_ratios(pz, pw, gap, fgap, np.log1p)
    v = c - ratio
    nan = np.isnan(v)
    finite = v[~nan] if nan.any() else v
    exact = np.arange(ratio.size)
    if finite.size > keep:
        t = np.partition(finite, keep - 1)[keep - 1]
        exact = np.flatnonzero(~(v > t + _LOG1P_SLACK * (c + abs(t) + 2.0**-1022)))
    ratio[exact] = _pair_ratios(pz.take(exact), pw.take(exact), gap[exact], fgap[exact], _log1p_exact)
    return ratio, exact


def guarded_ratio(
    src: PlanarDomain, dst: PlanarDomain, m: MapExpr, z: complex, w: complex
) -> float | None:
    """check_lipschitz_pair, or None when the evaluation is untrustworthy.

    None covers pole hits, coincident points, source points outside src,
    non-finite images or ratios, distances that overflow the float range,
    and image points whose computed boundary distance falls below the
    rounding trust floor.
    """
    try:
        fz, fw = apply(m, z), apply(m, w)
        trusted = _trusted(abs(fz), signed_boundary_offset(dst, fz)) and _trusted(
            abs(fw), signed_boundary_offset(dst, fw)
        )
        j_src = j_distance(src, z, w)
        if not trusted or j_src == 0.0:
            return None
        ratio = _image_j(dst, m, z, w, fz, fw) / j_src
    except (PoleEncountered, PointOutsideDomain, DomainError, OverflowError):  # abs(f) may overflow
        return None
    return ratio if math.isfinite(ratio) else None


def _exact_ratios(z, w, pz, pw, gap):
    """_pair_ratios with guarded_ratio's bits, as a score for _scored_pairs; call under np.errstate."""
    return _pair_ratios(pz, pw, gap, _image_gaps(pz, pw, gap), _log1p_exact)


def _pairs(domain: PlanarDomain, rng, n: int) -> tuple[CArr, CArr]:
    """n pairs at PAIR_MARGIN, z then w as two blocks; _scored_pairs skips coincident ones."""
    z = sample_interior_points(domain, rng, n, PAIR_MARGIN, HALFPLANE_SPAN)
    return z, sample_interior_points(domain, rng, n, PAIR_MARGIN, HALFPLANE_SPAN)


def _scored_pairs(z: CArr, w: CArr, pz: _Points, pw: _Points, score):
    """(score(z, w, pz, pw, gap) of the pairs (z[k], w[k]) of distinct points with usable images,
    NaN for the other pairs; gaps |z - w|), from the pairs and their per-point stages pz, pw
    (gathered to the pairs).  The one place a pair is admitted; call under np.errstate."""
    gap = abs(z - w)
    keep = (gap != 0.0) & pz.usable & pw.usable
    if keep.all():
        return score(z, w, pz, pw, gap), gap
    index = np.flatnonzero(keep)
    out = np.full(np.shape(z.real), math.nan)
    out[index] = score(z[index], w[index], pz.take(index), pw.take(index), gap[index])
    return out, gap


def _mapped_pairs(src: PlanarDomain, dst: PlanarDomain, m, z: CArr, w: CArr, score, **stage):
    """_scored_pairs' scores of the pairs (z[k], w[k]), z and w each mapped in a per-point stage
    (_point_stage, with the keywords in stage)."""
    with np.errstate(all="ignore"):
        pz, pw = _point_stage(src, dst, m, z, **stage), _point_stage(src, dst, m, w, **stage)
        return _scored_pairs(z, w, pz, pw, score)[0]


# ---------------------------------------------------------------------------
# Seeded map families: n maps drawn as parameter arrays, grouped by shape
# ---------------------------------------------------------------------------


def _halfplane_mobius(rng, n: int) -> Mobius:
    """Real coefficients in [-2, 2) with determinant >= 0.1: automorphisms of
    the upper half-plane.  Each round redraws the maps still below 0.1."""
    coeffs, todo = np.empty((4, n)), np.arange(n)
    for _ in range(REJECTION_TRIES):
        coeffs[:, todo] = a, b, c, d = -2.0 + 4.0 * rng.random((4, todo.size))
        todo = todo[a * d - b * c < 0.1]
        if not todo.size:
            return Mobius.of_arrays(*coeffs)
    raise DomainError(f"no half-plane Moebius map with determinant >= 0.1 in {REJECTION_TRIES} rounds")


def _extremal(rng, n: int) -> Extremal:
    return Extremal.of_arrays(*(-3.0 + 6.0 * rng.random((2, n))))


def _blaschke(zeros: int, rng, n: int) -> Blaschke:
    """Blaschke products with `zeros` zeros of modulus below 0.95."""
    rho, phi = 0.95 * np.sqrt(rng.random((zeros, n))), 2.0 * math.pi * rng.random((zeros, n))
    points = tuple(map(CArr, rho * np.cos(phi), rho * np.sin(phi)))  # one row per zero
    return Blaschke.of_arrays(2.0 * math.pi * rng.random(n), points)


def _grouped(rng, shape, drawers) -> MapBatch:
    """Sample k's map drawn by drawers[shape[k]]; each drawer draws its maps at once, in drawer order."""
    groups = [(np.flatnonzero(shape == s), draw) for s, draw in enumerate(drawers)]
    return MapBatch(tuple((index, draw(rng, index.size)) for index, draw in groups if index.size))


def _compositions(atoms):
    """Drawer of compositions outer o inner, each picked from `atoms` by a uniform.
    Outer and inner maps are batches of their own, so each atom runs once per pass."""

    def draw(rng, n: int) -> Compose:
        picks = (len(atoms) * rng.random((2, n))).astype(int)
        return Compose.of_arrays(*(_grouped(rng, pick, atoms) for pick in picks))

    return draw


_HALF_ATOMS = (_halfplane_mobius, _extremal)
_BLASCHKE = tuple(functools.partial(_blaschke, zeros) for zeros in (1, 2, 3, 4))
_HALF_SHAPES = _HALF_ATOMS + (_compositions(_HALF_ATOMS),)
_DISK_SHAPES = _BLASCHKE + (_compositions(_BLASCHKE[:2]),)


def _halfplane_maps(rng, n: int) -> MapBatch:
    """35% Moebius automorphisms, 35% extremal maps, 30% compositions of two of either."""
    u = rng.random(n)
    return _grouped(rng, np.where(u < 0.35, 0, np.where(u < 0.7, 1, 2)), _HALF_SHAPES)


def _halfplane_automorphisms(rng, n: int) -> MapBatch:
    return _grouped(rng, np.zeros(n, int), _HALF_ATOMS[:1])


def _blaschke_maps(rng, n: int) -> MapBatch:
    """Blaschke products with 1 to 4 zeros, equally likely."""
    return _grouped(rng, (4.0 * rng.random(n)).astype(int), _BLASCHKE)


def _disk_automorphisms(rng, n: int) -> MapBatch:
    return _grouped(rng, np.zeros(n, int), _BLASCHKE[:1])


def _disk_maps(rng, n: int) -> MapBatch:
    """70% as _blaschke_maps, 30% compositions of two products with 1 or 2 zeros each."""
    u = rng.random((2, n))
    return _grouped(rng, np.where(u[0] < 0.7, (4.0 * u[1]).astype(int), 4), _DISK_SHAPES)


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


def _first_worst(chunks):
    """Fold (worst, witness, skipped) triples in order; the first of equal margins wins."""
    worst, witness, skipped = math.inf, {}, 0
    for margin, wit, skip in chunks:
        skipped += skip
        if margin < worst:
            worst, witness = margin, wit
    return worst, witness, skipped


def _report(suite, samples, seed, chunks, tolerance, convention) -> CheckReport:
    worst, witness, skipped = _first_worst(chunks)
    passed = skipped < samples and worst >= -tolerance
    return CheckReport(suite, samples, seed, passed, worst, witness, convention, skipped)


# Witness formatter by key: maps and domains print in grammar form, c and X
# stay floats, and every other key holds a complex point.
_WITNESS_FORMAT = {"map": format_map, "src": format_domain, "dst": format_domain, "c": float, "X": float}


def _witness(keys, values) -> dict:
    return {key: _WITNESS_FORMAT.get(key, format_complex)(value) for key, value in zip(keys, values)}


def _fold(margins, keys, values):
    """(worst margin, its witness, skip count) of one chunk's margins, NaN marking
    a skip; only the worst sample's values(k) are formatted."""
    scored = ~np.isnan(margins)
    k = int(np.argmin(np.where(scored, margins, math.inf)))  # the first of equal margins, as with <
    skipped = margins.size - int(np.count_nonzero(scored))
    if margins[k] < math.inf:
        return float(margins[k]), _witness(keys, values(k)), skipped
    return math.inf, {}, skipped


def _suite_chunk(name, seed, index, count):
    """Worst margin, its witness and the skip count of chunk `index` of suite row `name`."""
    trial, keys, _, _ = _ROWS[name]
    margins, values = trial(substream(seed, index), count)
    return _fold(margins, keys, values)


def _run_chunked(name, samples, seed, threads) -> CheckReport:
    check_integer("samples", samples, 1, _SAMPLES_MAX)
    check_integer("seed", seed, 0)
    _, _, tolerance, convention = _ROWS[name]
    full, rest = divmod(samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rest] if rest else [])
    tasks = [(name, seed, index, size) for index, size in enumerate(sizes)]
    return _report(name, samples, seed, run_ordered(_suite_chunk, tasks, threads), tolerance, convention)


def _identity_trial(margin):
    """Two points per sample, uniform on the square [-8, 8)^2."""

    def trial(rng, n):
        v = -8.0 + 16.0 * rng.random((4, n))
        x, y = CArr(v[0], v[1]), CArr(v[2], v[3])
        return margin(x, y), lambda k: (x.at(k), y.at(k))

    return trial


def _identity_halfplane_margin(x, y):
    return -abs(check_identity_halfplane(x, y)) / (1.0 + _sq(abs(x)) + _sq(abs(y)))


def _identity_disk_margin(x, y):
    return -abs(check_identity_disk(x, y)) / ((1.0 + _sq(abs(x))) * (1.0 + _sq(abs(y))))


def _images_trial(domain, family, score):
    """A map from `family` and a pair per sample, scored on their trusted images."""

    def trial(rng, n):
        m = family(rng, n)
        z, w = _pairs(domain, rng, n)
        margins = _mapped_pairs(domain, domain, m, z, w, lambda z, w, pz, pw, gap: score(z, w, pz.f, pw.f), gaps=False)
        return margins, lambda k: (m[k], z.at(k), w.at(k))

    return trial


def _trial_bound_2_3(rng, n):
    m = _disk_maps(rng, n)
    z = sample_interior_points(_DISK, rng, n, PAIR_MARGIN)
    margins = np.full(n, math.nan)
    with np.errstate(all="ignore"):
        f0, bad_0 = apply_arrays(m, CArr(np.zeros(n), np.zeros(n)))
        fz, bad_z = apply_arrays(m, z)
        keep = np.flatnonzero(~(bad_0 | bad_z) & (abs(f0) < 1.0))  # where check_bound_2_3 does not raise
        margins[keep] = image_modulus_bound(abs(f0[keep]), abs(z[keep])) - abs(fz[keep])
    return margins, lambda k: (m[k], z.at(k))


def _trial_g_negativity(rng, n):
    a_mod, r = 0.999 * rng.random((2, n))
    c = (1.0 + a_mod) / (2.0 * (1.0 + a_mod * r))
    with np.errstate(divide="ignore"):  # a_mod = 0 has no threshold, and the cap holds
        cap = np.minimum(_threshold(a_mod, r), 1e6)
    x, todo = np.empty(n), np.arange(n)
    for _ in range(REJECTION_TRIES):
        x[todo] = cap[todo] * rng.random(todo.size)
        todo = todo[x[todo] <= 0.0]
        if not todo.size:
            return -_g(c, x), lambda k: (float(c[k]), float(x[k]))
    raise DomainError(f"no positive X below the cap in {REJECTION_TRIES} rounds")


def _trial_lipschitz_pair(rng, n):
    """A half-plane or a disk self-map and pair per sample, scored as 2 - guarded ratio."""
    on_half = rng.random(n) < 0.5
    margins, parts = np.empty(n), []
    for src, family, index in ((_HALF, _halfplane_maps, on_half), (_DISK, _disk_maps, ~on_half)):
        index = np.flatnonzero(index)
        m = family(rng, index.size)
        z, w = _pairs(src, rng, index.size)
        ratio = _mapped_pairs(src, src, m, z, w, _exact_ratios)
        margins[index] = 2.0 - ratio
        parts.append((src, m, z, w))

    def values(k):
        src, m, z, w = parts[0 if on_half[k] else 1]
        pos = int(np.count_nonzero(on_half[:k] == on_half[k]))
        return m[pos], src, src, z.at(pos), w.at(pos)

    return margins, values


_IMAGE = ("map", "z", "w")
_PAIR = ("map", "src", "dst", "z", "w")
_SP_HALF = functools.partial(_sp_margin, pseudo_hyperbolic_halfplane, _HALF)
_SP_DISK = functools.partial(_sp_margin, pseudo_hyperbolic_disk, _DISK)
_EQ_HALF = functools.partial(_sp_equality, pseudo_hyperbolic_halfplane, _HALF)
_EQ_DISK = functools.partial(_sp_equality, pseudo_hyperbolic_disk, _DISK)
_STEP_1_2 = functools.partial(_relative_slack, _step_1_2_sides)
_STEP_2_2 = functools.partial(_relative_slack, _step_2_2_sides)

# name: (trial, witness keys, tolerance, margin convention).  The -equality rows
# are the automorphism-only Schwarz-Pick runs, scoring -|margin|.
_ROWS = {
    "identity-halfplane": (_identity_trial(_identity_halfplane_margin), ("x", "y"), 1e-10, "absolute"),
    "identity-disk": (_identity_trial(_identity_disk_margin), ("x", "y"), 1e-10, "absolute"),
    "schwarz-pick-halfplane": (_images_trial(_HALF, _halfplane_maps, _SP_HALF), _IMAGE, 1e-12, "rounding-scaled"),
    "schwarz-pick-disk": (_images_trial(_DISK, _disk_maps, _SP_DISK), _IMAGE, 1e-12, "rounding-scaled"),
    "step-1-2": (_images_trial(_HALF, _halfplane_maps, _STEP_1_2), _IMAGE, 1e-10, "relative"),
    "step-2-2": (_images_trial(_DISK, _disk_maps, _STEP_2_2), _IMAGE, 1e-10, "relative"),
    "bound-2-3": (_trial_bound_2_3, ("map", "z"), 1e-10, "absolute"),
    "g-negativity": (_trial_g_negativity, ("c", "X"), 1e-12, "absolute"),
    "lipschitz-pair": (_trial_lipschitz_pair, _PAIR, 1e-9, "absolute"),
    "schwarz-pick-halfplane-equality": (
        _images_trial(_HALF, _halfplane_automorphisms, _EQ_HALF), _IMAGE, 1e-12, "rounding-scaled"
    ),
    "schwarz-pick-disk-equality": (
        _images_trial(_DISK, _disk_automorphisms, _EQ_DISK), _IMAGE, 1e-12, "rounding-scaled"
    ),
}

SUITE_NAMES = tuple(name for name in _ROWS if not name.endswith("-equality"))


def run_suite(name: str, samples: int = 10_000, seed: int = 0, threads: int = 1) -> CheckReport:
    """Run one named suite; see SUITE_NAMES for the catalog."""
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _run_chunked(name, samples, seed, threads)


def run_all_suites(samples: int = 10_000, seed: int = 0, threads: int = 1) -> list[CheckReport]:
    return [run_suite(name, samples, seed, threads) for name in SUITE_NAMES]


def run_schwarz_pick_equality(
    kind: str, samples: int = 10_000, seed: int = 0, threads: int = 1
) -> CheckReport:
    """Automorphism-only Schwarz-Pick run scoring -|margin|: passing means the
    contraction is an equality to within 1e-12 of its rounding scale on every draw."""
    if kind not in ("halfplane", "disk"):
        raise DomainError(f"kind must be 'halfplane' or 'disk', got {kind!r}")
    return _run_chunked(f"schwarz-pick-{kind}-equality", samples, seed, threads)


# ---------------------------------------------------------------------------
# Distortion ceiling harnesses (one chunk per map)
# ---------------------------------------------------------------------------

_CAYLEY = Mobius(1.0, -1j, 1.0, 1j)
_CEILING_KINDS = ("halfplane", "disk", "mobius-images")
# Uniforms of one _random_image_source_and_mobius try: the pick, up to three
# for the source and eight for the coefficients.
_IMAGE_DRAWS = 12


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


def _ceiling_block(src, dst, m, rng, count):
    z, w = _pairs(src, rng, count)
    ratio = _mapped_pairs(src, dst, m, z, w, lambda z, w, pz, pw, gap: _ranked_ratios(pz, pw, gap, 1, 2.0)[0])
    return _fold(2.0 - ratio, _PAIR, lambda k: (m, src, dst, z.at(k), w.at(k)))


def _ceiling_chunk(kind, seed, index, pairs):
    """One map's pairs, drawn from the chunk's generator after the map and
    scored in blocks of _CHUNK; each block's worst margin, witness and skip
    count are bit for bit what guarded_ratio gives (see _LOG1P_SLACK)."""
    rng = substream(seed, index)
    if kind == "halfplane":
        src, dst, m = _HALF, _HALF, _halfplane_maps(rng, 1)[0]
    elif kind == "disk":
        src, dst, m = _DISK, _DISK, _blaschke_maps(rng, 1)[0]
    else:  # "mobius-images"; lipschitz_ceiling checks the kind on entry
        src, m = (_HALF, _CAYLEY) if index == 0 else _random_image_source_and_mobius(Uniforms(rng, _IMAGE_DRAWS))
        dst = mobius_image_domain(m, src)
    counts = [min(_CHUNK, pairs - start) for start in range(0, pairs, _CHUNK)]
    return _first_worst(_ceiling_block(src, dst, m, rng, count) for count in counts)


def lipschitz_ceiling(
    kind: str, maps: int = 200, pairs_per_map: int = 10_000, seed: int = 0, threads: int = 1
) -> CheckReport:
    """Distortion ceiling sweep: `maps` seeded maps, `pairs_per_map` pairs
    each, scored as 2 - ratio with tolerance 1e-9.

    kind: "halfplane" (self-maps of H), "disk" (Blaschke products on D), or
    "mobius-images" (map 0 is the Cayley map onto the unit disk, the rest are
    seeded Moebius maps evaluated against their computed image domains).
    """
    check_integer("maps", maps, 1)
    check_integer("pairs_per_map", pairs_per_map, 1)
    check_integer("seed", seed, 0)
    if maps * pairs_per_map > _SAMPLES_MAX:
        raise DomainError(f"maps, pairs_per_map must be >= 1, product <= {_SAMPLES_MAX}: {maps!r}, {pairs_per_map!r}")
    if kind not in _CEILING_KINDS:
        raise DomainError(f"unknown ceiling kind {kind!r}; choose from {', '.join(_CEILING_KINDS)}")
    tasks = [(kind, seed, index, pairs_per_map) for index in range(maps)]
    chunks = run_ordered(_ceiling_chunk, tasks, threads)
    return _report(f"lipschitz-ceiling-{kind}", maps * pairs_per_map, seed, chunks, 1e-9, "absolute")
