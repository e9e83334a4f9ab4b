"""Holomorphic map family: Moebius maps, finite Blaschke products, the
rational family a - 1/(b+z), and structural compositions.

Moebius coefficients are never normalized; all equality-of-action questions
are answered pointwise, since (a,b,c,d) is only defined up to a scalar.
Pure Moebius chains collapse through the coefficient matrix product, while
compositions involving other variants stay structural.
"""

from __future__ import annotations

import cmath
import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    Disk,
    HalfPlane,
    PlanarDomain,
    UnitDisk,
    UpperHalfPlane,
    CArr,
    _require_finite,
    signed_boundary_offset,
)
from .errors import DomainError, PoleEncountered, UnsupportedImage, check_integer
from .sampling import sample_interior_points, substream

__all__ = [
    "MapExpr",
    "MapBatch",
    "Mobius",
    "Blaschke",
    "Extremal",
    "Compose",
    "apply",
    "apply_arrays",
    "derivative",
    "compose_maps",
    "mobius_compose",
    "mobius_inverse",
    "mobius_image_domain",
    "is_self_map_sampled",
    "maps_into_sampled",
    "image_modulus_bound",
]

_log = logging.getLogger(__name__)

# Denominators below this magnitude count as pole hits; far below any value
# a search region can produce, so only true poles trigger it.
POLE_FLOOR = 1e-300

# Below this, max(|Re den|, |Im den|) leaves |den| finite: sqrt(2) * max / 2 < max.
_HYPOT_SAFE = np.finfo(float).max / 2

MOBIUS_DEGENERACY_TOL = 1e-12
BLASCHKE_ZERO_BOUND = 1.0 - 1e-12

# Pole-to-boundary offsets at or below this (but nonzero) make the image
# boundary numerically indistinguishable from a line.
IMAGE_AMBIGUITY_TOL = 1e-12


@dataclass(frozen=True)
class MapExpr:
    """Base tag for the map variants below."""

    @classmethod
    def of_arrays(cls, *params):
        """Many maps of this variant in one, each parameter an array over the maps (a
        CArr if complex), for apply_arrays; the values are not checked."""
        m = object.__new__(cls)
        for f, value in zip(dataclasses.fields(cls), params):
            object.__setattr__(m, f.name, value)
        return m

    def at(self, k: int) -> MapExpr:
        """Map k of maps made by of_arrays, checked; a parameter that is no array is shared."""

        def pick(value):
            if isinstance(value, tuple):
                return tuple(map(pick, value))
            if isinstance(value, (MapExpr, CArr)):
                return value.at(k)
            if isinstance(value, MapBatch):
                return value[k]
            return float(value[k]) if isinstance(value, np.ndarray) else value

        return type(self)(*(pick(getattr(self, f.name)) for f in dataclasses.fields(self)))


@dataclass(frozen=True)
class Mobius(MapExpr):
    """z -> (a z + b) / (c z + d), with ad - bc away from zero."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), f"Mobius.{name}"))
        try:
            size = abs(self.determinant())
        except OverflowError:  # a determinant past the float range is far from degenerate
            size = math.inf
        if size <= MOBIUS_DEGENERACY_TOL:
            raise DomainError(f"degenerate Mobius map, |ad - bc| = {size!r}")

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


@dataclass(frozen=True)
class Blaschke(MapExpr):
    """z -> e^(i rotation) * prod_k (z - a_k) / (1 - conj(a_k) z), |a_k| < 1.

    An empty zeros tuple is the degree-0 product, i.e. the boundary constant
    e^(i rotation); it is representable but is not an open-disk self-map.
    """

    rotation: float
    zeros: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "rotation", _require_finite(self.rotation, "Blaschke.rotation", float))
        zeros = tuple(_require_finite(z, "Blaschke zero") for z in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        for z in zeros:
            if abs(z) > BLASCHKE_ZERO_BOUND:
                raise DomainError(f"Blaschke zero must satisfy |a| <= {BLASCHKE_ZERO_BOUND}, got {z!r}")


@dataclass(frozen=True)
class Extremal(MapExpr):
    """z -> a - 1/(b + z) with real a, b; a half-plane self-map for all a, b."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _require_finite(self.a, "Extremal.a", float))
        object.__setattr__(self, "b", _require_finite(self.b, "Extremal.b", float))


@dataclass(frozen=True)
class Compose(MapExpr):
    """outer after inner: z -> outer(inner(z))."""

    outer: MapExpr
    inner: MapExpr

    def __post_init__(self):
        if not isinstance(self.outer, MapExpr) or not isinstance(self.inner, MapExpr):
            raise TypeError("Compose takes two MapExpr values")


@dataclass(frozen=True)
class MapBatch:
    """One map per sample, as groups (increasing sample indices, maps made by
    MapExpr.of_arrays over those samples, whose parameters may be batches)."""

    groups: tuple

    def __getitem__(self, k: int) -> MapExpr:
        for index, m in self.groups:
            pos = int(np.searchsorted(index, k))
            if pos < index.size and index[pos] == k:
                return m.at(pos)
        raise IndexError(f"no sample {k!r} in the batch")


def _turn(rotation):
    """e^(i rotation) as cmath.exp gives it, for a float or an array of floats: the
    libm cos and sin of rotation + 0.0 (the imaginary part of 1j * rotation)."""
    if isinstance(rotation, np.ndarray):
        t = (rotation + 0.0).tolist()
        return CArr(np.fromiter(map(math.cos, t), float, len(t)), np.fromiter(map(math.sin, t), float, len(t)))
    return cmath.exp(1j * rotation)


def _value(m: MapExpr, z, guard):
    """m at z, a complex or a CArr of points (then m's parameters may be arrays).  guard(den,
    pole name, z) sees each denominator before it divides: apply's raises, apply_arrays' marks."""
    if isinstance(m, Mobius):
        den = m.c * z + m.d
        guard(den, "Mobius pole", z)
        return (m.a * z + m.b) / den
    if isinstance(m, Blaschke):
        w = _turn(m.rotation)
        for a in m.zeros:
            den = 1.0 - a.conjugate() * z
            guard(den, "Blaschke pole", z)
            w *= (z - a) / den
        return w
    if isinstance(m, Extremal):
        den = m.b + z
        guard(den, "pole of a - 1/(b+z)", z)
        return m.a - 1.0 / den
    if isinstance(m, Compose):
        return _value(m.outer, _value(m.inner, z, guard), guard)
    raise TypeError(f"not a map expression: {m!r}")


def _slope(m: MapExpr, z, guard):
    """m' at z by the closed forms and the chain rule; z and guard as for _value."""
    if isinstance(m, Blaschke):
        # The product rule one factor at a time; safe at the zeros of the product itself.
        value, slope = _turn(m.rotation), 0j
        for a in m.zeros:
            den = 1.0 - a.conjugate() * z
            guard(den, "Blaschke pole", z)
            factor = (z - a) / den
            slope = slope * factor + value * ((1.0 - abs(a) ** 2) / (den * den))
            value = value * factor
        return slope
    if isinstance(m, Compose):
        return _slope(m.outer, _value(m.inner, z, guard), guard) * _slope(m.inner, z, guard)
    if isinstance(m, Mobius):
        det, den, pole = m.determinant(), m.c * z + m.d, "Mobius pole"
    elif isinstance(m, Extremal):
        det, den, pole = 1.0, m.b + z, "pole of a - 1/(b+z)"
    else:
        raise TypeError(f"not a map expression: {m!r}")
    guard(den, pole, z)
    return det / (den * den)


def _raise_at_pole(den: complex, pole: str, z: complex):
    if abs(den) < POLE_FLOOR:
        raise PoleEncountered(f"{pole} at {z!r}")


def _at_point(formula, m: MapExpr, z: complex, verb: str) -> complex:
    """formula (_value or _slope) of m at the point z, raising where apply and derivative do."""
    # abs() of a complex with a NaN part can raise an OverflowError left over from an
    # earlier libm call, so a non-finite point is refused before any arithmetic.
    if not cmath.isfinite(z):
        raise DomainError(f"cannot {verb} a map at the non-finite point {z!r}")
    try:
        out = formula(m, z, _raise_at_pole)
    except (OverflowError, ZeroDivisionError):  # abs() past ~1.3e308 per coordinate, or den * den underflowing
        out = complex(math.nan, math.nan)
    if not cmath.isfinite(out):
        raise DomainError(f"cannot {verb} the map at {z!r}: the result leaves the float range")
    return out


def apply(m: MapExpr, z: complex) -> complex:
    """Evaluate the map at z; PoleEncountered on denominators below 1e-300, DomainError
    on a non-finite z, or on a denominator or a value past the float range."""
    return _at_point(_value, m, z, "evaluate")


def _on_arrays(formula, m: MapExpr, z: CArr) -> tuple[CArr, np.ndarray]:
    """formula (_value or _slope) of m at every point of z, as (values, bad); bad marks where
    the scalar call (apply or derivative) raises, and the values there are meaningless."""
    bad = ~(np.isfinite(z.real) & np.isfinite(z.imag))

    def mark(den, pole, at):
        # top <= |den| <= sqrt(2) top (tests/test_arrays.py pins it for np.hypot), so a
        # den with top in [POLE_FLOOR, _HYPOT_SAFE] is neither a pole hit nor an overflow.
        top = np.maximum(abs(den.real), abs(den.imag))
        sure = (top >= POLE_FLOOR) & (top <= _HYPOT_SAFE)
        if not sure.all():
            odd = np.broadcast_to(~sure, bad.shape)  # a complex den, from a constant inner map, is every point's
            x, y = np.broadcast_to(den.real, bad.shape)[odd], np.broadcast_to(den.imag, bad.shape)[odd]
            size = np.hypot(x, y)  # abs() raises where this overflows on finite parts
            bad[odd] |= (size < POLE_FLOOR) | (np.isinf(size) & np.isfinite(x) & np.isfinite(y))

    with np.errstate(all="ignore"):
        try:
            f = formula(m, z, mark)
        except ZeroDivisionError:  # a constant inner map sits on the outer map's pole: every point is bad
            f = complex(math.nan, math.nan)
    bad |= ~(np.isfinite(f.real) & np.isfinite(f.imag))
    if isinstance(f, CArr) and f.real.shape == bad.shape:
        return f, bad
    # A degree-0 Blaschke product, alone or outermost, is one complex for every point.
    return CArr(np.broadcast_to(f.real, bad.shape), np.broadcast_to(f.imag, bad.shape)), bad


def apply_arrays(m: MapExpr | MapBatch, z: CArr) -> tuple[CArr, np.ndarray]:
    """apply at every point of z, as (f, bad); a MapBatch applies map k at z[k].

    bad marks the points where apply raises; their values in f are meaningless.  A
    composition of two batches runs in two passes, and bad also marks where its
    inner value is not finite (where the outer map is evaluated at inf or NaN).
    """
    if isinstance(m, MapBatch):
        f, bad = CArr(np.empty(z.real.shape), np.empty(z.real.shape)), np.empty(z.real.shape, bool)
        for index, part in m.groups:
            f[index], bad[index] = apply_arrays(part, z[index])
        return f, bad
    if isinstance(m, Compose) and isinstance(m.inner, MapBatch):
        inner, bad = apply_arrays(m.inner, z)
        f, outer_bad = apply_arrays(m.outer, inner)
        return f, bad | outer_bad
    return _on_arrays(_value, m, z)


def derivative(m: MapExpr, z: complex) -> complex:
    """Complex derivative at z via the closed forms and the chain rule;
    PoleEncountered and DomainError as for apply."""
    return _at_point(_slope, m, z, "differentiate")


def mobius_compose(first: Mobius, second: Mobius) -> Mobius:
    """Coefficient-matrix product: (first o second)(z) = first(second(z))."""
    return Mobius(
        first.a * second.a + first.b * second.c,
        first.a * second.b + first.b * second.d,
        first.c * second.a + first.d * second.c,
        first.c * second.b + first.d * second.d,
    )


def mobius_inverse(m: Mobius) -> Mobius:
    """Pointwise inverse (d, -b, -c, a); determinant is unchanged."""
    return Mobius(m.d, -m.b, -m.c, m.a)


def compose_maps(outer: MapExpr, inner: MapExpr) -> MapExpr:
    """outer after inner, collapsing pure Moebius chains to one matrix
    product so they stay O(1); anything else builds a structural node."""
    if isinstance(outer, Mobius) and isinstance(inner, Mobius):
        return mobius_compose(outer, inner)
    return Compose(outer, inner)


def image_modulus_bound(a_mod: float, r: float) -> float:
    """(r + a_mod) / (1 + a_mod * r): modulus ceiling for a disk self-map
    with |f(0)| = a_mod evaluated at |z| <= r (a_mod, r floats or arrays)."""
    if not np.all((0.0 <= a_mod) & (a_mod < 1.0) & (0.0 <= r) & (r < 1.0)):
        raise DomainError(f"image_modulus_bound needs arguments in [0, 1), got {a_mod!r}, {r!r}")
    return (r + a_mod) / (1.0 + a_mod * r)


def maps_into_sampled(m: MapExpr, src: PlanarDomain, dst: PlanarDomain, n: int, seed: int) -> bool:
    """Sampled certification that m sends n seeded interior points of src
    into dst.  A certification aid, not a proof; pole hits count as failure
    and are logged when the first failing point is one."""
    check_integer("n", n, 1)
    z = sample_interior_points(src, substream(seed, 0), n, margin=1e-6)
    f, bad = apply_arrays(m, z)
    with np.errstate(all="ignore"):  # contains() for every image; a bad one is never inside
        inside = ~bad & (signed_boundary_offset(dst, f) > 0.0)
    if inside.all():
        return True
    first = int(np.argmin(inside))
    if bad[first]:
        try:
            # bad marks where apply raises: a pole, or a DomainError that propagates as before
            apply(m, complex(z.real[first], z.imag[first]))
        except PoleEncountered as exc:
            _log.warning("certification of %r hit a pole: %s", m, exc)
    return False


def is_self_map_sampled(m: MapExpr, domain: PlanarDomain, n: int, seed: int) -> bool:
    """Sampled certification that m maps the domain into itself."""
    return maps_into_sampled(m, domain, domain, n, seed)


# ---------------------------------------------------------------------------
# Moebius images of generalized disks
# ---------------------------------------------------------------------------


def _canonical_disk(center: complex, radius: float) -> PlanarDomain:
    if center == 0j and radius == 1.0:
        return UnitDisk()
    return Disk(center, radius)


def _canonical_halfplane(normal: complex, offset: float) -> PlanarDomain:
    if normal == 1j and offset == 0.0:
        return UpperHalfPlane()
    return HalfPlane(normal, offset)


def mobius_image_domain(m: Mobius, domain: PlanarDomain) -> PlanarDomain:
    """Exact image of a disk or half-plane under a Moebius map.

    The source is {Q(z) < 0} with Q(z) = A|z|^2 + 2 Re(conj(B) z) + C and
    s = sqrt(|B|^2 - AC); substituting z = (dw - b)/(a - cw) gives the image's
    form (A', B', C') with |B'|^2 - A'C' = |ad - bc|^2 s^2 (Schwerdtfeger,
    Geometry of Complex Numbers, ch. I), so the image is the disk of center
    -B'/A' and radius |ad - bc| s / A'.  A' = |c|^2 Q(-d/c) is 0 exactly when
    the pole lies on the source boundary, and the image is then a half-plane;
    a pole within 1e-12 of the boundary is ambiguous and raises
    UnsupportedImage, as does a pole strictly inside the source (the image
    would be a circle exterior) and a form past the float range or so small
    that it underflows to 0.

    The image depends only on the ratios of a, b, c, d, and A', B', C' and
    ad - bc are homogeneous of degree 2 in them, so the four are first scaled
    by the power of 2 that brings their largest component into [1/2, 1): that
    changes no bit of an image (unless a product underflows) and keeps the
    squares of huge coefficients in range.
    """
    if not isinstance(m, Mobius):
        raise TypeError("mobius_image_domain needs a plain Mobius map")
    try:
        return _mobius_image(m, domain)
    except (OverflowError, ZeroDivisionError) as exc:  # float ** and abs() past the range, or a form underflowing to 0
        raise UnsupportedImage(f"the image of {domain!r} has a form past the float range or underflowing to 0") from exc


def _mobius_image(m: Mobius, domain: PlanarDomain) -> PlanarDomain:
    if isinstance(domain, (UnitDisk, Disk)):
        center, s = domain.center, domain.radius
        A, B, C = 1.0, -center, abs(center) ** 2 - s * s
    elif isinstance(domain, (UpperHalfPlane, HalfPlane)):
        normal, offset = (1j, 0.0) if isinstance(domain, UpperHalfPlane) else (domain.normal, domain.offset)
        A, B, C, s = 0.0, -normal / 2.0, offset, abs(normal) / 2.0
    else:
        raise TypeError(f"not a planar domain: {domain!r}")
    a, b, c, d = m.a, m.b, m.c, m.d

    sigma = -math.inf if c == 0 else signed_boundary_offset(domain, -d / c)
    if sigma > 0.0:
        raise UnsupportedImage("pole lies inside the source domain; the image is a circle exterior")
    if sigma != 0.0 and -sigma <= IMAGE_AMBIGUITY_TOL:
        raise UnsupportedImage(
            f"pole within {IMAGE_AMBIGUITY_TOL} of the source boundary; image shape is ambiguous"
        )
    k = 2.0 ** -math.frexp(max(abs(v) for x in (a, b, c, d) for v in (x.real, x.imag)))[1]
    a, b, c, d = (complex(x.real * k, x.imag * k) for x in (a, b, c, d))
    if math.isinf(sigma):  # no pole, or one past the float range: the map is affine
        A2 = A * abs(d) ** 2
    else:  # |c|^2 Q(-d/c) = -|c| sigma |c| (2s - sigma) on a disk, grouped so that neither factor underflows
        A2 = -(abs(c) * sigma) * (abs(c) * (2.0 * s - sigma) if A else abs(c))
    B2 = (
        B.conjugate() * d * a.conjugate() + B * b.conjugate() * c - A * b.conjugate() * d - C * a.conjugate() * c
    ).conjugate()
    if A2 == 0.0:
        C2 = A * abs(b) ** 2 + C * abs(a) ** 2 - 2.0 * (B.conjugate() * b * a.conjugate()).real
        size = abs(B2)
        return _canonical_halfplane(-B2 / size, C2 / (2.0 * size))
    return _canonical_disk(-B2 / A2, abs(a * d - b * c) * s / A2)
