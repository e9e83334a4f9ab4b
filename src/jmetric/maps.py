"""Holomorphic map family: Moebius maps, finite Blaschke products, the
rational family a - 1/(b+z), and structural compositions.

Moebius coefficients are never normalized; all equality-of-action questions
are answered pointwise, since (a,b,c,d) is only defined up to a scalar.
Pure Moebius chains collapse through the coefficient matrix product, while
compositions involving other variants stay structural.
"""

from __future__ import annotations

import cmath
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
    halfplane_frame,
    signed_boundary_offset,
)
from .errors import DomainError, PoleEncountered, UnsupportedImage
from .sampling import sample_interior_points, substream

__all__ = [
    "MapExpr",
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

MOBIUS_DEGENERACY_TOL = 1e-12
BLASCHKE_ZERO_BOUND = 1.0 - 1e-12

# Pole-to-boundary offsets at or below this (but nonzero) make the image
# boundary numerically indistinguishable from a line.
IMAGE_AMBIGUITY_TOL = 1e-12


@dataclass(frozen=True)
class MapExpr:
    """Base tag for the map variants below."""


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


def _value(m: MapExpr, z, guard):
    """m at z, a complex or a CArr of points.  guard(den, pole name, z) sees each
    denominator before it divides: apply's raises, apply_arrays' records the points."""
    if isinstance(m, Mobius):
        den = m.c * z + m.d
        guard(den, "Mobius pole", z)
        return (m.a * z + m.b) / den
    if isinstance(m, Blaschke):
        w = cmath.exp(1j * m.rotation)
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


def _raise_at_pole(den: complex, pole: str, z: complex):
    if abs(den) < POLE_FLOOR:
        raise PoleEncountered(f"{pole} at {z!r}")


def apply(m: MapExpr, z: complex) -> complex:
    """Evaluate the map at z; PoleEncountered on denominators below 1e-300,
    DomainError on a non-finite z or a denominator whose modulus overflows the
    float range."""
    # abs() of a complex with a NaN part can raise an OverflowError left over from an
    # earlier libm call, so a non-finite point is refused before any arithmetic.
    if not cmath.isfinite(z):
        raise DomainError(f"cannot evaluate a map at the non-finite point {z!r}")
    try:
        return _value(m, z, _raise_at_pole)
    except OverflowError:  # abs() of a finite complex overflows past ~1.3e308 per coordinate
        raise DomainError(f"evaluating the map at {z!r} overflows the float range") from None


def apply_arrays(m: MapExpr, z: CArr) -> tuple[CArr, np.ndarray]:
    """apply at every point of z, as (f, bad).

    bad marks the points where apply raises; their values in f are meaningless.
    """
    bad = ~(np.isfinite(z.real) & np.isfinite(z.imag))

    def mark(den, pole, at):
        size = np.hypot(den.real, den.imag)  # abs() raises where this overflows on finite parts
        bad[...] |= (size < POLE_FLOOR) | (np.isinf(size) & np.isfinite(den.real) & np.isfinite(den.imag))

    with np.errstate(all="ignore"):
        try:
            f = _value(m, z, mark)
        except ZeroDivisionError:  # a constant inner map sits on the outer map's pole: every point is bad
            f = complex(math.nan, math.nan)
    # A degree-0 Blaschke product, alone or outermost, is one complex for every point.
    return CArr(np.broadcast_to(f.real, bad.shape), np.broadcast_to(f.imag, bad.shape)), bad


def derivative(m: MapExpr, z: complex) -> complex:
    """Complex derivative at z via the closed forms and the chain rule;
    PoleEncountered and DomainError as for apply."""
    if not cmath.isfinite(z):
        raise DomainError(f"cannot differentiate a map at the non-finite point {z!r}")
    try:
        if isinstance(m, Mobius):
            den = m.c * z + m.d
            _raise_at_pole(den, "Mobius pole", z)
            return m.determinant() / (den * den)
        if isinstance(m, Blaschke):
            # Full product rule; safe at the zeros of the product itself.
            factors = []
            dfactors = []
            for a in m.zeros:
                den = 1.0 - a.conjugate() * z
                _raise_at_pole(den, "Blaschke pole", z)
                factors.append((z - a) / den)
                dfactors.append((1.0 - abs(a) ** 2) / (den * den))
            total = 0j
            for k in range(len(factors)):
                term = dfactors[k]
                for j in range(len(factors)):
                    if j != k:
                        term *= factors[j]
                total += term
            return cmath.exp(1j * m.rotation) * total
        if isinstance(m, Extremal):
            den = m.b + z
            _raise_at_pole(den, "pole of a - 1/(b+z)", z)
            return 1.0 / (den * den)
        if isinstance(m, Compose):
            return derivative(m.outer, apply(m.inner, z)) * derivative(m.inner, z)
    except (OverflowError, ZeroDivisionError):  # abs() past ~1.3e308 per coordinate, or den * den underflowing
        raise DomainError(f"differentiating the map at {z!r} overflows the float range") from None
    raise TypeError(f"not a map expression: {m!r}")


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
    with |f(0)| = a_mod evaluated at |z| <= r."""
    if not (0.0 <= a_mod < 1.0) or not (0.0 <= r < 1.0):
        raise DomainError(f"image_modulus_bound needs arguments in [0, 1), got {a_mod!r}, {r!r}")
    return (r + a_mod) / (1.0 + a_mod * r)


def maps_into_sampled(m: MapExpr, src: PlanarDomain, dst: PlanarDomain, n: int, seed: int) -> bool:
    """Sampled certification that m sends n seeded interior points of src
    into dst.  A certification aid, not a proof; pole hits count as failure
    and are logged when the first failing point is one."""
    if n < 1:
        raise DomainError(f"need at least one sample point, got {n!r}")
    z = sample_interior_points(src, substream(seed, 0), n, margin=1e-6)
    f, bad = apply_arrays(m, z)
    with np.errstate(all="ignore"):  # contains() for every image; a bad one is never inside
        inside = ~bad & np.isfinite(f.real) & np.isfinite(f.imag) & (signed_boundary_offset(dst, f) > 0.0)
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


def _circumcircle(q1: complex, q2: complex, q3: complex) -> tuple[complex, float]:
    w1 = q2 - q1
    w2 = q3 - q1
    cross = w1.real * w2.imag - w1.imag * w2.real
    if cross == 0.0:
        raise UnsupportedImage("image boundary points are collinear; cannot fit a circle")
    n1 = w1.real * w1.real + w1.imag * w1.imag
    n2 = w2.real * w2.real + w2.imag * w2.imag
    x = (n1 * w2.imag - n2 * w1.imag) / (2.0 * cross)
    y = (n2 * w1.real - n1 * w2.real) / (2.0 * cross)
    center = q1 + complex(x, y)
    return center, abs(center - q1)


def _canonical_disk(center: complex, radius: float) -> PlanarDomain:
    if center == 0j and radius == 1.0:
        return UnitDisk()
    return Disk(center, radius)


def _canonical_halfplane(normal: complex, offset: float) -> PlanarDomain:
    if normal == 1j and offset == 0.0:
        return UpperHalfPlane()
    return HalfPlane(normal, offset)


def _line_through(q1: complex, q2: complex, witness: complex) -> PlanarDomain:
    """Half-plane bounded by the line q1-q2 that contains the witness point."""
    direction = q2 - q1
    length = abs(direction)
    if length == 0.0:
        raise UnsupportedImage("degenerate image line")
    normal = 1j * direction / length
    offset = q1.real * normal.real + q1.imag * normal.imag
    side = witness.real * normal.real + witness.imag * normal.imag - offset
    if side == 0.0:
        raise UnsupportedImage("orientation witness landed on the image boundary")
    if side < 0.0:
        normal = -normal
        offset = -offset
    return _canonical_halfplane(normal, offset)


def _disk_boundary_triple(domain: Disk | UnitDisk, avoid: complex | None) -> tuple[complex, complex, complex]:
    center, radius = domain.center, domain.radius
    for base in (0.0, 0.4, 0.9, 1.3):
        pts = tuple(center + radius * cmath.exp(1j * (base + k * 2.0 * math.pi / 3.0)) for k in range(3))
        if avoid is None or min(abs(p - avoid) for p in pts) >= 1e-3 * radius:
            return pts
    return pts


def mobius_image_domain(m: Mobius, domain: PlanarDomain) -> PlanarDomain:
    """Exact image of a disk or half-plane under a Moebius map.

    Determined from three boundary points plus one interior orientation
    witness.  The boundary's point at infinity (half-plane sources) maps to
    a/c, and a pole sitting exactly on the source boundary turns the image
    boundary into a line; a pole merely within 1e-12 of the boundary is
    ambiguous and raises UnsupportedImage, as does a pole strictly inside
    the source (the image would be a circle exterior).
    """
    if not isinstance(m, Mobius):
        raise TypeError("mobius_image_domain needs a plain Mobius map")
    is_disk = isinstance(domain, (UnitDisk, Disk))
    is_half = isinstance(domain, (UpperHalfPlane, HalfPlane))
    if not (is_disk or is_half):
        raise TypeError(f"not a planar domain: {domain!r}")

    if m.c == 0:
        # Affine map: no finite pole.  Disks map to disks with the same
        # center image; half-planes map to half-planes.
        if is_disk:
            return _canonical_disk(apply(m, domain.center), abs(m.a / m.d) * domain.radius)
        base, tangent, normal = halfplane_frame(domain)
        q1 = apply(m, base)
        q2 = apply(m, base + tangent)
        witness = apply(m, base + normal)
        return _line_through(q1, q2, witness)

    pole = -m.d / m.c
    sigma = signed_boundary_offset(domain, pole)

    if sigma > 0.0:
        raise UnsupportedImage("pole lies inside the source domain; the image is a circle exterior")
    if sigma != 0.0 and -sigma <= IMAGE_AMBIGUITY_TOL:
        raise UnsupportedImage(
            f"pole within {IMAGE_AMBIGUITY_TOL} of the source boundary; image shape is ambiguous"
        )

    if is_disk:
        center, radius = domain.center, domain.radius
        witness_src = center if abs(center - pole) >= POLE_FLOOR else center + 0.5 * radius
        witness = apply(m, witness_src)
        if sigma == 0.0:
            # Pole exactly on the circle: the image boundary is a line.  The
            # cardinal boundary points are exact floats, so classic cases
            # (e.g. unit disk onto the upper half-plane) stay exact.
            cardinals = [
                complex(center.real + radius, center.imag),
                complex(center.real, center.imag + radius),
                complex(center.real - radius, center.imag),
                complex(center.real, center.imag - radius),
            ]
            far = sorted(range(4), key=lambda k: (-abs(cardinals[k] - pole), k))
            q1 = apply(m, cardinals[far[0]])
            q2 = apply(m, cardinals[far[1]])
            return _line_through(q1, q2, witness)
        pts = _disk_boundary_triple(domain, pole)
        q1, q2, q3 = (apply(m, p) for p in pts)
        image_center, image_radius = _circumcircle(q1, q2, q3)
        if abs(witness - image_center) >= image_radius:
            raise UnsupportedImage("orientation witness fell outside the fitted image circle")
        return _canonical_disk(image_center, image_radius)

    base, tangent, normal = halfplane_frame(domain)
    witness = apply(m, base + normal) if abs(base + normal - pole) >= POLE_FLOOR else apply(m, base + 2 * normal)
    if sigma == 0.0:
        # Pole on the boundary line: line image; step away from the pole.
        tp = (pole - base).real * tangent.real + (pole - base).imag * tangent.imag
        q1 = apply(m, base + (tp + 1.0) * tangent)
        q2 = apply(m, base + (tp - 1.0) * tangent)
        return _line_through(q1, q2, witness)
    q1 = apply(m, base)
    q2 = apply(m, base + tangent)
    q3 = m.a / m.c  # image of the boundary line's point at infinity
    image_center, image_radius = _circumcircle(q1, q2, q3)
    if abs(witness - image_center) >= image_radius:
        raise UnsupportedImage("orientation witness fell outside the fitted image circle")
    return _canonical_disk(image_center, image_radius)
