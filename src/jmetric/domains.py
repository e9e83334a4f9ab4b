"""Planar domains and the distance ratio metric.

A domain is either a Euclidean disk or an (open) half-plane; the unit disk
and the upper half-plane keep dedicated tags so the common cases stay on
exact closed-form fast paths.  The distance ratio metric on a domain G is

    j(z, w) = log(1 + |z - w| / min(d(z, bd G), d(w, bd G))),

together with the two pseudo-hyperbolic distances contracted by holomorphic
self-maps of the disk and the half-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PointOutsideDomain

__all__ = [
    "PlanarDomain",
    "UnitDisk",
    "UpperHalfPlane",
    "Disk",
    "HalfPlane",
    "contains",
    "boundary_distance",
    "j_distance",
    "boundary_offsets",
    "j_distances",
    "pseudo_hyperbolic_disk",
    "pseudo_hyperbolic_halfplane",
]

NORMAL_UNIT_TOL = 1e-12


def _require_finite(value, label: str, kind=complex):
    """value converted by kind (complex or float); DomainError unless finite."""
    x = kind(value)
    if not cmath.isfinite(x):
        raise DomainError(f"{label} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class PlanarDomain:
    """Base tag for the domain variants below."""


@dataclass(frozen=True)
class UnitDisk(PlanarDomain):
    """Open unit disk |z| < 1."""

    # Class constants, not fields: every disk domain answers .center and .radius.
    center = 0j
    radius = 1.0


@dataclass(frozen=True)
class UpperHalfPlane(PlanarDomain):
    """Open upper half-plane Im z > 0."""


@dataclass(frozen=True)
class Disk(PlanarDomain):
    """Open disk |z - center| < radius."""

    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _require_finite(self.center, "disk center"))
        object.__setattr__(self, "radius", _require_finite(self.radius, "disk radius", float))
        if self.radius <= 0.0:
            raise DomainError(f"disk radius must be positive, got {self.radius!r}")


@dataclass(frozen=True)
class HalfPlane(PlanarDomain):
    """Open half-plane { z : <z, normal> > offset } with a unit inward normal.

    <z, n> is the real inner product z.real*n.real + z.imag*n.imag.
    """

    normal: complex
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", _require_finite(self.normal, "half-plane normal"))
        object.__setattr__(self, "offset", _require_finite(self.offset, "half-plane offset", float))
        if abs(abs(self.normal) - 1.0) > NORMAL_UNIT_TOL:
            raise DomainError(f"half-plane normal must be unit length, got |n| = {abs(self.normal)!r}")


def signed_boundary_offset(domain: PlanarDomain, z: complex) -> float:
    """Closed-form signed distance to the boundary, positive strictly inside.

    For disks this is radius - |z - center|, for half-planes <z, n> - offset;
    both are exact distances, so interiority is decided by the sign alone.
    A finite point too far from a disk for abs() to represent |z - center|
    gets -inf, the correctly rounded offset.
    """
    try:
        if isinstance(domain, UnitDisk):
            return 1.0 - abs(z)
        if isinstance(domain, UpperHalfPlane):
            return z.imag
        if isinstance(domain, Disk):
            return domain.radius - abs(z - domain.center)
        if isinstance(domain, HalfPlane):
            n = domain.normal
            return z.real * n.real + z.imag * n.imag - domain.offset
    except OverflowError:  # abs() of a finite complex overflows past ~1.3e308 per coordinate
        return -math.inf
    raise TypeError(f"not a planar domain: {domain!r}")


# A complex array is a pair of float64 arrays (re, im).  The primitives
# below repeat CPython's complex arithmetic (Objects/complexobject.c)
# operation for operation, so an array kernel built from them returns the
# bits of its scalar twin (tests/test_arrays.py holds them to that); numpy's
# complex dtype and np.log1p are not used, because their vectorized forms can
# round differently in the last bit.  A float operand of a complex operation
# is promoted to (x, 0.0), as CPython does: x + z is (x + re, 0.0 + im) and
# x - z is (x - re, 0.0 - im).


def _c_prod(ar, ai, br, bi):
    """_Py_c_prod: a * b."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi):
    """_Py_c_quot (Smith's algorithm): divide through by the part of b with
    the larger modulus, then by denom.  NaN where b is 0 (CPython raises
    ZeroDivisionError) or has a NaN part."""
    by_re = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_re, bi / br, br / bi)
    denom = np.where(by_re, br + bi * ratio, br * ratio + bi)
    re = np.where(by_re, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_re, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _c_abs(re, im):
    """(abs(z), overflow): the modulus, and where abs() of a finite complex
    raises OverflowError because its modulus exceeds the float range."""
    size = np.hypot(re, im)
    return size, np.isinf(size) & np.isfinite(re) & np.isfinite(im)


def boundary_offsets(domain: PlanarDomain, re, im):
    """signed_boundary_offset at every point (re[k], im[k])."""
    if isinstance(domain, UnitDisk):
        return 1.0 - np.hypot(re, im)  # an overflowing modulus gives -inf, as above
    if isinstance(domain, UpperHalfPlane):
        return im
    if isinstance(domain, Disk):
        c = domain.center
        return domain.radius - np.hypot(re - c.real, im - c.imag)
    if isinstance(domain, HalfPlane):
        n = domain.normal
        return re * n.real + im * n.imag - domain.offset
    raise TypeError(f"not a planar domain: {domain!r}")


def halfplane_frame(domain: PlanarDomain) -> tuple[complex, complex, complex]:
    """(base point on the boundary line, unit tangent, unit inward normal)."""
    if isinstance(domain, UpperHalfPlane):
        return 0j, 1.0 + 0j, 1j
    if isinstance(domain, HalfPlane):
        normal = domain.normal
        return domain.offset * normal, 1j * normal, normal
    raise TypeError(f"not a half-plane: {domain!r}")


def contains(domain: PlanarDomain, z: complex) -> bool:
    """True iff z lies strictly inside the domain.

    Points with non-finite coordinates are never inside anything, so NaN
    cannot leak past the interiority preconditions of the metric operations.
    """
    if not cmath.isfinite(z):
        return False
    return signed_boundary_offset(domain, z) > 0.0


def boundary_distance(domain: PlanarDomain, z: complex) -> float:
    """Euclidean distance from an interior point to the boundary."""
    if not cmath.isfinite(z):
        raise PointOutsideDomain(f"{z!r} has non-finite coordinates")
    off = signed_boundary_offset(domain, z)
    if off <= 0.0:
        raise PointOutsideDomain(f"{z!r} is not interior to {domain!r}")
    return off


def j_distance(domain: PlanarDomain, z: complex, w: complex) -> float:
    """Distance ratio metric log(1 + |z-w| / min boundary distance).

    Evaluated through log1p so near-coincident pairs (gaps around 1e-12 and
    below) keep full relative accuracy.  Zero when z == w, and for a distinct
    pair only when |z - w| / min distance underflows (0 is then the correctly
    rounded value); DomainError when |z - w|, or its ratio to the boundary
    distance, overflows the float range.
    """
    bz = boundary_distance(domain, z)
    bw = boundary_distance(domain, w)
    if z == w:
        return 0.0
    try:
        j = math.log1p(abs(z - w) / (bz if bz <= bw else bw))
    except OverflowError:  # abs() of a finite complex overflows past ~1.3e308 per coordinate
        j = math.inf
    if j < math.inf:
        return j
    raise DomainError(f"|z - w| / min boundary distance overflows the float range for z = {z!r}, w = {w!r}")


def j_distances(domain: PlanarDomain, zr, zi, wr, wi):
    """j_distance for every pair (z[k], w[k]), NaN where j_distance raises.

    log1p runs through math.log1p element by element (see the primitives
    above).
    """
    with np.errstate(all="ignore"):
        bz = boundary_offsets(domain, zr, zi)
        bw = boundary_offsets(domain, wr, wi)
        x = np.hypot(zr - wr, zi - wi) / np.where(bz <= bw, bz, bw)
    # A finite x needs finite coordinates, so this is boundary_distance's check too.
    ok = (bz > 0.0) & (bw > 0.0) & (x < math.inf)
    j = np.full(x.shape, math.nan)
    x = x[ok]
    j[ok] = np.fromiter(map(math.log1p, x.tolist()), float, len(x))
    return j


def pseudo_hyperbolic_disk(z: complex, w: complex) -> float:
    """|(z - w) / (1 - conj(w) z)| for two points of the unit disk."""
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise PointOutsideDomain("pseudo_hyperbolic_disk needs points inside the unit disk")
    return abs((z - w) / (1.0 - w.conjugate() * z))


def pseudo_hyperbolic_halfplane(z: complex, w: complex) -> float:
    """|(z - w) / (z - conj(w))| for two points of the upper half-plane."""
    if not (cmath.isfinite(z) and cmath.isfinite(w) and z.imag > 0.0 and w.imag > 0.0):
        raise PointOutsideDomain("pseudo_hyperbolic_halfplane needs points with Im > 0")
    return abs((z - w) / (z - w.conjugate()))
