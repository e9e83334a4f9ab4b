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
    "CArr",
    "pseudo_hyperbolic_disk",
    "pseudo_hyperbolic_halfplane",
]

NORMAL_UNIT_TOL = 1e-12

# A divisor with both parts at most this keeps Smith's p + q * (q / p) finite (see CArr).
_SMITH_SAFE = np.finfo(float).max / 2


def _require_finite(value, label: str, kind=complex):
    """value converted by kind (complex or float); DomainError unless finite."""
    x = kind(value)
    if not cmath.isfinite(x):
        raise DomainError(f"{label} must be finite, got {x!r}")
    return x


def _modulus(z):
    """abs(z), or inf where abs() of a complex past ~1.3e308 per coordinate raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


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
        size = _modulus(self.normal)
        if abs(size - 1.0) > NORMAL_UNIT_TOL:
            raise DomainError(f"half-plane normal must be unit length, got |n| = {size!r}")


# A formula that runs on one point and on many is written once, for complex.
# CArr's operators repeat CPython's complex arithmetic (Objects/complexobject.c)
# operation for operation, so on a CArr each element gets the bits a complex
# gets (tests/test_arrays.py holds them to that); numpy's complex dtype and
# np.log1p can round differently in the last bit.  Every operand is read as
# (x.real, x.imag), promoting a float x to (x, 0.0) as CPython 3.10-3.13 do.
# Where CPython raises (abs() past the float range, division by 0), a CArr
# holds inf or NaN, and the caller masks those elements.


class CArr:
    """Complex array: the real and imaginary parts as two float64 arrays."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # a numpy operand defers to the reflected operators

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __getitem__(self, index):
        return CArr(self.real[index], self.imag[index])

    def __setitem__(self, index, value):
        self.real[index], self.imag[index] = value.real, value.imag

    def at(self, k: int) -> complex:
        return complex(self.real[k], self.imag[k])

    def __add__(self, other):
        return CArr(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return CArr(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return CArr(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):  # _Py_c_prod, whose bits do not depend on the operand order
        return CArr(self.real * other.real - self.imag * other.imag, self.real * other.imag + self.imag * other.real)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """_Py_c_quot, Smith's algorithm (R. L. Smith, CACM 1962): divide through by
        the part of other with the larger modulus, then by denom.  NaN where other
        is 0 or has a NaN part.  self may be any operand, for __rtruediv__."""
        # As arrays, a scalar divisor of 0 gives NaN rather than ZeroDivisionError.
        br, bi = np.asarray(other.real, dtype=float), np.asarray(other.imag, dtype=float)
        by_re = np.abs(br) >= np.abs(bi)
        # Each branch of _Py_c_quot is the other with the parts of both operands
        # swapped, and + and * commute bit for bit, so one formula serves both.
        p, q = np.where(by_re, br, bi), np.where(by_re, bi, br)
        s, t = np.where(by_re, self.real, self.imag), np.where(by_re, self.imag, self.real)
        ratio = q / p
        denom = p + q * ratio
        s_ratio = s * ratio
        return CArr((s + t * ratio) / denom, np.where(by_re, t - s_ratio, s_ratio - t) / denom)

    def __rtruediv__(self, other):
        return CArr.__truediv__(other, self)

    def __abs__(self):
        """The modulus; inf where abs() of a complex raises OverflowError."""
        return np.hypot(self.real, self.imag)

    def conjugate(self):
        return CArr(self.real, -self.imag)


def signed_boundary_offset(domain: PlanarDomain, z):
    """Closed-form signed distance to the boundary, positive strictly inside.

    For disks this is radius - |z - center|, for half-planes <z, n> - offset;
    both are exact distances, so interiority is decided by the sign alone.
    A finite point too far from a disk for abs() to represent |z - center|
    gets -inf, the correctly rounded offset.  z may be a CArr of points.
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
    """Euclidean distance from an interior point to the boundary; inf where that distance
    is past the float range."""
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


def _log1p_exact(x):
    """math.log1p of every element of the float array x: the bits j_distance gets,
    which np.log1p can miss by an ulp or so (see CArr)."""
    return np.fromiter(map(math.log1p, x.tolist()), float, len(x))


def _j(gap, bz, bw, log1p):
    """j from the gaps |z - w| and the boundary offsets bz, bw of the pairs' points,
    NaN where j_distance raises; log1p is _log1p_exact for j_distance's bits."""
    x = gap / np.where(bz <= bw, bz, bw)  # under the caller's np.errstate
    # A finite x needs finite coordinates, so this is boundary_distance's check too.
    ok = (bz > 0.0) & (bw > 0.0) & (x < math.inf)
    if ok.all():
        return log1p(x)
    j = np.full(x.shape, math.nan)
    j[ok] = log1p(x[ok])
    return j


def pseudo_hyperbolic_disk(z: complex, w: complex) -> float:
    """|(z - w) / (1 - conj(w) z)| for two points of the unit disk (or two CArr of them)."""
    if not np.all((_modulus(z) < 1.0) & (_modulus(w) < 1.0)):
        raise PointOutsideDomain("pseudo_hyperbolic_disk needs points inside the unit disk")
    return abs((z - w) / (1.0 - w.conjugate() * z))


def pseudo_hyperbolic_halfplane(z: complex, w: complex) -> float:
    """|(z - w) / (z - conj(w))| for two points of the upper half-plane (or two CArr of them)."""
    den = z - w.conjugate()
    # With Im z, Im w > 0, z - w is finite where den's parts are; past _SMITH_SAFE the quotient
    # is taken of quarters, whose parts are at most _SMITH_SAFE for any finite z and w.
    bounded = (abs(den.real) <= _SMITH_SAFE) & (den.imag <= _SMITH_SAFE)
    if np.all(bounded & (z.imag > 0.0) & (w.imag > 0.0)):
        return abs((z - w) / den)
    finite = np.isfinite(z.real) & np.isfinite(w.real) & (z.imag < math.inf) & (w.imag < math.inf)
    if not np.all(finite & (z.imag > 0.0) & (w.imag > 0.0)):
        raise PointOutsideDomain("pseudo_hyperbolic_halfplane needs points with Im > 0")
    quarter = abs((z * 0.25 - w * 0.25) / (z * 0.25 - w.conjugate() * 0.25))
    return np.where(bounded, abs((z - w) / den), quarter) if isinstance(den, CArr) else quarter
