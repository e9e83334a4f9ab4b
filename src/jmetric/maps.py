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
import functools
import itertools
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
    _modulus,
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

    def take(self, rows) -> MapExpr:
        """Maps `rows` of maps made by of_arrays, as one map made by of_arrays; a parameter that is no
        array is shared."""

        def pick(value):
            if isinstance(value, tuple):
                return tuple(map(pick, value))
            if isinstance(value, (MapExpr, MapBatch)):
                return value.take(rows)
            return value[rows] if isinstance(value, (np.ndarray, CArr)) else value

        return type(self).of_arrays(*(pick(getattr(self, f.name)) for f in dataclasses.fields(self)))


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
        size = _modulus(self.determinant())  # a determinant past the float range is far from degenerate
        if size <= MOBIUS_DEGENERACY_TOL:
            raise DomainError(f"degenerate Mobius map, |ad - bc| = {size!r}")

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    @functools.cached_property
    def _moduli(self):
        """(|a|, |b|, |c|, |d|, sqrt(2) / |det|) bounded above by _mag, for the rounding scale."""
        return _mag(self.a), _mag(self.b), _mag(self.c), _mag(self.d), _SQRT2 / _mag(self.determinant())


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
            if _modulus(z) > BLASCHKE_ZERO_BOUND:
                raise DomainError(f"Blaschke zero must satisfy |a| <= {BLASCHKE_ZERO_BOUND}, got {z!r}")

    @functools.cached_property
    def _weights(self):
        """(1 + sum_k 1 / (1 - |a_k|), sum_k (1 + |a_k|) / (1 - |a_k|)), for the rounding scale."""
        weight, total = 1.0, 0.0
        for a in self.zeros:
            r = abs(a)
            weight, total = weight + 1.0 / (1.0 - r), total + (1.0 + r) / (1.0 - r)
        return weight, total


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

    def take(self, rows) -> MapBatch:
        """The samples `rows` (increasing) as a batch of their own, numbered from 0."""
        groups = []
        for index, m in self.groups:
            pos = np.searchsorted(index, rows)
            mine = np.flatnonzero(index[np.minimum(pos, index.size - 1)] == rows)
            if mine.size:
                groups.append((mine, m.take(pos[mine])))
        return MapBatch(tuple(groups))

    @functools.cached_property
    def _ragged(self):
        """The Blaschke groups as one product, or None without them: (their samples, their
        rotation factors e^(i rotation), their zeros row by row, each zero's sample, the row
        bounds).  The members go by zero count, most first, so that row k, zero k of each
        member with more than k zeros, is a prefix of them."""
        parts = sorted((g for g in self.groups if isinstance(g[1], Blaschke)), key=lambda g: -len(g[1].zeros))
        if not parts:
            return None
        rows = [[(index, m.zeros[k]) for index, m in parts if len(m.zeros) > k] for k in range(len(parts[0][1].zeros))]
        cells = [cell for row in rows for cell in row]

        def joined(pairs):  # each pair's values over its samples, a shared value spread; int if there are none
            return np.concatenate([np.empty(0, int)] + [np.full(i.shape, v) if np.ndim(v) == 0 else v for i, v in pairs])

        zeros = CArr(joined((i, a.real) for i, a in cells), joined((i, a.imag) for i, a in cells))
        stops = [0, *itertools.accumulate(sum(i.size for i, _ in row) for row in rows)]
        turn = _turn(joined((i, m.rotation) for i, m in parts))
        return joined((i, i) for i, _ in parts), turn, zeros, joined((i, i) for i, _ in cells), stops

    @functools.cached_property
    def _weights(self):
        """Blaschke._weights of every member of _ragged, in its order, as two arrays from one
        pass over its zeros; each member adds its terms in its own zero order."""
        index, _, zeros, _, stops = self._ragged
        r = abs(zeros)
        weight, total = np.ones(index.size), np.zeros(index.size)
        for start, stop in zip(stops, stops[1:]):
            t = r[start:stop]
            weight[: stop - start] += 1.0 / (1.0 - t)
            total[: stop - start] += (1.0 + t) / (1.0 - t)
        return weight, total


def _turn(rotation):
    """e^(i rotation) as cmath.exp gives it, for a float or an array of floats: the cos and sin
    of rotation + 0.0 (the imaginary part of 1j * rotation); numpy's have libm's bits."""
    if isinstance(rotation, np.ndarray):
        t = rotation + 0.0
        return CArr(np.cos(t), np.sin(t))
    return cmath.exp(1j * rotation)


def _value(m: MapExpr | MapBatch, z, guard):
    """m at z, a complex or a CArr of points (then m's parameters may be arrays, and a MapBatch
    takes map k at z[k]).  guard(den, pole name, z) returns each denominator before it
    divides: apply's raises at a pole, and apply_arrays' gives NaN there and where |den|
    overflows, so a value at a finite point is not finite just where apply raises."""
    if isinstance(m, Mobius):
        return (m.a * z + m.b) / guard(m.c * z + m.d, "Mobius pole", z)
    if isinstance(m, Blaschke):
        w = _turn(m.rotation)
        for a in m.zeros:
            w *= (z - a) / guard(1.0 - a.conjugate() * z, "Blaschke pole", z)
        return w if m.zeros else _shaped(w, z)
    if isinstance(m, Extremal):
        return m.a - 1.0 / guard(m.b + z, "pole of a - 1/(b+z)", z)
    if isinstance(m, Compose):
        return _value(m.outer, _value(m.inner, z, guard), guard)
    if isinstance(m, MapBatch):
        out = CArr(np.empty(z.real.shape), np.empty(z.real.shape))
        if m._ragged is not None:  # every factor in one pass, multiplied in as a Blaschke group takes them
            index, turn, zeros, at, stops = m._ragged
            x = z[at]
            factor = (x - zeros) / guard(1.0 - zeros.conjugate() * x, "Blaschke pole", x)
            w = CArr(turn.real.copy(), turn.imag.copy())
            for start, stop in zip(stops, stops[1:]):  # row k: the first stop - start members
                w[: stop - start] = w[: stop - start] * factor[start:stop]
            out[index] = w
        for index, part in m.groups:
            if not isinstance(part, Blaschke):
                out[index] = _value(part, z[index], guard)
        return out
    raise TypeError(f"not a map expression: {m!r}")


def _shaped(x, z):
    """x, the value or slope of a zero-free Blaschke product, as a CArr of z's shape where z
    is a CArr; a complex z keeps x, signed zeros included."""
    if isinstance(z, CArr):
        return CArr(np.broadcast_to(x.real, z.real.shape), np.broadcast_to(x.imag, z.real.shape))
    return x


def _ordered(z, w):
    """(z, w) or (w, z), whichever puts first the point that comes first by (real, imag),
    elementwise for CArr."""
    if isinstance(z, CArr):
        swap = (w.real < z.real) | ((w.real == z.real) & (w.imag < z.imag))
        return CArr(np.where(swap, w.real, z.real), np.where(swap, w.imag, z.imag)), CArr(
            np.where(swap, z.real, w.real), np.where(swap, z.imag, w.imag))
    return (w, z) if (w.real, w.imag) < (z.real, z.imag) else (z, w)


def _divided(m: MapExpr | MapBatch, z, w, guard):
    """The divided difference (m(z) - m(w)) / (z - w) by closed forms that do not cancel
    (McCurdy, Ng & Parlett, Math. Comp. 43, 1984), and m'(z) where w is z (the same
    object); z, w and guard as for _value.  (w, z) gives the bits of (z, w): every other
    formula is symmetric, as a complex product's bits do not depend on the operand order."""
    if isinstance(m, Blaschke):
        # phi[z, w] = (1 - |a|^2) / ((1 - conj(a) z)(1 - conj(a) w)) per factor, and one pass
        # D <- D phi(w) + V phi[z, w], V <- V phi(z); at w = z this is the product rule.  The
        # pass is not symmetric, so it takes the pair in _ordered's order.  |a|^2 is r * r:
        # ** 2 calls pow() on a float but squares an array, which can differ.
        if w is not z:
            z, w = _ordered(z, w)
        value, slope = _turn(m.rotation), 0j
        for a in m.zeros:
            den = guard(1.0 - a.conjugate() * z, "Blaschke pole", z)
            factor = (z - a) / den
            den_w, factor_w = den, factor
            if w is not z:
                den_w = guard(1.0 - a.conjugate() * w, "Blaschke pole", w)
                factor_w = (w - a) / den_w
            r = abs(a)
            slope = slope * factor_w + value * ((1.0 - r * r) / (den * den_w))
            value = value * factor
        return slope if m.zeros else _shaped(slope, z)
    if isinstance(m, Compose):
        inner_z = _value(m.inner, z, guard)
        inner_w = inner_z if w is z else _value(m.inner, w, guard)
        return _divided(m.outer, inner_z, inner_w, guard) * _divided(m.inner, z, w, guard)
    # Moebius: det / ((cz + d)(cw + d)); a - 1/(b+z): 1 / ((b + z)(b + w)).
    if isinstance(m, Mobius):
        det, pole, den_z = m.determinant(), "Mobius pole", m.c * z + m.d
        den_w = den_z if w is z else m.c * w + m.d
    elif isinstance(m, Extremal):
        det, pole, den_z = 1.0, "pole of a - 1/(b+z)", m.b + z
        den_w = den_z if w is z else m.b + w
    elif isinstance(m, MapBatch):
        out = CArr(np.empty(z.real.shape), np.empty(z.real.shape))
        for index, part in m.groups:
            out[index] = _divided(part, z[index], w[index], guard)
        return out
    else:
        raise TypeError(f"not a map expression: {m!r}")
    den_z = guard(den_z, pole, z)
    if w is z:
        return det / (den_z * den_z)
    den_w = guard(den_w, pole, w)
    den = den_z * den_w
    # A subnormal den_z den_w keeps only a few digits (none at 0); det divided by each
    # denominator in turn stays in the normal range.
    small = np.maximum(abs(den.real), abs(den.imag)) < 2.0**-1022
    if not isinstance(den, CArr):
        return det / den_z / den_w if small else det / den
    quot = det / den
    if small.any():
        quot[small] = (det / den_z / den_w)[small]
    return quot


def _raise_at_pole(den: complex, pole: str, z: complex) -> complex:
    if abs(den) < POLE_FLOOR:
        raise PoleEncountered(f"{pole} at {z!r}")
    return den


def _nan_at_pole(den: CArr, pole: str, z: CArr) -> CArr:
    """den, NaN where _raise_at_pole raises or abs() of den overflows on finite parts."""
    # top <= |den| <= sqrt(2) top (tests/test_arrays.py pins it for np.hypot), so a den
    # with top in [POLE_FLOOR, _HYPOT_SAFE] is neither a pole hit nor an overflow.
    top = np.maximum(abs(den.real), abs(den.imag))
    sure = (top >= POLE_FLOOR) & (top <= _HYPOT_SAFE)
    if sure.all():
        return den
    odd = np.flatnonzero(~sure)
    x, y = den.real[odd], den.imag[odd]
    size = np.hypot(x, y)  # abs() raises where this overflows on finite parts
    hit = odd[(size < POLE_FLOOR) | (np.isinf(size) & np.isfinite(x) & np.isfinite(y))]
    den = CArr(den.real.copy(), den.imag.copy())
    den[hit] = complex(math.nan, math.nan)
    return den


def _unguarded(den, pole, z):
    return den


def _at_point(formula, m: MapExpr, z: complex, verb: str, w: complex | None = None) -> complex:
    """formula (_value, or _divided with w = z) of m at the point z, raising where apply and
    derivative do."""
    # abs() of a complex with a NaN part can raise an OverflowError left over from an
    # earlier libm call, so a non-finite point is refused before any arithmetic.
    if not cmath.isfinite(z):
        raise DomainError(f"cannot {verb} a map at the non-finite point {z!r}")
    try:
        # A plain call: one that unpacks *args costs apply about 40% more.
        out = formula(m, z, _raise_at_pole) if w is None else formula(m, z, w, _raise_at_pole)
    except (OverflowError, ZeroDivisionError):  # abs() past ~1.3e308 per coordinate, or den * den underflowing
        out = complex(math.nan, math.nan)
    if not cmath.isfinite(out):
        raise DomainError(f"cannot {verb} the map at {z!r}: the result leaves the float range")
    return out


def apply(m: MapExpr, z: complex) -> complex:
    """Evaluate the map at z; PoleEncountered on denominators below 1e-300, DomainError
    on a non-finite z, or on a denominator or a value past the float range."""
    return _at_point(_value, m, z, "evaluate")


def _on_arrays(formula, m: MapExpr | MapBatch, z: CArr, w: CArr | None = None) -> tuple[CArr, np.ndarray]:
    """formula (_value, or _divided with the points w) of m at every point of z, as (values,
    bad); bad marks a non-finite point or value, which the pole guard makes of a pole hit or
    an overflowing |den|: where the scalar call raises.  The values there are meaningless."""
    bad = ~(np.isfinite(z.real) & np.isfinite(z.imag))
    if w is not None:
        bad |= ~(np.isfinite(w.real) & np.isfinite(w.imag))
    with np.errstate(all="ignore"):
        f = formula(m, z, _nan_at_pole) if w is None else formula(m, z, w, _nan_at_pole)
    return f, bad | ~(np.isfinite(f.real) & np.isfinite(f.imag))


def apply_arrays(m: MapExpr | MapBatch, z: CArr) -> tuple[CArr, np.ndarray]:
    """apply at every point of z, as (f, bad); a MapBatch applies map k at z[k].  bad marks
    the points that are not finite or whose value is not finite, which is where apply raises
    (on map k, rebuilt); their values in f are meaningless."""
    return _on_arrays(_value, m, z)


# _rounding_scale and _slope_bound are first-order bounds from a computed image f and
# its modulus |f| (the derivation is at verify._GAP_TRUST).  An atom needs |f| and its
# parameters alone.  A composition outer o inner also needs h = inner(z): where neither
# part is a composition, |h| is bounded from f by outer's inverse instead of evaluated.
# The error and the slope of a Blaschke product have no such bound off the closed unit
# disk, where |f| > 1 (for a degree-0 product |f| = 1 says nothing of z): inf there.
# An evaluated h is bounded by |h| (_mag(h) can pass 1 inside the disk), other complex
# moduli by _mag; neither raises, so a float gives an array element's bits, inf and NaN too.

_SQRT2 = math.sqrt(2.0)


def _mag(x):
    """|Re x| + |Im x|, between |x| and sqrt(2) |x|, for a complex, a CArr or an array of
    real parameters."""
    if isinstance(x, np.ndarray):
        return abs(x)
    return abs(x.real) + abs(x.imag)


def _inverse(t):
    """1 / t for t >= 0 or NaN, on a float as on an array: inf at 0."""
    if isinstance(t, np.ndarray) or t > 0.0:
        return 1.0 / t
    return math.inf if t == 0.0 else math.nan


def _rounding_scale(m: MapExpr | MapBatch, z, f, size):
    """S with |computed m(z) - m(z)| <= e S to first order, from the computed f = m(z) and
    size = |f|: z a complex, or a CArr with f a CArr and size an array (then a MapBatch
    takes map k at z[k]); call under np.errstate."""
    if isinstance(m, Extremal):
        return 2.0 * abs(m.a) + size
    if isinstance(m, Mobius):  # |det| >= _mag(det) / sqrt(2)
        a, b, c, d, inverse_det = m._moduli
        return 2.0 * (a + c * size) * (b + d * size) * inverse_det
    if isinstance(m, Blaschke):
        return _blaschke_scale(size, m._weights)
    if isinstance(m, Compose):
        # An error d in the inner value h moves outer(h) by about |outer'(h)| d.
        h, h_size = _inner_point(m, z, f, size)
        return _rounding_scale(m.outer, h, f, size) + _slope_bound(m.outer, h, f, size) * _rounding_scale(
            m.inner, z, h, h_size
        )
    if isinstance(m, MapBatch):
        return _by_group(_rounding_scale, m, z, f, size, _blaschke_scale)
    raise TypeError(f"not a map expression: {m!r}")


def _slope_bound(m: MapExpr | MapBatch, z, f, size):
    """An upper bound on |m'(z)|, with z, f and size as for _rounding_scale."""
    if isinstance(m, Extremal):  # 1 / (b + z)^2 = (a - f)^2
        t = _mag(m.a - f)
        return t * t
    if isinstance(m, Mobius):  # det / (cz + d)^2 = (a - c f)^2 / det
        t = _mag(m.a - m.c * f)
        return t * t * m._moduli[4]
    if isinstance(m, Blaschke):
        return _blaschke_slope(size, m._weights)
    if isinstance(m, Compose):
        h = _value(m.inner, z, _unguarded)  # as apply and apply_arrays compute it where they do not raise
        return _slope_bound(m.outer, h, f, size) * _slope_bound(m.inner, z, h, _modulus(h))
    if isinstance(m, MapBatch):
        return _by_group(_slope_bound, m, z, f, size, _blaschke_slope)
    raise TypeError(f"not a map expression: {m!r}")


def _blaschke_scale(size, weights):
    return _in_disk(size, size * weights[0])


def _blaschke_slope(size, weights):  # sum_k (1 - |a_k|^2) / |1 - conj(a_k) z|^2 on the closed disk
    return _in_disk(size, weights[1])


def _inner_point(m: Compose, z, f, size):
    """(h, an upper bound on |h|) for h = m.inner(z) as apply computes it; h is None where
    neither part of m is a composition, and the bound comes from f = m(z)."""
    if not (_composes(m.outer) or _composes(m.inner)):
        return None, _preimage_bound(m.outer, f, size)
    h = _value(m.inner, z, _unguarded)
    return h, _modulus(h)


def _preimage_bound(m: MapExpr | MapBatch, f, size):
    """An upper bound on |z| from f = m(z) and size = |f|, for a map that composes nothing."""
    if isinstance(m, MapBatch):
        return _by_group(lambda part, z, f, size: _preimage_bound(part, f, size), m, None, f, size)
    if isinstance(m, Extremal):  # z = 1 / (a - f) - b
        return abs(m.b) + _SQRT2 * _inverse(_mag(m.a - f))
    if isinstance(m, Mobius):  # z = (d f - b) / (a - c f)
        _, b, _, d, _ = m._moduli
        return (d * size + b) * _SQRT2 * _inverse(_mag(m.a - m.c * f))
    if m.zeros:  # a Blaschke product has |f| <= 1 just where |z| <= 1
        return _in_disk(size, 1.0)
    return np.full(np.shape(size), math.inf) if isinstance(size, np.ndarray) else math.inf  # a constant


def _composes(m: MapExpr | MapBatch) -> bool:
    if isinstance(m, MapBatch):
        return any(_composes(part) for _, part in m.groups)
    return isinstance(m, Compose)


def _by_group(bound, m: MapBatch, z, f, size, blaschke=None):
    """bound(part, z, f, size) of each group of m, on that group's samples, in one array;
    the points z are gathered only for a composition (the others use f and size).  Given
    blaschke, the Blaschke groups go together as blaschke(size, MapBatch._weights)."""
    out = np.empty(np.shape(size))
    together = blaschke is not None and m._ragged is not None
    if together:
        index = m._ragged[0]
        out[index] = blaschke(size[index], m._weights)
    for index, part in m.groups:
        if together and isinstance(part, Blaschke):
            continue
        at = z[index] if isinstance(part, Compose) else None
        out[index] = bound(part, at, None if f is None else f[index], size[index])
    return out


def _in_disk(size, bound):
    """bound where size <= 1, inf elsewhere (and where size is NaN)."""
    if isinstance(size, np.ndarray):
        return np.where(size <= 1.0, bound, math.inf)
    return bound if size <= 1.0 else math.inf


def derivative(m: MapExpr, z: complex) -> complex:
    """Complex derivative at z, the divided difference at w = z; PoleEncountered and
    DomainError as for apply."""
    return _at_point(_divided, m, z, "differentiate", z)


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
