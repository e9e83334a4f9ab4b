"""Seeded, splittable sampling helpers.

Every randomized routine in the package derives its draws from one Philox
counter-based generator.  Parallel work splits into fixed-size chunks and
chunk k consumes the substream ``substream(seed, k)``; results therefore do
not depend on how many workers ran the chunks, which is what makes suite
reports bit-reproducible across thread counts.

The scalar samplers (sample_interior, sample_interior_pair) make per-sample
draws through a buffered ``Uniforms``; the array samplers
(sample_interior_points, sample_interior_pairs) draw whole blocks straight
from the chunk's generator.
"""

from __future__ import annotations

import numpy as np

from .domains import CArr, Disk, PlanarDomain, UnitDisk, halfplane_frame, signed_boundary_offset
from .errors import DomainError

__all__ = [
    "substream",
    "Uniforms",
    "sample_interior",
    "sample_interior_points",
    "sample_interior_pair",
    "sample_interior_pairs",
]

# Extent of the sampling box used for the unbounded half-plane domains.
HALFPLANE_SPAN = 100.0

# Draws (scalar samplers) or rounds (array samplers) a rejection loop may
# take before it raises DomainError.  Every loop in the package accepts a
# draw with probability well above 1e-2 for the margins and separations it
# is used with, so only inputs that leave (almost) nothing to accept
# exhaust it.
REJECTION_TRIES = 10_000


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for chunk `index` of the stream keyed by `seed` (>= 0)."""
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed!r}")
    bg = np.random.Philox(seed)
    if index:
        bg = bg.jumped(index)
    return np.random.Generator(bg)


class Uniforms:
    """Buffered scalar uniforms in [0, 1) drawn from one generator.

    Bulk array draws plus a cursor are an order of magnitude cheaper than
    per-call scalar draws; consumption order is identical either way.
    """

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, prefetch: int = 4096):
        if prefetch < 1:
            raise DomainError(f"prefetch must be at least 1, got {prefetch!r}")
        self._rng = rng
        self._buf = rng.random(prefetch).tolist()
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buf):
            self._buf = self._rng.random(len(self._buf)).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next()


def _disk_box(domain, margin: float) -> tuple[float, float, float]:
    """(center x, center y, radius) of a disk that has points at `margin`."""
    r = domain.radius
    if margin >= r:
        raise DomainError(f"margin {margin!r} leaves no interior in radius {r!r}")
    return domain.center.real, domain.center.imag, r


def sample_interior(
    domain: PlanarDomain,
    u: Uniforms,
    margin: float = 1e-3,
    span: float = HALFPLANE_SPAN,
) -> complex:
    """One interior point with boundary distance >= margin.

    Disks sample uniformly from the bounding square with rejection; the
    unbounded half-planes sample uniformly from a span x span box sitting
    `margin` above the boundary line.
    """
    if isinstance(domain, (UnitDisk, Disk)):
        cx, cy, r = _disk_box(domain, margin)
        tries = 0
        while True:
            z = complex(u.uniform(cx - r, cx + r), u.uniform(cy - r, cy + r))
            if signed_boundary_offset(domain, z) >= margin:
                return z
            tries += 1
            if tries == REJECTION_TRIES:
                raise DomainError(f"no point of {domain!r} at margin {margin!r} in {tries} draws")
    base, tangent, normal = halfplane_frame(domain)
    t = u.uniform(-span, span)
    h = u.uniform(margin, span)
    return base + t * tangent + h * normal


def sample_interior_points(
    domain: PlanarDomain,
    rng: np.random.Generator,
    count: int,
    margin: float = 1e-3,
    span: float = HALFPLANE_SPAN,
) -> CArr:
    """count interior points with boundary distance >= margin.

    Disks draw, each round, as many candidates from the bounding square as
    points are still missing and keep those at `margin`; REJECTION_TRIES
    rounds that leave points missing raise DomainError.  Half-planes draw the
    box coordinates t and h of sample_interior as two arrays.
    """
    if isinstance(domain, (UnitDisk, Disk)):
        cx, cy, r = _disk_box(domain, margin)
        re = im = np.empty(0)
        for _ in range(REJECTION_TRIES):
            with np.errstate(all="ignore"):  # a square wider than the float range holds no finite point
                x = (cx - r) + 2.0 * r * rng.random(count - re.size)
                y = (cy - r) + 2.0 * r * rng.random(count - re.size)
                keep = signed_boundary_offset(domain, CArr(x, y)) >= margin
            re, im = np.concatenate((re, x[keep])), np.concatenate((im, y[keep]))
            if re.size == count:
                return CArr(re, im)
        raise DomainError(f"no point of {domain!r} at margin {margin!r} in {REJECTION_TRIES} rounds")
    base, tangent, normal = halfplane_frame(domain)
    t = rng.uniform(-span, span, count)
    h = rng.uniform(margin, span, count)
    return CArr(base.real + t * tangent.real + h * normal.real, base.imag + t * tangent.imag + h * normal.imag)


def sample_interior_pair(
    domain: PlanarDomain,
    u: Uniforms,
    margin: float = 1e-3,
    separation: float = 1e-9,
    span: float = HALFPLANE_SPAN,
) -> tuple[complex, complex]:
    """Two interior points at least `separation` apart."""
    z = sample_interior(domain, u, margin, span)
    w = sample_interior(domain, u, margin, span)
    tries = 1
    while abs(z - w) < separation:
        if tries == REJECTION_TRIES:
            raise DomainError(f"no point {separation!r} away from {z!r} in {tries} draws")
        w = sample_interior(domain, u, margin, span)
        tries += 1
    return z, w


def sample_interior_pairs(
    domain: PlanarDomain,
    rng: np.random.Generator,
    count: int,
    margin: float = 1e-3,
    separation: float = 1e-9,
    span: float = HALFPLANE_SPAN,
) -> tuple[CArr, CArr]:
    """count pairs (z[k], w[k]) of interior points at least `separation` apart.

    Each round redraws only the w's still closer than `separation` to their
    z; REJECTION_TRIES rounds that leave one close raise DomainError.
    """
    z = sample_interior_points(domain, rng, count, margin, span)
    w = CArr(np.empty(count), np.empty(count))
    close = np.arange(count)
    for _ in range(REJECTION_TRIES):
        redrawn = sample_interior_points(domain, rng, close.size, margin, span)
        w.real[close], w.imag[close] = redrawn.real, redrawn.imag
        close = close[abs(z[close] - w[close]) < separation]
        if not close.size:
            return z, w
    first = complex(z.real[close[0]], z.imag[close[0]])
    raise DomainError(f"no point {separation!r} away from {first!r} in {REJECTION_TRIES} rounds")
