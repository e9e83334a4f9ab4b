"""Seeded, splittable sampling helpers.

Every randomized routine in the package derives its draws from one Philox
counter-based generator.  Parallel work splits into fixed-size chunks and
chunk k consumes the substream ``substream(seed, k)``; results therefore do
not depend on how many workers ran the chunks, which is what makes suite
reports bit-reproducible across thread counts.
"""

from __future__ import annotations

import numpy as np

from .domains import (
    Disk,
    PlanarDomain,
    UnitDisk,
    _c_prod,
    boundary_offsets,
    halfplane_frame,
    signed_boundary_offset,
)
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

# Draws a rejection loop may take before it raises DomainError.  Every loop
# in the package accepts a draw with probability well above 1e-2 for the
# margins and separations it is used with, so only inputs that leave
# (almost) nothing to accept exhaust it.
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

    def take(self, n: int) -> np.ndarray:
        """The next n uniforms as an array: what n calls of next() return."""
        rest = len(self._buf) - self._pos
        if n <= rest:
            out = np.array(self._buf[self._pos : self._pos + n])
            self._pos += n
            return out
        head = self._buf[self._pos :]
        self._pos = len(self._buf)
        return np.concatenate((head, self._rng.random(n - rest)))


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
    u: Uniforms,
    count: int,
    margin: float = 1e-3,
    span: float = HALFPLANE_SPAN,
) -> tuple[np.ndarray, np.ndarray]:
    """count calls of sample_interior as arrays (re, im).

    Draws exactly the uniforms those calls draw: disk candidates are tested
    in draw order, a batch is never larger than the points still missing,
    and a run of REJECTION_TRIES rejected candidates raises DomainError.
    """
    if isinstance(domain, (UnitDisk, Disk)):
        cx, cy, r = _disk_box(domain, margin)
        parts_re, parts_im = [], []
        run = 0  # rejected candidates since the last accepted one
        need = count
        while True:
            a = u.take(2 * need)
            x = (cx - r) + ((cx + r) - (cx - r)) * a[0::2]
            y = (cy - r) + ((cy + r) - (cy - r)) * a[1::2]
            with np.errstate(all="ignore"):
                hits = np.flatnonzero(boundary_offsets(domain, x, y) >= margin)
            if hits.size:
                longest = int((np.diff(hits, prepend=-1 - run) - 1).max())
                run = need - 1 - int(hits[-1])
            else:
                longest = run = run + need
            if max(longest, run) >= REJECTION_TRIES:
                raise DomainError(f"no point of {domain!r} at margin {margin!r} in {REJECTION_TRIES} draws")
            parts_re.append(x[hits])
            parts_im.append(y[hits])
            need -= hits.size
            if not need:
                return np.concatenate(parts_re), np.concatenate(parts_im)
    base, tangent, normal = halfplane_frame(domain)
    a = u.take(2 * count)
    t = -span + (span - -span) * a[0::2]
    h = margin + (span - margin) * a[1::2]
    # base + t * tangent + h * normal, with t and h promoted to complex
    tr, ti = _c_prod(t, 0.0, tangent.real, tangent.imag)
    hr, hi = _c_prod(h, 0.0, normal.real, normal.imag)
    return base.real + tr + hr, base.imag + ti + hi


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
    u: Uniforms,
    count: int,
    margin: float = 1e-3,
    separation: float = 1e-9,
    span: float = HALFPLANE_SPAN,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """count calls of sample_interior_pair as arrays (z.re, z.im, w.re, w.im).

    Draws exactly the uniforms those calls draw.  Points are paired off two
    by two; a w closer than `separation` to its z is replaced by the next
    point that is not, and REJECTION_TRIES close ones in a row raise
    DomainError.
    """
    re, im = sample_interior_points(domain, u, 2 * count, margin, span)
    parts = []
    while True:  # re, im hold exactly the 2 * (pairs still to make) points needed next
        close = np.flatnonzero(np.hypot(re[0::2] - re[1::2], im[0::2] - im[1::2]) < separation)
        if not close.size:
            parts.append((re[0::2], im[0::2], re[1::2], im[1::2]))
            break
        k = 2 * int(close[0])
        parts.append((re[0:k:2], im[0:k:2], re[1:k:2], im[1:k:2]))
        pairs_after = len(re) // 2 - k // 2 - 1
        zr, zi = re[k], im[k]
        re, im = re[k + 2 :], im[k + 2 :]  # w candidates after the close one
        tries = 1  # close w candidates so far
        while True:
            far = np.flatnonzero(~(np.hypot(re - zr, im - zi) < separation))
            tries += int(far[0]) if far.size else len(re)
            if tries >= REJECTION_TRIES:
                raise DomainError(
                    f"no point {separation!r} away from {complex(zr, zi)!r} in {REJECTION_TRIES} draws"
                )
            if far.size:
                break
            re, im = sample_interior_points(domain, u, 1 + 2 * pairs_after, margin, span)
        f = int(far[0])
        parts.append((np.array([zr]), np.array([zi]), re[f : f + 1], im[f : f + 1]))
        re, im = re[f + 1 :], im[f + 1 :]
        more = 2 * pairs_after - len(re)
        if more:
            extra = sample_interior_points(domain, u, more, margin, span)
            re, im = np.concatenate((re, extra[0])), np.concatenate((im, extra[1]))
    return tuple(np.concatenate(column) for column in zip(*parts))
