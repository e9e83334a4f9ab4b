"""Array kernels against their scalar twins, bit for bit.

Every array kernel (complex primitives, boundary offsets, j distances, map
evaluation, the guarded ratio, the ceiling chunk's scoring) must return
exactly what a loop over its scalar twin returns: the same bits, and NaN
where the scalar raises or returns None.  The array samplers have no scalar
twin, since they draw whole blocks from the chunk's generator; their tests
check margins, separations, bounded rejection and reproducibility instead.
"""

import math
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import jmetric.verify as verify_module
from jmetric.domains import (
    Disk,
    HalfPlane,
    UnitDisk,
    UpperHalfPlane,
    _c_abs,
    _c_prod,
    _c_quot,
    boundary_offsets,
    j_distance,
    j_distances,
    signed_boundary_offset,
)
from jmetric.errors import DomainError, JmetricError
from jmetric.maps import Blaschke, Compose, Extremal, Mobius, apply, apply_arrays
from jmetric.sampling import Uniforms, sample_interior_pairs, sample_interior_points, substream
from jmetric.verify import (
    HALFPLANE_SPAN,
    PAIR_MARGIN,
    PAIR_SEPARATION,
    _CAYLEY,
    _CHUNK,
    _PAIR,
    _ceiling_chunk,
    _random_image_source_and_mobius,
    _witness,
    guarded_ratio,
    guarded_ratios,
)

PROPERTY = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ANY = st.floats(allow_nan=False, allow_infinity=False)
MODEST = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
TINY = st.floats(min_value=-1e-290, max_value=1e-290, allow_nan=False)
HUGE = st.floats(min_value=1e306, max_value=1.7e308) | st.floats(min_value=-1.7e308, max_value=-1e306)
COORD = MODEST | ANY | TINY | HUGE
POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=32)

DOMAINS = [
    UnitDisk(),
    UpperHalfPlane(),
    Disk(0.5 - 0.25j, 2.0),
    HalfPlane(complex(math.cos(1.3), math.sin(1.3)), 0.2),
]


def bits(x: float) -> bytes:
    """The float's bit pattern, with every NaN mapped to one pattern."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


def same(scalar: complex | float, re, im=None) -> bool:
    if im is None:
        return bits(scalar) == bits(float(re))
    return bits(scalar.real) == bits(float(re)) and bits(scalar.imag) == bits(float(im))


def arrays(points):
    return np.array([p[0] for p in points], dtype=float), np.array([p[1] for p in points], dtype=float)


# ---------------------------------------------------------------------------
# Complex primitives
# ---------------------------------------------------------------------------


@PROPERTY
@given(POINTS, POINTS)
def test_complex_primitives_match_cpython(left, right):
    n = min(len(left), len(right))
    ar, ai = arrays(left[:n])
    br, bi = arrays(right[:n])
    with np.errstate(all="ignore"):
        pr, pi = _c_prod(ar, ai, br, bi)
        qr, qi = _c_quot(ar, ai, br, bi)
        size, overflow = _c_abs(ar, ai)
    for k in range(n):
        a, b = complex(ar[k], ai[k]), complex(br[k], bi[k])
        assert same(a * b, pr[k], pi[k])
        if b != 0:
            assert same(a / b, qr[k], qi[k])
        try:
            assert same(abs(a), size[k]) and not overflow[k]
        except OverflowError:
            assert overflow[k]


def test_quotient_takes_the_imaginary_branch_and_the_float_promotion():
    # |Re b| < |Im b| scales by Im b; a float numerator is (x, 0.0).
    b = complex(0.3, -7.0)
    qr, qi = _c_quot(1.0, 0.0, np.array([b.real]), np.array([b.imag]))
    assert same(1.0 / b, qr[0], qi[0])


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@PROPERTY
@given(POINTS)
def test_boundary_offsets_match_the_scalar(domain, points):
    re, im = arrays(points)
    with np.errstate(all="ignore"):
        offsets = boundary_offsets(domain, re, im)
    for k, (x, y) in enumerate(points):
        assert same(signed_boundary_offset(domain, complex(x, y)), offsets[k])


def _scalar_j(domain, z, w):
    try:
        return j_distance(domain, z, w)
    except JmetricError:
        return math.nan


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@PROPERTY
@given(POINTS, POINTS)
@example([(0.0, 1e-300)], [(0.0, 1e10)])
@example([(1e308, 1.0)], [(-1e308, 1.0)])
def test_j_distances_match_the_scalar(domain, left, right):
    n = min(len(left), len(right))
    zr, zi = arrays(left[:n])
    wr, wi = arrays(right[:n])
    j = j_distances(domain, zr, zi, wr, wi)
    for k in range(n):
        assert same(_scalar_j(domain, complex(zr[k], zi[k]), complex(wr[k], wi[k])), j[k])


def test_j_distances_of_points_inside():
    rng = np.random.default_rng(3)
    zr, zi, wr, wi = rng.uniform(-0.7, 0.7, (4, 200))
    j = j_distances(UnitDisk(), zr, zi, wr, wi)
    assert all(same(j_distance(UnitDisk(), complex(zr[k], zi[k]), complex(wr[k], wi[k])), j[k]) for k in range(200))


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

COEFF = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
ZERO = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


@st.composite
def maps(draw, depth=1):
    kind = draw(st.sampled_from(["mobius", "blaschke", "extremal", "compose"] if depth else ["mobius", "extremal"]))
    if kind == "mobius":
        a, b, c, d = (draw(COEFF) for _ in range(4))
        assume(abs(a * d - b * c) > 1e-9)
        return Mobius(a, b, c, d)
    if kind == "blaschke":
        return Blaschke(draw(MODEST), tuple(draw(st.lists(ZERO, max_size=4))))
    if kind == "extremal":
        return Extremal(draw(MODEST), draw(MODEST))
    return Compose(draw(maps(depth - 1)), draw(maps(depth - 1)))


def _poles(m):
    """Points at or next to the map's poles."""
    if isinstance(m, Mobius) and m.c != 0:
        return [-m.d / m.c]
    if isinstance(m, Blaschke):
        return [1.0 / a.conjugate() for a in m.zeros if a != 0]
    if isinstance(m, Extremal):
        return [complex(-m.b, 0.0)]
    if isinstance(m, Compose):
        return _poles(m.inner)
    return []


def _scalar_apply(m, z):
    try:
        return apply(m, z)
    except JmetricError:
        return None


@PROPERTY
@given(maps(), POINTS, st.lists(TINY, max_size=3))
@example(Mobius(1, 0, 1.4, 1), [(1.2e308, 1.2e308)], [])
@example(Extremal(0.0, 0.0), [(0.0, 0.0)], [0.0])
def test_apply_arrays_match_apply(m, points, nudges):
    points = points + [(p.real + t, p.imag - t) for p in _poles(m) for t in nudges + [0.0]]
    re, im = arrays(points)
    out_re, out_im, bad = apply_arrays(m, re, im)
    for k in range(len(points)):
        f = _scalar_apply(m, complex(re[k], im[k]))
        assert bad[k] == (f is None)
        if f is not None:
            assert same(f, out_re[k], out_im[k])


# ---------------------------------------------------------------------------
# Guarded ratio
# ---------------------------------------------------------------------------

CASES = [
    (UpperHalfPlane(), UpperHalfPlane()),
    (UnitDisk(), UnitDisk()),
    (UpperHalfPlane(), UnitDisk()),
    (Disk(0.5 - 0.25j, 2.0), HalfPlane(complex(math.cos(1.3), math.sin(1.3)), 0.2)),
]


@pytest.mark.parametrize("src,dst", CASES, ids=repr)
@PROPERTY
@given(maps(), POINTS, POINTS)
@example(Mobius(1, 1j, 0, 1), [(0.0, 1e-300)], [(0.0, 1e10)])
def test_guarded_ratios_match_guarded_ratio(src, dst, m, left, right):
    n = min(len(left), len(right))
    zr, zi = arrays(left[:n])
    wr, wi = arrays(right[:n])
    ratio = guarded_ratios(src, dst, m, zr, zi, wr, wi)
    for k in range(n):
        scalar = guarded_ratio(src, dst, m, complex(zr[k], zi[k]), complex(wr[k], wi[k]))
        assert same(math.nan if scalar is None else scalar, ratio[k])


def test_guarded_ratios_on_sampled_pairs_with_skips():
    # The Cayley map sends the half-plane onto the unit disk; 1.2 times it
    # sends most pairs partly outside, which both forms skip.
    rng = substream(5, 0)
    zr, zi, wr, wi = sample_interior_pairs(UpperHalfPlane(), rng, 500, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
    skipped = []
    for m in (_CAYLEY, Mobius(1.2, -1.2j, 1, 1j)):
        ratio = guarded_ratios(UpperHalfPlane(), UnitDisk(), m, zr, zi, wr, wi)
        for k in range(500):
            scalar = guarded_ratio(UpperHalfPlane(), UnitDisk(), m, complex(zr[k], zi[k]), complex(wr[k], wi[k]))
            assert same(math.nan if scalar is None else scalar, ratio[k])
        skipped.append(int(np.isnan(ratio).sum()))
    assert skipped[0] == 0 and 0 < skipped[1] < 500


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 7, 3000])
def test_points_and_pairs_keep_margin_and_separation(domain, count):
    rng = substream(11, 2)
    re, im = sample_interior_points(domain, rng, count, 1e-2, 10.0)
    zr, zi, wr, wi = sample_interior_pairs(domain, rng, count, 1e-2, 0.05, 10.0)
    assert all(len(column) == count for column in (re, im, zr, zi, wr, wi))
    for x, y in ((re, im), (zr, zi), (wr, wi)):
        assert (boundary_offsets(domain, x, y) >= 1e-2).all()
    assert (np.hypot(zr - wr, zi - wi) >= 0.05).all()


def test_large_separation_redraws_only_the_close_pairs():
    # Separation 0 redraws nothing; separation 1 redraws the w's of a good
    # share of unit-disk pairs, and only those.
    zr, zi, wr, wi = sample_interior_pairs(UnitDisk(), substream(3, 1), 2000, PAIR_MARGIN, 0.0)
    far = sample_interior_pairs(UnitDisk(), substream(3, 1), 2000, PAIR_MARGIN, 1.0)
    assert all(len(column) == 2000 for column in far)
    assert (np.hypot(far[0] - far[2], far[1] - far[3]) >= 1.0).all()
    close = np.hypot(zr - wr, zi - wi) < 1.0
    assert 100 < close.sum() < 1900
    assert np.array_equal(far[0], zr) and np.array_equal(far[1], zi)
    assert np.array_equal(far[2][~close], wr[~close]) and (far[2][close] != wr[close]).all()


@pytest.mark.parametrize(
    "draw, error",
    [
        (lambda rng: sample_interior_points(UnitDisk(), rng, 3, 1 - 1e-9), "no point of"),
        (lambda rng: sample_interior_pairs(UnitDisk(), rng, 3, PAIR_MARGIN, 3.0), "away from"),
        # the bounding square is wider than the float range: every candidate overflows
        (lambda rng: sample_interior_points(Disk(0j, 1e308), rng, 3), "no point of"),
    ],
    ids=["margin", "separation", "huge-disk"],
)
def test_unreachable_points_raise_in_bounded_time(draw, error):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=error):
        draw(substream(17, 0))
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_same_generator_state_gives_the_same_arrays(domain):
    a, b = substream(5, 4), substream(5, 4)
    first = sample_interior_pairs(domain, a, 500, 1e-2, 0.5, 10.0)
    second = sample_interior_pairs(domain, b, 500, 1e-2, 0.5, 10.0)
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# The ceiling chunk against a per-pair scoring loop
# ---------------------------------------------------------------------------


def _reference_ceiling_chunk(kind, seed, index, pairs):
    """The chunk's own pairs, drawn in the same _CHUNK blocks, scored one
    by one with the scalar guarded_ratio and kept on a strict <."""
    rng = substream(seed, index)
    u = Uniforms(rng)
    if kind == "halfplane":
        src, dst, m = UpperHalfPlane(), UpperHalfPlane(), verify_module.random_halfplane_map(u)
    elif kind == "disk":
        src, dst, m = UnitDisk(), UnitDisk(), verify_module.random_blaschke(u, 4)
    else:
        src, m = (UpperHalfPlane(), _CAYLEY) if index == 0 else _random_image_source_and_mobius(u)
        dst = verify_module.mobius_image_domain(m, src)
    worst, witness, skipped = math.inf, {}, 0
    for start in range(0, pairs, _CHUNK):
        count = min(_CHUNK, pairs - start)
        zr, zi, wr, wi = sample_interior_pairs(src, rng, count, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
        for k in range(count):
            z, w = complex(zr[k], zi[k]), complex(wr[k], wi[k])
            ratio = guarded_ratio(src, dst, m, z, w)
            if ratio is None:
                skipped += 1
            elif 2.0 - ratio < worst:
                worst = 2.0 - ratio
                witness = _witness(_PAIR, (m, src, dst, z, w))
    return worst, witness, skipped


@pytest.mark.parametrize("kind", ["halfplane", "disk", "mobius-images"])
@pytest.mark.parametrize("pairs", [4095, 4096, 4097, 10_000])
def test_ceiling_chunk_matches_the_per_pair_loop(kind, pairs):
    for index in (0, 3):
        assert _ceiling_chunk(kind, 42, index, pairs) == _reference_ceiling_chunk(kind, 42, index, pairs)


def test_ceiling_chunk_matches_the_per_pair_loop_on_skipped_pairs(monkeypatch):
    # Scored against the unit disk, many Moebius images fall outside it and are skipped.
    monkeypatch.setattr(verify_module, "mobius_image_domain", lambda m, src: UnitDisk())
    skips = []
    for index in range(1, 6):
        new = _ceiling_chunk("mobius-images", 9, index, 5000)
        assert new == _reference_ceiling_chunk("mobius-images", 9, index, 5000)
        skips.append(new[2])
    assert 5000 in skips and any(0 < s < 5000 for s in skips)


def test_ceiling_chunk_keeps_the_first_of_equal_margins(monkeypatch):
    # The identity scores every pair at exactly 1.0: the witness is the first pair.
    monkeypatch.setattr(verify_module, "random_blaschke", lambda u, max_zeros: Blaschke(0.0, (0j,)))
    new = _ceiling_chunk("disk", 4, 1, 5000)
    assert new == _reference_ceiling_chunk("disk", 4, 1, 5000)
    assert new[0] == 1.0
