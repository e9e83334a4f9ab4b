"""The one-formula contract: each formula, run on a CArr, returns per element
the bits it returns on a complex.

CArr's operators must match CPython's complex arithmetic bit for bit, for
CArr, complex and float operands on either side.  On top of them, map
evaluation and differentiation, boundary offsets, j distances, the guarded
ratio, the scoring of the ceiling chunk and of the search grid, the ranking of
the search's local-distortion seeds, its region and its lockstep walks must
return exactly what a loop over the scalar call returns: the same bits, and
NaN (or a bad mark) where the scalar raises or returns None.  The suite rows
score each chunk on arrays too, and must give every sample the bits the
public scalar checks give it on the sample's rebuilt map and points.  The
array sampler draws whole blocks from the chunk's generator and has no
scalar counterpart; its tests check margins, bounded rejection and
reproducibility instead, and that a pair of coincident points is skipped
where it is scored.
"""

import functools
import logging
import math
import operator
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import jmetric.maps as maps_module
import jmetric.search as search_module
import jmetric.verify as verify_module
from jmetric.domains import (
    CArr,
    Disk,
    HalfPlane,
    UnitDisk,
    UpperHalfPlane,
    _j,
    _log1p_exact,
    boundary_distance,
    contains,
    j_distance,
    signed_boundary_offset,
)
from jmetric.errors import DomainError, JmetricError, PoleEncountered
from jmetric.grammar import format_complex
from jmetric.maps import (
    Blaschke,
    Compose,
    Extremal,
    Mobius,
    apply,
    apply_arrays,
    derivative,
    maps_into_sampled,
    mobius_image_domain,
)
from jmetric.sampling import Uniforms, sample_interior_points, substream
from jmetric.search import (
    _SEED_COUNT,
    _SHRINK,
    SearchConfig,
    _distortion_order,
    _grid_chunk,
    _grid_top,
    _Region,
    _seeds,
    _walk,
    ratio_objective,
)
from jmetric.verify import (
    HALFPLANE_SPAN,
    PAIR_MARGIN,
    PAIR_SEPARATION,
    _CAYLEY,
    _CHUNK,
    _IMAGE_DRAWS,
    _LOG1P_SLACK,
    _PAIR,
    _ROWS,
    _blaschke_maps,
    _ceiling_block,
    _ceiling_chunk,
    _disk_maps,
    _exact_ratios,
    _halfplane_maps,
    _image_gaps,
    _mapped_pairs,
    _pair_ratios,
    _pairs,
    _point_stage,
    _random_image_source_and_mobius,
    _ranked_ratios,
    _suite_chunk,
    _witness,
    check_lipschitz_pair,
    guarded_ratio,
)

PROPERTY = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ANY = st.floats(allow_nan=False, allow_infinity=False)
MODEST = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
TINY = st.floats(min_value=-1e-290, max_value=1e-290, allow_nan=False)
HUGE = st.floats(min_value=1e306, max_value=1.7e308) | st.floats(min_value=-1.7e308, max_value=-1e306)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
COORD = MODEST | ANY | TINY | HUGE | SIGNED_ZERO
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


def carr(points) -> CArr:
    return CArr(np.array([p[0] for p in points], dtype=float), np.array([p[1] for p in points], dtype=float))


def bits_of(x) -> list[bytes]:
    """bits of every element of the float array x."""
    return [bits(v) for v in x.tolist()]


def element(z: CArr, k: int) -> complex:
    return complex(z.real[k], z.imag[k])


# ---------------------------------------------------------------------------
# CArr against CPython's complex
# ---------------------------------------------------------------------------


def _cpython(op, p, q) -> complex:
    """op(p, q) in CPython; NaN where it raises ZeroDivisionError, as a CArr gives."""
    try:
        return complex(op(p, q))
    except ZeroDivisionError:
        return complex(math.nan, math.nan)


@PROPERTY
@given(POINTS, POINTS, COORD)
@example([(1.0, -0.0)], [(math.inf, 1.0)], 2.0)
@example([(0.3, 0.0)], [(0.0, -0.0)], 0.0)
def test_complex_primitives_match_cpython(left, right, x):
    n = min(len(left), len(right))
    a, b = carr(left[:n]), carr(right[:n])
    c = element(b, 0)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with np.errstate(all="ignore"):
            cases = [
                (op(a, b), lambda k: (element(a, k), element(b, k))),
                (op(a, c), lambda k: (element(a, k), c)),
                (op(c, a), lambda k: (c, element(a, k))),
                (op(a, x), lambda k: (element(a, k), x)),
                (op(x, a), lambda k: (x, element(a, k))),
                (op(np.float64(x), a), lambda k: (x, element(a, k))),  # numpy defers to the CArr
            ]
        for got, operands in cases:
            assert isinstance(got, CArr)
            for k in range(n):
                p, q = operands(k)
                assert same(_cpython(op, p, q), got.real[k], got.imag[k]), (op.__name__, p, q)
    with np.errstate(all="ignore"):
        size, conj = abs(a), a.conjugate()
    for k in range(n):
        z = element(a, k)
        assert same(z.conjugate(), conj.real[k], conj.imag[k])
        try:
            assert same(abs(z), size[k])
        except OverflowError:  # where CPython raises, the CArr modulus is inf
            assert math.isinf(size[k])


def test_quotient_takes_the_imaginary_branch_and_the_float_promotion():
    # |Re b| < |Im b| scales by Im b; a float numerator is (x, 0.0).
    b = complex(0.3, -7.0)
    q = 1.0 / CArr(np.array([b.real]), np.array([b.imag]))
    assert same(1.0 / b, q.real[0], q.imag[0])


def test_the_interpreter_promotes_a_real_operand_to_complex():
    # CArr reads a float x as (x, 0.0), as CPython 3.10-3.13 do.  CPython 3.14
    # follows C99 Annex G instead (0.0 + (1-0j) keeps -0.0, 2.0 * (inf+1j) is
    # (inf+2j)), and CArr's bits would then differ from complex's.
    message = "this interpreter does not promote a real operand x to complex(x, 0.0); CArr no longer matches it"
    assert bits((0.0 + complex(1.0, -0.0)).imag) == bits(0.0), message
    scaled = 2.0 * complex(math.inf, 1.0)
    assert math.isinf(scaled.real) and math.isnan(scaled.imag), message


def test_a_numpy_warning_outside_errstate_fails_the_run():
    # pyproject.toml turns warnings into errors: a CArr division by zero that
    # escapes an np.errstate block in a shared formula fails Tier-1.
    with pytest.raises(RuntimeWarning, match="invalid value"):
        1.0 / CArr(np.array([0.0]), np.array([0.0]))


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@PROPERTY
@given(POINTS)
def test_boundary_offsets_match_the_scalar(domain, points):
    z = carr(points)
    with np.errstate(all="ignore"):
        offsets = signed_boundary_offset(domain, z)
    for k, (x, y) in enumerate(points):
        assert same(signed_boundary_offset(domain, complex(x, y)), offsets[k])


def _scalar_j(domain, z, w):
    try:
        return j_distance(domain, z, w)
    except JmetricError:
        return math.nan


def array_j(domain, z, w):
    with np.errstate(all="ignore"):
        return _j(abs(z - w), signed_boundary_offset(domain, z), signed_boundary_offset(domain, w), _log1p_exact)


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@PROPERTY
@given(POINTS, POINTS)
@example([(0.0, 1e-300)], [(0.0, 1e10)])
@example([(1e308, 1.0)], [(-1e308, 1.0)])
def test_j_distances_match_the_scalar(domain, left, right):
    n = min(len(left), len(right))
    z, w = carr(left[:n]), carr(right[:n])
    j = array_j(domain, z, w)
    for k in range(n):
        assert same(_scalar_j(domain, element(z, k), element(w, k)), j[k])


def test_j_distances_of_points_inside():
    rng = np.random.default_rng(3)
    z, w = CArr(*rng.uniform(-0.7, 0.7, (2, 200))), CArr(*rng.uniform(-0.7, 0.7, (2, 200)))
    j = array_j(UnitDisk(), z, w)
    assert all(same(j_distance(UnitDisk(), element(z, k), element(w, k)), j[k]) for k in range(200))


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


def _scalar(call, m, z):
    try:
        return call(m, z)
    except JmetricError:
        return None


@PROPERTY
@given(maps(), POINTS, st.lists(TINY, max_size=3))
@example(Mobius(1, 0, 1.4, 1), [(1.2e308, 1.2e308)], [])
@example(Extremal(0.0, 0.0), [(0.0, 0.0)], [0.0])
@example(Blaschke(0.7, ()), [(0.5, 0.5), (1e308, -1e308)], [])  # a constant, broadcast
@example(Compose(Extremal(1.0, 2.0), Blaschke(0.7, ())), [(0.5, 0.5), (-3.0, 0.0)], [])
@example(Compose(Mobius(1, 0, 1, -1), Blaschke(0.0, ())), [(0.5, 0.5), (-3.0, 0.0)], [])  # constant on the pole
@example(Mobius(1, 0, 0, 1), [(math.inf, 0.0), (0.5, math.nan), (0.5, 0.5)], [])  # apply refuses non-finite points
@example(Blaschke(0.7, ()), [(-math.inf, 0.0), (0.5, 0.5)], [])
@example(Mobius(1e300, 0, 0, 1e-300), [(1e10, 0.0), (0.5, 0.5)], [])  # a value past the float range
@example(Extremal(0.0, 0.0), [(0.0, 1e-160), (0.0, 1e-200)], [])  # slopes past it: den * den subnormal, or 0
# A constant inner value puts every point's denominator at 1e-301i: every point is a pole hit.
@example(Compose(Extremal(0.0, -1.0), Blaschke(1e-301, ())), [(0.5, 0.5), (-3.0, 0.0), (0.0, 2.0)], [])
# Denominators (den = z) one ulp around the pole floor, below it with |den| near it, subnormal,
# and at the float max / 2 bound of the pole guard's larger part and past it.
@example(Extremal(0.0, 0.0), [(math.nextafter(1e-300, 0.0), 0.0), (1e-300, 0.0), (0.0, math.nextafter(1e-300, 1))], [])
@example(Extremal(0.0, 0.0), [(1e-300 / math.sqrt(2.0), 1e-300 / math.sqrt(2.0)), (-7.0711e-301, 7.0711e-301)], [])
@example(Extremal(0.0, 0.0), [(5e-324, 0.0), (1e-310, -1e-310), (2.0**-1022, 2.0**-1022)], [])
@example(Extremal(0.0, 0.0), [(1e307, 1e307), (9e307, -9e307), (1.3e308, 1.3e308)], [])
@example(
    Extremal(0.0, 0.0), [(sys.float_info.max / 2, 0.0), (0.0, math.nextafter(sys.float_info.max / 2, math.inf))], []
)
def test_apply_arrays_match_apply(m, points, nudges):
    # derivative and maps._divided at w = z on arrays keep the same contract.
    points = points + [(p.real + t, p.imag - t) for p in _poles(m) for t in nudges + [0.0]]
    z = carr(points)
    slopes = maps_module._on_arrays(maps_module._divided, m, z, z)
    for call, (f, bad) in ((apply, apply_arrays(m, z)), (derivative, slopes)):
        assert f.real.shape == f.imag.shape == bad.shape == (len(points),)
        for k in range(len(points)):
            scalar = _scalar(call, m, element(z, k))
            assert bad[k] == (scalar is None)
            if scalar is not None:
                assert same(scalar, f.real[k], f.imag[k])


def _mixed_products(rng, n: int):
    """Blaschke products with one shared zero, with no zeros, and with two zeros drawn per sample."""
    drawers = (
        lambda rng, n: Blaschke(0.3, (0.5j,)),
        lambda rng, n: Blaschke.of_arrays(rng.random(n), ()),
        functools.partial(verify_module._blaschke, 2),
    )
    return verify_module._grouped(rng, (3.0 * rng.random(n)).astype(int), drawers)


@pytest.mark.parametrize(
    "family, domain, n",
    [
        (verify_module._halfplane_maps, UpperHalfPlane(), 600),
        (verify_module._disk_maps, UnitDisk(), 600),
        (verify_module._blaschke_maps, UnitDisk(), 600),
        (_mixed_products, UnitDisk(), 600),
        *((family, UnitDisk(), n) for family in (verify_module._disk_maps, verify_module._blaschke_maps)
          for n in (1, 3, 7, 2048)),
    ],
    ids=["halfplane", "disk", "blaschke", "mixed", "disk-1", "disk-3", "disk-7", "disk-2048", "blaschke-1",
         "blaschke-3", "blaschke-7", "blaschke-2048"],
)
def test_map_batches_match_apply_on_each_rebuilt_map(family, domain, n):
    # Each sample's map, rebuilt as a checked map, gives the batch's bits at its
    # own point, and its derivative's and its rounding scale's there, compositions
    # of batches included; a few-member batch lacks some zero counts.
    rng = substream(13, 0)
    batch = family(rng, n)
    z = sample_interior_points(domain, rng, n, PAIR_MARGIN, HALFPLANE_SPAN)
    values = apply_arrays(batch, z)
    with np.errstate(all="ignore"):
        scales = maps_module._rounding_scale(batch, z, values[0], abs(values[0]))
    shapes, slopes = set(), maps_module._on_arrays(maps_module._divided, batch, z, z)
    for call, (f, bad) in ((apply, values), (derivative, slopes)):
        for k in range(n):
            m = batch[k]
            shapes.add((type(m), type(m.inner)) if isinstance(m, Compose) else (type(m), len(getattr(m, "zeros", ()))))
            scalar = _scalar(call, m, element(z, k))
            assert bad[k] == (scalar is None)
            assert scalar is None or same(scalar, f.real[k], f.imag[k])
            if call is apply and scalar is not None:
                assert same(maps_module._rounding_scale(m, element(z, k), scalar, abs(scalar)), scales[k])
    assert n < 600 or len(shapes) >= 3


# A finite point whose modulus overflows, and non-finite points.
_HUGE_OR_NONFINITE = [(1.5e308, 1.5e308), (math.inf, 0.0), (0.5, math.nan), (-math.inf, math.inf)]


@pytest.mark.parametrize(
    "family", [verify_module._halfplane_maps, verify_module._disk_maps], ids=["halfplane", "disk"]
)
def test_map_batches_match_apply_where_the_pole_guard_fires(family):
    # Sample k sits on a pole of its own map (of its inner map, for a composition), nudged
    # as in test_apply_arrays_match_apply, or on one of _HUGE_OR_NONFINITE.
    batch = family(substream(17, 0), 600)
    nudges = [0.0, 5e-324, 1e-300, -1e-290]
    points = []
    for k in range(600):
        poles = _poles(batch[k])
        if poles and k % 5:
            p, t = poles[k % len(poles)], nudges[k % len(nudges)]
            points.append((p.real + t, p.imag - t))
        else:
            points.append(_HUGE_OR_NONFINITE[k % len(_HUGE_OR_NONFINITE)])
    z = carr(points)
    f, bad = apply_arrays(batch, z)
    hits = 0
    for k in range(600):
        try:
            scalar = apply(batch[k], element(z, k))
        except PoleEncountered:
            scalar, hits = None, hits + 1
        except JmetricError:
            scalar = None
        assert bad[k] == (scalar is None)
        assert scalar is None or same(scalar, f.real[k], f.imag[k])
    assert hits >= 100 and not bad.all()


def test_a_non_finite_rotation_in_a_batch_is_marked_bad():
    # math.cos(inf) raised a bare ValueError out of apply_arrays; numpy's cos gives NaN,
    # so the first point is marked where apply would raise, and the second keeps apply's bits.
    m = Blaschke.of_arrays(np.array([math.inf, 0.5]), (CArr(np.array([0.1, 0.2]), np.zeros(2)),))
    z = CArr(np.array([0.3, 0.3]), np.array([0.1, 0.1]))
    slopes = maps_module._on_arrays(maps_module._divided, m, z, z)
    for call, (f, bad) in ((apply, apply_arrays(m, z)), (derivative, slopes)):
        assert bad.tolist() == [True, False]
        assert same(call(Blaschke(0.5, (0.2 + 0j,)), 0.3 + 0.1j), f.real[1], f.imag[1])


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
    z, w = carr(left[:n]), carr(right[:n])
    with np.errstate(all="ignore"):
        ratio = _mapped_pairs(src, dst, m, z, w, _exact_ratios)
    for k in range(n):
        scalar = guarded_ratio(src, dst, m, element(z, k), element(w, k))
        assert same(math.nan if scalar is None else scalar, ratio[k])


def test_guarded_ratios_on_sampled_pairs_with_skips():
    # The Cayley map sends the half-plane onto the unit disk; 1.2 times it
    # sends most pairs partly outside, which both forms skip.
    rng = substream(5, 0)
    z, w = _pairs(UpperHalfPlane(), rng, 500)
    skipped = []
    for m in (_CAYLEY, Mobius(1.2, -1.2j, 1, 1j)):
        with np.errstate(all="ignore"):
            ratio = _mapped_pairs(UpperHalfPlane(), UnitDisk(), m, z, w, _exact_ratios)
        for k in range(500):
            scalar = guarded_ratio(UpperHalfPlane(), UnitDisk(), m, element(z, k), element(w, k))
            assert same(math.nan if scalar is None else scalar, ratio[k])
        skipped.append(int(np.isnan(ratio).sum()))
    assert skipped[0] == 0 and 0 < skipped[1] < 500


# Per pair k: 1e-12 and 3e-9 apart, images agreeing to about 12 and 9 digits (scored
# from the divided difference), and far apart (from the rounded images).
_NEAR_OFFSETS = np.resize([1e-12, 3e-9, 0.3], 300)


@pytest.mark.parametrize("domain, family", [(UpperHalfPlane(), _halfplane_maps), (UnitDisk(), _disk_maps)])
def test_batch_ratios_of_near_pairs_match_guarded_ratio(domain, family):
    # The lipschitz-pair suite's scoring of a MapBatch: map k at pair k, also where
    # skipped pairs leave a subset and the divided difference takes a part of the batch.
    m = family(substream(9, 0), 300)
    z = sample_interior_points(domain, substream(9, 1), 300, PAIR_MARGIN, HALFPLANE_SPAN)
    w = CArr(z.real + _NEAR_OFFSETS, z.imag + 0.5 * _NEAR_OFFSETS)
    rows = np.flatnonzero(_NEAR_OFFSETS == 3e-9)[::3]
    with np.errstate(all="ignore"):
        ratio = _mapped_pairs(domain, domain, m, z, w, _exact_ratios)
        divided = maps_module._divided
        slope, part = divided(m, z, w, maps_module._unguarded), divided(m.take(rows), z[rows], w[rows], maps_module._unguarded)
    for k in range(300):
        scalar = guarded_ratio(domain, domain, m[k], element(z, k), element(w, k))
        assert same(math.nan if scalar is None else scalar, ratio[k])
        divided = maps_module._divided(m[k], element(z, k), element(w, k), maps_module._raise_at_pole)
        assert same(divided, slope.real[k], slope.imag[k])
    for i, k in enumerate(rows.tolist()):
        assert same(slope.at(k), part.real[i], part.imag[i])
    assert np.count_nonzero(np.isfinite(ratio[_NEAR_OFFSETS == 3e-9])) > 80  # most near pairs are scored


# Blaschke products with 2 to 4 zeros, whose divided difference is the one formula that is
# not symmetric as written, and compositions holding them.
_ASYMMETRIC_FORMS = {
    "blaschke2": Blaschke(0.3, (0.5, 0.5j)),
    "blaschke3": Blaschke(0.0, (0.5, 0.5j, -0.5)),
    "blaschke4": Blaschke(1.1, (0.2 - 0.6j, -0.7 + 0.1j, 0.4 + 0.4j, -0.1 - 0.3j)),
    "outer2": Compose(Blaschke(0.2, (0.5, 0.5j)), Blaschke(0.0, (0.3 - 0.2j,))),
    "inner3": Compose(Blaschke(0.0, (0.3,)), Blaschke(0.5, (0.1 + 0.6j, -0.4 - 0.2j, 0.6))),
}


@pytest.mark.parametrize("name", sorted(_ASYMMETRIC_FORMS))
def test_near_pairs_score_the_same_bits_in_both_orders(name):
    # Pairs 1e-7 to 1e-13 apart relative to |z|, whose ratios come from the divided difference:
    # guarded_ratio, check_lipschitz_pair and the array path give (w, z) the bits of (z, w).
    disk, m = UnitDisk(), _ASYMMETRIC_FORMS[name]
    z = sample_interior_points(disk, substream(13, 0), 400, PAIR_MARGIN)
    turn = 2.0 * math.pi * substream(13, 1).random(400)
    rel = np.resize([1e-7, 1e-9, 1e-11, 1e-13], 400) * abs(z)
    w = CArr(z.real + rel * np.cos(turn), z.imag + rel * np.sin(turn))
    with np.errstate(all="ignore"):
        forward = _mapped_pairs(disk, disk, m, z, w, _exact_ratios)
        backward = _mapped_pairs(disk, disk, m, w, z, _exact_ratios)
    assert bits_of(forward) == bits_of(backward)
    assert np.isfinite(forward).all()
    for k in range(400):
        p, q = element(z, k), element(w, k)
        assert bits(guarded_ratio(disk, disk, m, p, q)) == bits(guarded_ratio(disk, disk, m, q, p)) == bits(forward[k])
        assert bits(check_lipschitz_pair(disk, disk, m, p, q)) == bits(check_lipschitz_pair(disk, disk, m, q, p))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 7, 3000])
def test_points_and_pairs_keep_margin_and_separation(domain, count):
    # The suites' pairs are two point blocks that nothing keeps apart; none of these
    # comes within PAIR_SEPARATION (1e-9), a chance of about 1e-18 per pair.
    rng = substream(11, 2)
    points = sample_interior_points(domain, rng, count, 1e-2, 10.0)
    z, w = _pairs(domain, rng, count)
    for x, margin in ((points, 1e-2), (z, PAIR_MARGIN), (w, PAIR_MARGIN)):
        assert x.real.shape == x.imag.shape == (count,)
        assert (signed_boundary_offset(domain, x) >= margin).all()
    assert (abs(z - w) >= PAIR_SEPARATION).all()


@pytest.mark.parametrize(
    "draw, error",
    [
        (lambda rng: sample_interior_points(UnitDisk(), rng, 3, 1 - 1e-9), "no point of"),
        # the bounding square is wider than the float range: every candidate overflows
        (lambda rng: sample_interior_points(Disk(0j, 1e308), rng, 3), "no point of"),
    ],
    ids=["margin", "huge-disk"],
)
def test_unreachable_points_raise_in_bounded_time(draw, error):
    start = time.perf_counter()
    with pytest.raises(DomainError, match=error):
        draw(substream(17, 0))
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
def test_same_generator_state_gives_the_same_arrays(domain):
    a, b = substream(5, 4), substream(5, 4)
    first = [sample_interior_points(domain, a, 500, 1e-2, 10.0) for _ in range(2)]
    second = [sample_interior_points(domain, b, 500, 1e-2, 10.0) for _ in range(2)]
    assert all(np.array_equal(x.real, y.real) and np.array_equal(x.imag, y.imag) for x, y in zip(first, second))
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# The ceiling chunk against a per-pair scoring loop
# ---------------------------------------------------------------------------


def _reference_ceiling_chunk(kind, seed, index, pairs):
    """The chunk's own pairs, drawn and scored in the same _CHUNK blocks by
    _reference_ceiling_block, the blocks kept on a strict <."""
    rng = substream(seed, index)
    if kind == "halfplane":
        src, dst, m = UpperHalfPlane(), UpperHalfPlane(), _halfplane_maps(rng, 1)[0]
    elif kind == "disk":
        src, dst, m = UnitDisk(), UnitDisk(), _blaschke_maps(rng, 1)[0]
    else:
        u = Uniforms(rng, _IMAGE_DRAWS)
        src, m = (UpperHalfPlane(), _CAYLEY) if index == 0 else _random_image_source_and_mobius(u)
        dst = verify_module.mobius_image_domain(m, src)
    worst, witness, skipped = math.inf, {}, 0
    for start in range(0, pairs, _CHUNK):
        margin, block_witness, block_skipped = _reference_ceiling_block(src, dst, m, rng, min(_CHUNK, pairs - start))
        skipped += block_skipped
        if margin < worst:
            worst, witness = margin, block_witness
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


def test_ceiling_chunk_keeps_the_first_of_equal_margins(draw_only):
    # The identity scores every pair at exactly 1.0: the witness is the first pair.
    draw_only(Blaschke(0.0, (0j,)))
    new = _ceiling_chunk("disk", 4, 1, 5000)
    assert new == _reference_ceiling_chunk("disk", 4, 1, 5000)
    assert new[0] == 1.0


def _reference_ceiling_block(src, dst, m, rng, count):
    """One block of pairs, z then w drawn as two point blocks, scored one by one with
    guarded_ratio (None for a coincident pair), kept on a strict <."""
    worst, witness, skipped = math.inf, {}, 0
    zs, ws = (sample_interior_points(src, rng, count, PAIR_MARGIN, HALFPLANE_SPAN) for _ in range(2))
    for k in range(count):
        z, w = element(zs, k), element(ws, k)
        ratio = guarded_ratio(src, dst, m, z, w)
        if ratio is None:
            skipped += 1
        elif 2.0 - ratio < worst:
            worst, witness = 2.0 - ratio, _witness(_PAIR, (m, src, dst, z, w))
    return worst, witness, skipped


# Contractions by 1e-4, 1e-9 and 1e-14: every margin 2 - r lies within r of 2, so
# for the last map it spans a few dozen ulps of 2 and many pairs share each margin.
_SHRINKING = [Mobius(1e-4, 0, 0, 1), Mobius(1e-9, 0.5, 0, 1), Mobius(1, 0, 0, 1e14)]


@pytest.mark.parametrize("m", _SHRINKING)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ceiling_block_matches_the_per_pair_loop_where_margins_tie(m, seed):
    disk = UnitDisk()
    new = _ceiling_block(disk, disk, m, substream(seed, 0), 4096)
    assert new == _reference_ceiling_block(disk, disk, m, substream(seed, 0), 4096)


def test_ranked_ratios_rescore_every_pair_on_the_worst_margin():
    # With f(z) = 1e-14 z, three pairs share the worst margin 2 - r, and the first of
    # them, the ceiling's witness, has a ratio 0.6% below the largest.  A rescore
    # slack of 1e-12 relative to r would leave it out; the slack in margin space
    # (verify._LOG1P_SLACK) must rescore all three.
    disk, m = UnitDisk(), _SHRINKING[2]
    z, w = _pairs(disk, substream(0, 0), 4096)
    with np.errstate(all="ignore"):
        pz, pw = _point_stage(disk, disk, m, z), _point_stage(disk, disk, m, w)
        ratio, exact = _ranked_ratios(pz, pw, abs(z - w), 1, 2.0)
        reference = _mapped_pairs(disk, disk, m, z, w, _exact_ratios)
    margin = 2.0 - reference
    ties = np.flatnonzero(margin == np.nanmin(margin))
    assert len(ties) == 3 and set(ties) <= set(exact)
    assert all(bits(a) == bits(b) for a, b in zip(ratio[exact], reference[exact]))
    assert reference[ties[0]] < np.nanmax(reference) * (1.0 - 1e-12)


def _masked_j(gap, bz, bw, log1p):
    """domains._j's masked path, taken on every input."""
    x = gap / np.where(bz <= bw, bz, bw)
    ok = (bz > 0.0) & (bw > 0.0) & (x < math.inf)
    j = np.full(x.shape, math.nan)
    j[ok] = log1p(x[ok])
    return j


def _masked_pair_ratios(pz, pw, gap, fgap, log1p):
    """verify._pair_ratios' masked path, taken on every input."""
    ratio = _masked_j(fgap, pz.f_offset, pw.f_offset, log1p) / _masked_j(gap, pz.offset, pw.offset, log1p)
    return np.where(np.isfinite(ratio), ratio, math.nan)


def _masked_ranked_ratios(pz, pw, gap, keep, c):
    """verify._ranked_ratios with the masked paths, its keep-th lowest value taken from
    the compressed finite values."""
    fgap = _image_gaps(pz, pw, gap)
    ratio = _masked_pair_ratios(pz, pw, gap, fgap, np.log1p)
    v = c - ratio
    finite = v[~np.isnan(v)]
    exact = np.arange(ratio.size)
    if finite.size > keep:
        t = np.partition(finite, keep - 1)[keep - 1]
        exact = np.flatnonzero(~(v > t + _LOG1P_SLACK * (c + abs(t) + 2.0**-1022)))
    ratio[exact] = _masked_pair_ratios(pz.take(exact), pw.take(exact), gap[exact], fgap[exact], _log1p_exact)
    return ratio, exact


@pytest.mark.parametrize("invalid", [False, True])
def test_fast_paths_match_the_masked_paths(invalid):
    # _j, _pair_ratios and _ranked_ratios skip their masks where every element is valid.
    # Both branches must give the masked result bit for bit: all pairs valid, or one pair
    # with a source offset below 0 (a NaN j) and a zero gap (a non-finite ratio).
    disk, m = UnitDisk(), Blaschke(0.3, (0.5 + 0.1j, -0.2j))
    z, w = _pairs(disk, substream(5, 0), 512)
    with np.errstate(all="ignore"):
        pz, pw = _point_stage(disk, disk, m, z), _point_stage(disk, disk, m, w)
        gap = abs(z - w)
        if invalid:
            pz = pz._replace(offset=np.where(np.arange(512) == 17, -1e-3, pz.offset))
            gap[301] = 0.0
        fgap = _image_gaps(pz, pw, gap)
        for log1p in (np.log1p, _log1p_exact):
            j = _j(gap, pz.offset, pw.offset, log1p)
            assert bits_of(j) == bits_of(_masked_j(gap, pz.offset, pw.offset, log1p))
            ratio = _pair_ratios(pz, pw, gap, fgap, log1p)
            assert bits_of(ratio) == bits_of(_masked_pair_ratios(pz, pw, gap, fgap, log1p))
            assert bool(np.isnan(j).any()) is bool(np.isnan(ratio).any()) is invalid
        for keep, c in ((1, 2.0), (16, 0.0), (600, 0.0)):
            new, reference = _ranked_ratios(pz, pw, gap, keep, c), _masked_ranked_ratios(pz, pw, gap, keep, c)
            assert bits_of(new[0]) == bits_of(reference[0])
            assert new[1].tolist() == reference[1].tolist()
    assert np.flatnonzero(np.isnan(ratio)).tolist() == ([17, 301] if invalid else [])


# ---------------------------------------------------------------------------
# Suite chunks against a per-sample loop of the public scalar checks
# ---------------------------------------------------------------------------


def _reference_suite_chunk(scalar_margin, name, seed, index, count):
    """The chunk's own draws, each sample scored with the public scalar checks
    on its rebuilt map and points and kept on a strict <; every sample's
    margin must have the bits the batched trial gives it, NaN for a skip."""
    trial, keys, _, _ = _ROWS[name]
    margins, values = trial(substream(seed, index), count)
    worst, witness, skipped = math.inf, {}, 0
    for k in range(count):
        margin = scalar_margin(name, values(k))
        assert same(margin, margins[k]), (name, k, values(k))
        if math.isnan(margin):
            skipped += 1
        elif margin < worst:
            worst, witness = margin, _witness(keys, values(k))
    return worst, witness, skipped


@pytest.mark.parametrize("name", sorted(_ROWS))
@pytest.mark.parametrize("count", [4095, 4096, 4097])
def test_suite_chunk_matches_the_per_sample_loop(scalar_margin, name, count):
    assert _suite_chunk(name, 42, 2, count) == _reference_suite_chunk(scalar_margin, name, 42, 2, count)


def test_suite_chunk_keeps_the_first_of_equal_margins_and_counts_skips(scalar_margin, draw_only):
    # The identity scores every Schwarz-Pick sample at exactly 0.0: the witness
    # is the first sample.  A shift sends some pairs out of the disk: skipped.
    for m, first in ((Blaschke(0.0, (0j,)), True), (Mobius(1, 0.5, 0, 1), False)):
        draw_only(m)
        new = _suite_chunk("schwarz-pick-disk", 4, 1, 3000)
        assert new == _reference_suite_chunk(scalar_margin, "schwarz-pick-disk", 4, 1, 3000)
        margins, values = _ROWS["schwarz-pick-disk"][0](substream(4, 1), 3000)
        if first:
            assert new == (0.0, _witness(("map", "z", "w"), values(0)), 0)
        else:
            assert 0 < new[2] < 3000


_CLOSE_PAIR_RUNS = {
    "ceiling-block": lambda n: _ceiling_block(UnitDisk(), UnitDisk(), Blaschke(0.3, (0.5j,)), substream(1, 0), n),
    "step-1-2": lambda n: _suite_chunk("step-1-2", 1, 0, n),
    "schwarz-pick-disk-equality": lambda n: _suite_chunk("schwarz-pick-disk-equality", 1, 0, n),
    "lipschitz-pair": lambda n: _suite_chunk("lipschitz-pair", 1, 0, n),
}


@pytest.mark.parametrize("name", _CLOSE_PAIR_RUNS)
def test_a_pair_closer_than_the_separation_is_skipped_and_counted(monkeypatch, name):
    draw, run, close = verify_module._pairs, _CLOSE_PAIR_RUNS[name], []

    def pairs(domain, rng, n):
        # Pair 0 of every block drawn is moved onto one point.
        z, w = draw(domain, rng, n)
        if n:
            w.real[0], w.imag[0] = z.real[0], z.imag[0]
            close.append(format_complex(element(z, 0)))
        return z, w

    unmoved = run(64)
    monkeypatch.setattr(verify_module, "_pairs", pairs)
    # Alone, the coincident pair leaves nothing to score: no margin and no witness.
    assert run(1) == (math.inf, {}, 1)
    # Among 63 others, it is counted and is never the witness.
    close.clear()
    margin, witness, skipped = run(64)
    assert margin < math.inf and witness["z"] not in close
    assert 1 <= len(close) <= skipped <= unmoved[2] + len(close)


# ---------------------------------------------------------------------------
# The search region and walks against their scalar methods and per-seed loop
# ---------------------------------------------------------------------------


class _ScalarRegion:
    """The scalar _Region methods the search used before its walks ran in
    lockstep, on the attributes of a _Region (its axes as Python floats)."""

    def __init__(self, region):
        vars(self).update(vars(region))
        self.ax, self.ay = region.ax.tolist(), region.ay.tolist()

    def point(self, a: float, b: float) -> complex:
        if self.kind == "disk":
            return complex(a, b)
        return self.base + a * self.tangent + b * self.normal

    def grid_coords(self) -> list[tuple[float, float]]:
        coords = []
        for a in self.ax:
            for b in self.ay:
                if self.kind == "disk":
                    if math.hypot(a - self.cx, b - self.cy) > self.reach:
                        continue
                coords.append((a, b))
        return coords

    def clip(self, a: float, b: float) -> tuple[float, float]:
        if self.kind == "disk":
            dx, dy = a - self.cx, b - self.cy
            rr = math.hypot(dx, dy)
            if rr > self.reach:
                scale = self.reach / rr
                return self.cx + dx * scale, self.cy + dy * scale
            return a, b
        a = min(max(a, self.tlo), self.thi)
        b = min(max(b, self.hlo), self.hhi)
        return a, b

    def initial_steps(self, coords: tuple[float, float, float, float]) -> list[float]:
        if self.kind == "disk":
            return [self._step_x] * 4
        return [
            self._step_x,
            coords[1] * (self._growth - 1.0),
            self._step_x,
            coords[3] * (self._growth - 1.0),
        ]


def _reference_refine(src, dst, m, region, cfg, coords, value):
    """The scalar complete poll from one seed pair that _walk runs for every walk at once:
    each round clips the moved point of each of the 8 moves (k, +, -), scores the moves
    that leave the pair, and takes the first best improving one."""
    steps = region.initial_steps(coords)
    coords = list(coords)
    best = value
    evals = 0
    for _ in range(cfg.refine_rounds):
        top, pick = best, None
        for k in range(4):
            for sign in (1.0, -1.0):
                cand = list(coords)
                cand[k] += sign * steps[k]
                moved = 2 * (k // 2)  # the moved point's coordinates
                cand[moved], cand[moved + 1] = region.clip(cand[moved], cand[moved + 1])
                z = region.point(cand[0], cand[1])
                w = region.point(cand[2], cand[3])
                if cand == coords or z == w:
                    continue
                candidate = ratio_objective(src, dst, m, z, w)
                evals += 1
                if candidate > top:
                    top, pick = candidate, cand
        if pick is not None:
            coords, best = pick, top
            steps = [s * 2.0 for s in steps]
        else:
            steps = [s * _SHRINK for s in steps]
    return best, tuple(coords), evals


def _check_distortion_seeds(src, dst, m, region, coords, ratios, ranked):
    """Check that the local-distortion seeds close _seeds' list as the per-seed loop
    scored them at the grid points `ranked`, in order: w to the right of z, or to its
    left where that w is z; return their w coordinates."""
    scalar = _ScalarRegion(region)
    grid = scalar.grid_coords()
    seeds, offset = [], search_module._SEED_OFFSET
    for a, b in (grid[i] for i in ranked):
        for direction in (offset, -offset):
            wa, wb = scalar.clip(a + direction, b)
            z = scalar.point(a, b)
            w = scalar.point(wa, wb)
            if z != w:
                break
        seeds.append(((a, b, wa, wb), ratio_objective(src, dst, m, z, w)))
    first = coords.shape[1] - len(seeds)
    assert first == _SEED_COUNT  # the grid seeds come first
    for k, (seed_coords, value) in enumerate(seeds):
        assert [bits(c) for c in coords[:, first + k].tolist()] == [bits(c) for c in seed_coords]
        assert bits(-math.inf if math.isnan(ratios[first + k]) else ratios[first + k]) == bits(value)
    return [seed_coords[2] for seed_coords, _ in seeds]


# np.hypot and math.hypot differ in the last bit here (on glibc), and the point lies
# outside the unit disk's reach, so clip must scale it by math.hypot's radius.
_HYPOT_SPLIT = (-1.328224209852754, 1.4479321888150656)


# On this grid np.hypot and math.hypot put two points on opposite sides of the reach.
_HYPOT_SPLIT_GRID = SearchConfig(grid_per_axis=59, boundary_margin=1e-3)


@pytest.mark.parametrize("domain", DOMAINS)
def test_region_matches_the_scalar_methods(domain):
    for cfg in (SearchConfig(grid_per_axis=12), _HYPOT_SPLIT_GRID):
        region = _Region(domain, cfg)
        a, b = region.grid()
        assert [(bits(x), bits(y)) for x, y in zip(a.tolist(), b.tolist())] == [
            (bits(x), bits(y)) for x, y in _ScalarRegion(region).grid_coords()
        ]
    region = _Region(domain, SearchConfig(grid_per_axis=12))
    scalar = _ScalarRegion(region)
    # Coordinates over twice the box, so that many fall outside the reach or the box.
    rng = np.random.default_rng(31)
    if region.kind == "disk":
        a = region.cx + rng.uniform(-2.0, 2.0, 400) * region.reach
        b = region.cy + rng.uniform(-2.0, 2.0, 400) * region.reach
        if domain == UnitDisk():
            a, b = np.append(a, _HYPOT_SPLIT[0]), np.append(b, _HYPOT_SPLIT[1])
    else:
        a = rng.uniform(2.0 * region.tlo, 2.0 * region.thi, 400)
        b = np.exp(rng.uniform(math.log(region.hlo) - 3.0, math.log(region.hhi) + 3.0, 400))
    with np.errstate(all="ignore"):
        ca, cb = region.clip(a, b)
    z = region.point(a, b)
    for k, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
        assert (bits(ca[k]), bits(cb[k])) == tuple(map(bits, scalar.clip(x, y)))
        assert same(scalar.point(x, y), z.real[k], z.imag[k])
    assert not np.array_equal(ca, a)  # some coordinates were clipped
    coords = np.stack([a[:100], b[:100], a[100:200], b[100:200]])
    steps = region.initial_steps(coords)
    for k in range(100):
        reference = scalar.initial_steps(tuple(coords[:, k].tolist()))
        assert [bits(s) for s in steps[:, k].tolist()] == [bits(s) for s in reference]


# ---------------------------------------------------------------------------
# The search grid chunk against a per-pair scoring loop
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _grid_ratios(name, grid):
    """The grid points of a _WHOLE_GRID_CASES case at `grid` points per axis, and
    ratio_objective of every ordered pair (i, j) of distinct points, by (i, j)."""
    src, dst, m = _WHOLE_GRID_CASES[name]
    region = _ScalarRegion(_Region(src, SearchConfig(grid_per_axis=grid)))
    points = [region.point(a, b) for a, b in region.grid_coords()]
    ratios = {(i, j): ratio_objective(src, dst, m, z, w)
              for i, z in enumerate(points) for j, w in enumerate(points) if z != w}
    return points, ratios


def _reference_top(ratios, keep):
    """The count of the ordered pairs of ratios and the `keep` best (ratio, i, j) entries
    of the pairs i < j."""
    found = [(value, i, j) for (i, j), value in ratios.items() if i < j and value != -math.inf]
    found.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
    return len(ratios), found[:keep]


def _reference_grid_chunk(src, dst, m, points, lo, hi, keep):
    """Evaluate pairs of distinct points (points[i], points[j]) and (points[j], points[i])
    for i in [lo, hi) and j > i; return the chunk's evaluation count and the `keep` best
    (ratio, i, j) entries of (points[i], points[j])."""
    found = []
    evals = 0
    for i in range(lo, hi):
        z = points[i]
        for j in range(i + 1, len(points)):
            w = points[j]
            if z == w:
                continue
            value = ratio_objective(src, dst, m, z, w)
            assert bits(ratio_objective(src, dst, m, w, z)) == bits(value)
            evals += 2
            if value != -math.inf:
                found.append((value, i, j))
    found.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
    return evals, found[:keep]


GRID_CASES = {
    "automorphism": (UnitDisk(), UnitDisk(), Blaschke(0.0, (0.5,))),
    "extremal": (UpperHalfPlane(), UpperHalfPlane(), Extremal(1.0, 1.0)),
    "cayley": (UpperHalfPlane(), mobius_image_domain(_CAYLEY, UpperHalfPlane()), _CAYLEY),
    "blaschke3": (UnitDisk(), UnitDisk(), Blaschke(0.0, (0.5, 0.5j, -0.5))),
    # A shift sends part of the disk outside it, so some pairs are infeasible.
    "infeasible": (UnitDisk(), UnitDisk(), Mobius(1, 0.5, 0, 1)),
    # Every pair scores exactly 1.0, so (i, j) alone orders the entries.
    "ties": (UnitDisk(), UnitDisk(), Mobius(1, 0, 0, 1)),
    # Ratios all near 1 that differ in the last bits: nearly every pair is rescored.
    "rotation": (UnitDisk(), UnitDisk(), Blaschke(0.7, (0j,))),
}


# GRID_CASES and a composition whose outer Blaschke product has two zeros.
_WHOLE_GRID_CASES = {
    **GRID_CASES,
    "compose2": (UnitDisk(), UnitDisk(), Compose(Blaschke(0.2, (0.5, 0.5j)), Blaschke(0.0, (0.3 - 0.2j,)))),
}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_chunk_matches_the_per_pair_loop(monkeypatch, name):
    src, dst, m = GRID_CASES[name]
    region = _ScalarRegion(_Region(src, SearchConfig(grid_per_axis=10)))
    points = [region.point(a, b) for a, b in region.grid_coords()]
    rows = len(points)
    grid = carr([(p.real, p.imag) for p in points])
    with np.errstate(all="ignore"):
        stage = _point_stage(src, dst, m, grid)
    # Every automorphism image is usable, so its chunks score their pairs uncompressed; the
    # shift's chunks compress the pairs with an unusable image away.
    if name in ("automorphism", "infeasible"):
        assert bool(stage.usable.all()) is (name == "automorphism")
    # The first and the last of the search's own chunks, one row, and the last row alone,
    # which has no pairs.
    chunks = []
    monkeypatch.setattr(search_module, "run_ordered", lambda f, tasks, n: chunks.extend(t[1:3] for t in tasks) or [])
    _grid_top(stage, 1, 1)
    assert len(chunks) > 1
    assert _grid_chunk(stage, rows - 1, rows, 16) == (0, [])
    blocks = [chunks[0], chunks[-1], (5, 6), (rows - 1, rows)]
    for lo, hi in blocks:
        for keep in (1, 16, rows * rows):
            evals, top = _grid_chunk(stage, lo, hi, keep)
            ref_evals, ref_top = _reference_grid_chunk(src, dst, m, points, lo, hi, keep)
            assert evals == ref_evals
            assert [(bits(r), i, j) for r, i, j in top] == [(bits(r), i, j) for r, i, j in ref_top]
            assert all(type(i) is int and type(j) is int for _, i, j in top)
    if name == "infeasible":
        evals, top = _grid_chunk(stage, 0, rows, rows * rows)
        assert 0 < len(top) < evals


@pytest.mark.parametrize("name", sorted(_WHOLE_GRID_CASES))
@pytest.mark.parametrize("grid", [8, 10])
def test_grid_top_matches_the_ordered_per_pair_loop(name, grid):
    # The chunks' merged top against every ordered pair of the grid: one chunk on the
    # disk at grid 8, two on the disk at grid 10 and on the half-plane at grid 8, four
    # on the half-plane at grid 10.
    src, dst, m = _WHOLE_GRID_CASES[name]
    points, ratios = _grid_ratios(name, grid)
    rows = len(points)
    with np.errstate(all="ignore"):
        stage = _point_stage(src, dst, m, carr([(p.real, p.imag) for p in points]))
    for keep in (_SEED_COUNT, rows * rows):
        evals, top = _grid_top(stage, keep, 1)
        ref_evals, ref_top = _reference_top(ratios, keep)
        assert evals == ref_evals
        assert [(bits(r), i, j) for r, i, j in top] == [(bits(r), i, j) for r, i, j in ref_top]


def test_grid_chunk_keeps_the_order_of_a_near_pair():
    # The divided difference of a Blaschke product with three zeros builds its product
    # rule in one fixed order of the pair, so this near pair scores 0.1432448514141342
    # in both orders, and the chunk lists it once, as (0, 1), with those bits.
    src, dst, m = GRID_CASES["blaschke3"]
    points = [0.14748203386764236 + 0.29014438711287527j, 0.14748204181957802 + 0.2901443965373781j, -0.4 + 0.1j]
    assert ratio_objective(src, dst, m, points[0], points[1]) == 0.1432448514141342
    assert ratio_objective(src, dst, m, points[1], points[0]) == 0.1432448514141342
    with np.errstate(all="ignore"):
        stage = _point_stage(src, dst, m, carr([(p.real, p.imag) for p in points]))
    evals, top = _grid_chunk(stage, 0, 3, 9)
    ref_evals, ref_top = _reference_grid_chunk(src, dst, m, points, 0, 3, 9)
    assert evals == ref_evals == 6
    assert [(bits(r), i, j) for r, i, j in top] == [(bits(r), i, j) for r, i, j in ref_top]
    assert [(bits(r), i, j) for r, i, j in top if {i, j} == {0, 1}] == [(bits(0.1432448514141342), 0, 1)]


def _reference_distortion_order(src, dst, m, points):
    """The per-point loop that ranked the local-distortion seeds before they were
    ranked in one array pass: the points whose local distortion the scalar calls
    give, by (-distortion, index)."""
    distortions = []
    for idx, z in enumerate(points):
        try:
            fz = apply(m, z)
            ld = abs(derivative(m, z)) * boundary_distance(src, z) / boundary_distance(dst, fz)
        except JmetricError:
            continue
        distortions.append((ld, idx))
    distortions.sort(key=lambda entry: (-entry[0], entry[1]))
    return [idx for _, idx in distortions]


# The benchmark's four search maps, and a shift some of whose grid images leave dst.
@pytest.mark.parametrize("name", ["automorphism", "extremal", "cayley", "blaschke3", "infeasible"])
@pytest.mark.parametrize("grid", [8, 24])
def test_distortion_order_matches_the_per_point_loop(name, grid):
    src, dst, m = GRID_CASES[name]
    region = _ScalarRegion(_Region(src, SearchConfig(grid_per_axis=grid)))
    points = [region.point(a, b) for a, b in region.grid_coords()]
    z = carr([(p.real, p.imag) for p in points])
    with np.errstate(all="ignore"):
        order = _distortion_order(m, z, _point_stage(src, dst, m, z))
    reference = _reference_distortion_order(src, dst, m, points)
    assert order.tolist() == reference
    assert (len(reference) < len(points)) is (name == "infeasible")


# The cases of the grid chunk test, which include maps with infeasible pairs and
# all-equal ratios.
# seeds0 starts the walks from the grid pairs alone, with no local-distortion seeds.
@pytest.mark.parametrize("name", sorted(GRID_CASES))
@pytest.mark.parametrize(
    "cfg, distortion_seeds",
    [
        (SearchConfig(grid_per_axis=8), _SEED_COUNT),
        (SearchConfig(grid_per_axis=24), _SEED_COUNT),
        (SearchConfig(grid_per_axis=8, refine_rounds=0), _SEED_COUNT),
        (SearchConfig(grid_per_axis=8), 0),
    ],
    ids=["grid8", "grid24", "rounds0", "seeds0"],
)
def test_walk_matches_the_per_seed_loop(monkeypatch, name, cfg, distortion_seeds):
    src, dst, m = GRID_CASES[name]
    monkeypatch.setattr(search_module, "_distortion_order", lambda *args: _distortion_order(*args)[:distortion_seeds])
    region = _Region(src, cfg)
    scalar = _ScalarRegion(region)
    with np.errstate(all="ignore"):
        coords, ratios, _ = _seeds(src, dst, m, region, 1)
        live = ~np.isnan(ratios)
        best, at, evals = _walk(src, dst, m, region, cfg, coords[:, live], ratios[live])
        points = region.point(*region.grid())
        ranked = _distortion_order(m, points, _point_stage(src, dst, m, points))[:distortion_seeds]
    _check_distortion_seeds(src, dst, m, region, coords, ratios, ranked)
    assert len(ranked) == distortion_seeds
    walks = 0
    for k, seed in enumerate(np.flatnonzero(live).tolist()):
        reference = _reference_refine(src, dst, m, scalar, cfg, tuple(coords[:, seed].tolist()), float(ratios[seed]))
        assert bits(best[k]) == bits(reference[0])
        assert [bits(c) for c in at[:, k].tolist()] == [bits(c) for c in reference[1]]
        assert evals[k] == reference[2]
        walks += reference[2]
    assert len(best) > 0
    assert (walks > 0) is (cfg.refine_rounds > 0)


def test_distortion_seeds_step_left_at_the_region_edge(monkeypatch):
    """At the right edge of a half-plane's box, z + offset clips back onto z, so the
    seed takes its w to the left of z."""
    src, dst, m = GRID_CASES["extremal"]
    region = _Region(src, SearchConfig(grid_per_axis=8))
    a, _ = region.grid()
    ranked = np.concatenate([np.arange(3), np.flatnonzero(a == region.thi)])[:6]
    monkeypatch.setattr(search_module, "_distortion_order", lambda *_: ranked)
    with np.errstate(all="ignore"):
        coords, ratios, _ = _seeds(src, dst, m, region, 1)
    w_real = _check_distortion_seeds(src, dst, m, region, coords, ratios, ranked)
    assert [wa < a[i] for wa, i in zip(w_real, ranked)] == [False] * 3 + [True] * 3


def test_pairs_1e_8_apart_are_scored(monkeypatch):
    """The search admits every pair of distinct points: a pair 1e-8 apart, which a
    separation floor of 1e-7 once hid, gets ratio_objective's bits in a grid chunk and
    as a local-distortion seed."""
    src, dst, m = GRID_CASES["automorphism"]
    points = [0.1 + 0.2j, complex(0.1 + 1e-8, 0.2), -0.3 + 0.1j]
    with np.errstate(all="ignore"):
        stage = _point_stage(src, dst, m, carr([(p.real, p.imag) for p in points]))
    evals, top = _grid_chunk(stage, 0, 3, 9)
    assert (evals, top) == _reference_grid_chunk(src, dst, m, points, 0, 3, 9)
    close = {(i, j): r for r, i, j in top}[0, 1]
    assert bits(close) == bits(ratio_objective(src, dst, m, points[0], points[1]))
    assert close > 1.0  # the disk automorphism's local distortion there

    monkeypatch.setattr(search_module, "_SEED_OFFSET", 1e-8)
    region = _Region(src, SearchConfig(grid_per_axis=8))
    with np.errstate(all="ignore"):
        coords, ratios, _ = _seeds(src, dst, m, region, 1)
        points = region.point(*region.grid())
        ranked = _distortion_order(m, points, _point_stage(src, dst, m, points))[:_SEED_COUNT]
    _check_distortion_seeds(src, dst, m, region, coords, ratios, ranked)
    z, w = coords[:2, _SEED_COUNT:], coords[2:, _SEED_COUNT:]
    gaps = np.hypot(*(w - z))
    assert len(gaps) == _SEED_COUNT and np.all(abs(gaps - 1e-8) < 1e-15)
    assert np.all(np.isfinite(ratios[_SEED_COUNT:]))


def test_np_hypot_lies_between_the_larger_part_and_1_5_times_it():
    """The bound behind maps._on_arrays' pole guard: with top = max(|x|, |y|), top <=
    np.hypot(x, y) <= 1.5 top, so a top in [POLE_FLOOR, float max / 2] is neither a pole
    hit nor past the float range and needs no hypot.  np.hypot is libm's; a libm that
    breaks the bound must fail here, not mark the wrong points."""
    rng = np.random.default_rng(18)
    n = 200_000
    with np.errstate(all="ignore"):
        x = np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-1075, 1024, n)) * rng.choice([-1.0, 1.0], n)
        # The smaller part anywhere from 0 to the larger one, over 60 binades below it.
        y = x * rng.uniform(-1.0, 1.0, n) * 2.0 ** -rng.integers(0, 60, n)
        edges = [0.0, 5e-324, 1e-310, 2.0**-1022, 1e-300 / math.sqrt(2.0), 1e-300, 1.0]
        edges += [1e307, maps_module._HYPOT_SAFE, sys.float_info.max, math.inf]
        edges += [-e for e in edges]
        ex, ey = (a.ravel() for a in np.meshgrid(edges, edges))
        x, y = np.concatenate([x, y, ex]), np.concatenate([y, x, ey])
        top = np.maximum(abs(x), abs(y))
        size = np.hypot(x, y)
        assert np.all(top <= size) and np.all(size <= 1.5 * top)
    # A NaN part, either one, leaves top NaN, outside the bracket, so hypot decides that point.
    edges, nan = np.array(edges + [math.nan]), np.full(len(edges) + 1, math.nan)
    for x, y in ((edges, nan), (nan, edges)):
        top = np.maximum(abs(x), abs(y))
        assert not np.any((top >= maps_module.POLE_FLOOR) & (top <= maps_module._HYPOT_SAFE))


def test_np_log1p_is_within_4_ulps_of_math_log1p():
    """The bound behind verify._LOG1P_SLACK, the rescore rule of verify._ranked_ratios
    that the search grid and the ceiling share, over every argument _j can pass: any
    finite x >= 0, from the gap ratio of two near-coincident images to one that only
    just fits the float range.  A numpy whose log1p is worse must fail here, not
    weaken the filter."""
    rng = np.random.default_rng(20)
    normal = 10.0 ** rng.uniform(-308.0, 308.0, 200_000)
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    edges = np.array([0.0, 5e-324, 2.0**-1022, 2.0**-53, 1.0, 1e300, 1.7976931348623157e308])
    x = np.concatenate([normal, subnormal, edges])
    exact = np.array([math.log1p(v) for v in x.tolist()])
    got = np.log1p(x)
    assert np.all(np.abs(got - exact) <= 4.0 * np.spacing(exact))
    # Equal where the result is subnormal, so the bound is relative there too.
    tiny = exact < 2.0**-1022
    assert np.array_equal(got[tiny], exact[tiny])
    # Zero only at zero and finite everywhere, so both passes skip the same pairs.
    assert np.array_equal(got == 0.0, x == 0.0)
    assert np.all(np.isfinite(got))


def test_np_cos_and_sin_equal_math_cos_and_sin():
    """maps._turn takes a batch's rotation factors from np.cos and np.sin, and the scalar
    path from cmath.exp, which calls libm's cos and sin: the goldens rebuild witnesses
    from scalar maps, so the two must agree in every bit, signed zeros included.  A numpy
    that dispatches float64 cos or sin to another kernel must fail here, not move goldens."""
    rng = np.random.default_rng(26)
    angles = 2.0 * math.pi * rng.random(1_000_000)
    wide = 10.0 ** rng.uniform(-308.0, 308.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    subnormal = rng.integers(1, 2**52, 20_000, dtype=np.uint64).view(np.float64)
    big = sys.float_info.max
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, math.pi, 2.0 * math.pi, big, -big])
    x = np.concatenate([angles, wide, subnormal, -subnormal, edges])
    for fast, exact in ((np.cos, math.cos), (np.sin, math.sin)):
        expected = np.fromiter(map(exact, x.tolist()), float, x.size)
        assert np.array_equal(fast(x).view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# Sampled certification against its per-point loop
# ---------------------------------------------------------------------------


def _reference_maps_into_sampled(m, src, dst, n, seed):
    """The per-point loop maps_into_sampled ran before it was batched, over the
    points the batched version draws."""
    points = maps_module.sample_interior_points(src, substream(seed, 0), n, margin=1e-6)
    for k in range(n):
        z = element(points, k)
        try:
            w = apply(m, z)
        except PoleEncountered as exc:
            logging.getLogger("jmetric.maps").warning("certification of %r hit a pole: %s", m, exc)
            return False
        if not contains(dst, w):
            return False
    return True


INVERSION = Mobius(0, 1, 1, 0)  # 1/z: pole at 0, sends H to the lower half-plane

CERTIFY_CASES = {
    "cayley": (UpperHalfPlane(), UnitDisk(), _CAYLEY),
    "blaschke3": (UnitDisk(), UnitDisk(), Blaschke(0.0, (0.5, 0.5j, -0.5))),
    "extremal": (UpperHalfPlane(), UpperHalfPlane(), Extremal(1.0, 1.0)),
    # Leaves the domain at some points but not all.
    "shift": (UnitDisk(), UnitDisk(), Mobius(1, 0.5, 0, 1)),
    "inversion": (UpperHalfPlane(), UpperHalfPlane(), INVERSION),
    # The constant inner map 1 sits on the outer map's pole, so every point is a pole hit.
    "pole": (UnitDisk(), UnitDisk(), Compose(Mobius(1, 0, 1, -1), Blaschke(0.0, ()))),
}


def _certify_both(caplog, m, src, dst, n, seed):
    """(verdict, logged messages) of maps_into_sampled and of the reference loop."""
    out = []
    for certify in (maps_into_sampled, _reference_maps_into_sampled):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="jmetric.maps"):
            verdict = certify(m, src, dst, n, seed)
        out.append((verdict, [r.getMessage() for r in caplog.records]))
    return out


@pytest.mark.parametrize("name", sorted(CERTIFY_CASES))
def test_maps_into_sampled_matches_the_per_point_loop(caplog, name):
    src, dst, m = CERTIFY_CASES[name]
    for seed, n in ((42, 1000), (7, 1), (7, 37)):
        new, ref = _certify_both(caplog, m, src, dst, n, seed)
        assert new == ref
    expected = name in ("cayley", "blaschke3", "extremal")
    assert new[0] is expected
    assert bool(new[1]) is (name == "pole")


@pytest.mark.parametrize(
    "points, verdict, pole_logged",
    [
        ([-0.5j, -2j, -1 - 1j], True, False),
        ([-0.5j, 0.5j, 0j], False, False),  # leaves H before the pole: no pole warning
        ([-0.5j, 0j, 0.5j], False, True),
        ([0j], False, True),
        ([-0.5j, -1j, 0.25 + 0.5j, 0j], False, False),
    ],
)
def test_maps_into_sampled_fails_at_the_first_failing_point(caplog, monkeypatch, points, verdict, pole_logged):
    chosen = carr([(p.real, p.imag) for p in points])
    monkeypatch.setattr(maps_module, "sample_interior_points", lambda src, rng, count, margin: chosen)
    new, ref = _certify_both(caplog, INVERSION, UnitDisk(), UpperHalfPlane(), len(points), 0)
    assert new == ref
    assert new[0] is verdict
    assert bool(new[1]) is pole_logged


def test_maps_into_sampled_raises_where_the_loop_raises(monkeypatch):
    # The denominator 1.5e308(1+i) is finite, but its modulus overflows.
    m = Mobius(1, 1, complex(1.5e308, 1.5e308), 0)
    chosen = carr([(0.5, 0.0), (1.0, 0.0)])
    monkeypatch.setattr(maps_module, "sample_interior_points", lambda src, rng, count, margin: chosen)
    for certify in (maps_into_sampled, _reference_maps_into_sampled):
        with pytest.raises(DomainError):
            certify(m, UnitDisk(), UnitDisk(), 2, 0)
