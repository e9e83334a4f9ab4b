"""The one-formula contract: each formula, run on a CArr, returns per element
the bits it returns on a complex.

CArr's operators must match CPython's complex arithmetic bit for bit, for
CArr, complex and float operands on either side.  On top of them, map
evaluation, boundary offsets, j distances, the guarded ratio, and the scoring
of the ceiling chunk and of the search grid must return exactly what a loop
over the scalar call returns: the same bits, and NaN (or a bad mark) where
the scalar raises or returns None.  The array samplers draw whole blocks from the chunk's
generator and have no scalar counterpart; their tests check margins,
separations, bounded rejection and reproducibility instead.
"""

import logging
import math
import operator
import struct
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import jmetric.maps as maps_module
import jmetric.verify as verify_module
from jmetric.domains import (
    CArr,
    Disk,
    HalfPlane,
    UnitDisk,
    UpperHalfPlane,
    contains,
    j_distance,
    j_distances,
    signed_boundary_offset,
)
from jmetric.errors import DomainError, JmetricError, PoleEncountered
from jmetric.maps import (
    Blaschke,
    Compose,
    Extremal,
    Mobius,
    apply,
    apply_arrays,
    maps_into_sampled,
    mobius_image_domain,
)
from jmetric.sampling import Uniforms, sample_interior_pairs, sample_interior_points, substream
from jmetric.search import _GRID_ROWS_PER_CHUNK, SearchConfig, _grid_chunk, _Region, ratio_objective
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


@pytest.mark.parametrize("domain", DOMAINS, ids=repr)
@PROPERTY
@given(POINTS, POINTS)
@example([(0.0, 1e-300)], [(0.0, 1e10)])
@example([(1e308, 1.0)], [(-1e308, 1.0)])
def test_j_distances_match_the_scalar(domain, left, right):
    n = min(len(left), len(right))
    z, w = carr(left[:n]), carr(right[:n])
    j = j_distances(domain, z, w)
    for k in range(n):
        assert same(_scalar_j(domain, element(z, k), element(w, k)), j[k])


def test_j_distances_of_points_inside():
    rng = np.random.default_rng(3)
    z, w = CArr(*rng.uniform(-0.7, 0.7, (2, 200))), CArr(*rng.uniform(-0.7, 0.7, (2, 200)))
    j = j_distances(UnitDisk(), z, w)
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


def _scalar_apply(m, z):
    try:
        return apply(m, z)
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
def test_apply_arrays_match_apply(m, points, nudges):
    points = points + [(p.real + t, p.imag - t) for p in _poles(m) for t in nudges + [0.0]]
    z = carr(points)
    f, bad = apply_arrays(m, z)
    assert f.real.shape == f.imag.shape == bad.shape == (len(points),)
    for k in range(len(points)):
        scalar = _scalar_apply(m, element(z, k))
        assert bad[k] == (scalar is None)
        if scalar is not None:
            assert same(scalar, f.real[k], f.imag[k])


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
    ratio = guarded_ratios(src, dst, m, z, w)
    for k in range(n):
        scalar = guarded_ratio(src, dst, m, element(z, k), element(w, k))
        assert same(math.nan if scalar is None else scalar, ratio[k])


def test_guarded_ratios_on_sampled_pairs_with_skips():
    # The Cayley map sends the half-plane onto the unit disk; 1.2 times it
    # sends most pairs partly outside, which both forms skip.
    rng = substream(5, 0)
    z, w = sample_interior_pairs(UpperHalfPlane(), rng, 500, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
    skipped = []
    for m in (_CAYLEY, Mobius(1.2, -1.2j, 1, 1j)):
        ratio = guarded_ratios(UpperHalfPlane(), UnitDisk(), m, z, w)
        for k in range(500):
            scalar = guarded_ratio(UpperHalfPlane(), UnitDisk(), m, element(z, k), element(w, k))
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
    points = sample_interior_points(domain, rng, count, 1e-2, 10.0)
    z, w = sample_interior_pairs(domain, rng, count, 1e-2, 0.05, 10.0)
    for x in (points, z, w):
        assert x.real.shape == x.imag.shape == (count,)
        assert (signed_boundary_offset(domain, x) >= 1e-2).all()
    assert (abs(z - w) >= 0.05).all()


def test_large_separation_redraws_only_the_close_pairs():
    # Separation 0 redraws nothing; separation 1 redraws the w's of a good
    # share of unit-disk pairs, and only those.
    z, w = sample_interior_pairs(UnitDisk(), substream(3, 1), 2000, PAIR_MARGIN, 0.0)
    far_z, far_w = sample_interior_pairs(UnitDisk(), substream(3, 1), 2000, PAIR_MARGIN, 1.0)
    assert far_w.real.shape == (2000,)
    assert (abs(far_z - far_w) >= 1.0).all()
    close = abs(z - w) < 1.0
    assert 100 < close.sum() < 1900
    assert np.array_equal(far_z.real, z.real) and np.array_equal(far_z.imag, z.imag)
    assert np.array_equal(far_w.real[~close], w.real[~close]) and (far_w.real[close] != w.real[close]).all()


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
    assert all(np.array_equal(x.real, y.real) and np.array_equal(x.imag, y.imag) for x, y in zip(first, second))
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
        zs, ws = sample_interior_pairs(src, rng, count, PAIR_MARGIN, PAIR_SEPARATION, HALFPLANE_SPAN)
        for k in range(count):
            z, w = element(zs, k), element(ws, k)
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


# ---------------------------------------------------------------------------
# The search grid chunk against a per-pair scoring loop
# ---------------------------------------------------------------------------


def _reference_grid_chunk(src, dst, m, separation, points, lo, hi, keep):
    """Evaluate pairs (points[i], points[j]) for i in [lo, hi); return the
    chunk's evaluation count and its `keep` best (ratio, i, j) entries."""
    found = []
    evals = 0
    for i in range(lo, hi):
        z = points[i]
        for j, w in enumerate(points):
            if abs(z - w) < separation:
                continue
            value = ratio_objective(src, dst, m, z, w)
            evals += 1
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
}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_chunk_matches_the_per_pair_loop(name):
    src, dst, m = GRID_CASES[name]
    region = _Region(src, SearchConfig(grid_per_axis=10))
    points = [region.point(a, b) for a, b in region.grid_coords()]
    rows = len(points)
    assert rows % _GRID_ROWS_PER_CHUNK != 0  # the last block is partial
    last = (rows - 1) // _GRID_ROWS_PER_CHUNK * _GRID_ROWS_PER_CHUNK
    blocks = [(0, _GRID_ROWS_PER_CHUNK), (last, rows), (5, 6)]
    # A separation equal to the spacing of two grid neighbours puts pairs on the < edge.
    spacing = abs(points[1] - points[0])
    assert sum(abs(z - w) == spacing for z in points for w in points) > 0
    grid = carr([(p.real, p.imag) for p in points])
    for separation in (1e-7, spacing):
        for lo, hi in blocks:
            for keep in (1, 16, rows * rows):
                evals, top = _grid_chunk(src, dst, m, separation, grid, lo, hi, keep)
                ref_evals, ref_top = _reference_grid_chunk(src, dst, m, separation, points, lo, hi, keep)
                assert evals == ref_evals
                assert [(bits(r), i, j) for r, i, j in top] == [(bits(r), i, j) for r, i, j in ref_top]
                assert all(type(i) is int and type(j) is int for _, i, j in top)
    if name == "infeasible":
        evals, top = _grid_chunk(src, dst, m, 1e-7, grid, 0, rows, rows * rows)
        assert 0 < len(top) < evals


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
