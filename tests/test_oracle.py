"""A 50-digit oracle for the distortion search's witnesses and for Moebius
image domains.

Each search reports a witness pair (z, w) and best_ratio, the float value of
j_dst(f(z), f(w)) / j_src(z, w) there.  This module evaluates the same ratio
at the same points with mpmath at 50 significant digits, through formulas
written here independently of jmetric, and requires the float value to agree
with it to 1e-9 and the exact value to respect the proven ceiling of 2.
Each image domain is held to the image of the source's circle equation,
carried through the map as a Hermitian matrix at the same precision.
"""

import math

import mpmath
import pytest

from jmetric.domains import Disk, HalfPlane, UnitDisk, UpperHalfPlane
import numpy as np

from jmetric.domains import CArr
from jmetric.grammar import parse_complex, parse_domain, parse_map
from jmetric.maps import (
    Blaschke,
    Compose,
    Extremal,
    Mobius,
    _divided,
    _raise_at_pole,
    _rounding_scale,
    apply,
    apply_arrays,
    mobius_image_domain,
    mobius_inverse,
)
from jmetric.sampling import Uniforms, sample_interior_points, substream
from jmetric.search import THEORETICAL_CEILING, SearchConfig, estimate_lipschitz
from jmetric.verify import (
    HALFPLANE_SPAN,
    PAIR_MARGIN,
    _ROWS,
    _disk_maps,
    _exact_ratios,
    _halfplane_maps,
    _mapped_pairs,
    _random_image_source_and_mobius,
    check_lipschitz_pair,
    guarded_ratio,
    lipschitz_ceiling,
    run_suite,
)

DIGITS = 50
TOLERANCE = 1e-9

CAYLEY = Mobius(1.0, -1j, 1.0, 1j)

# (source domain, map, self-map?); a map that is not a self-map is searched
# against its computed image domain.
SEARCHES = {
    "automorphism": (UnitDisk(), Blaschke(0.0, (0.5,)), True),
    "extremal": (UpperHalfPlane(), Extremal(1.0, 1.0), True),
    "cayley": (UpperHalfPlane(), CAYLEY, False),
    "blaschke3": (UnitDisk(), Blaschke(0.0, (0.5, 0.5j, -0.5)), True),
}


def _exact_map(m, z):
    if isinstance(m, Mobius):
        return (m.a * z + m.b) / (m.c * z + m.d)
    if isinstance(m, Blaschke):
        value = mpmath.expj(m.rotation)
        for a in m.zeros:
            a = mpmath.mpc(a)
            value *= (z - a) / (1 - mpmath.conj(a) * z)
        return value
    if isinstance(m, Extremal):
        return m.a - 1 / (m.b + z)
    if isinstance(m, Compose):
        return _exact_map(m.outer, _exact_map(m.inner, z))
    raise TypeError(f"no exact form for {m!r}")


def _exact_boundary_distance(domain, z):
    if isinstance(domain, UnitDisk):
        return 1 - abs(z)
    if isinstance(domain, UpperHalfPlane):
        return z.imag
    if isinstance(domain, Disk):
        return domain.radius - abs(z - mpmath.mpc(domain.center))
    if isinstance(domain, HalfPlane):
        n = domain.normal
        return z.real * n.real + z.imag * n.imag - domain.offset
    raise TypeError(f"no exact form for {domain!r}")


def _exact_j(domain, z, w):
    nearest = min(_exact_boundary_distance(domain, z), _exact_boundary_distance(domain, w))
    assert nearest > 0
    return mpmath.log1p(abs(z - w) / nearest)


def exact_ratio(src, dst, m, z: complex, w: complex):
    """j_dst(f(z), f(w)) / j_src(z, w) at DIGITS significant digits; the float
    points and coefficients are taken as exact binary values."""
    with mpmath.workdps(DIGITS):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return _exact_j(dst, _exact_map(m, z), _exact_map(m, w)) / _exact_j(src, z, w)


def test_exact_ratio_hand_values():
    # The identity is an isometry, and the extremal family's closed form
    # log(1 + t sqrt(1 + t^2)) / log(1 + t) holds at t = 1 with a = b = 0.
    half = UpperHalfPlane()
    assert exact_ratio(half, half, Mobius(1, 0, 0, 1), 2j, 1 + 1j) == 1
    with mpmath.workdps(DIGITS):
        closed = mpmath.log(1 + mpmath.sqrt(2)) / mpmath.log(2)
        assert abs(exact_ratio(half, half, Extremal(0.0, 0.0), 1 + 1j, 1j) - closed) < mpmath.mpf(10) ** -45


@pytest.mark.parametrize("grid", [8, 24])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_witness_agrees_with_the_oracle(name, grid):
    src, m, self_map = SEARCHES[name]
    report = estimate_lipschitz(src, m, SearchConfig(grid_per_axis=grid, seed=42))
    dst = src if self_map else mobius_image_domain(m, src)
    exact = exact_ratio(src, dst, m, report.witness_z, report.witness_w)
    assert abs(report.best_ratio - exact) <= TOLERANCE
    assert exact <= THEORETICAL_CEILING


# Reports whose worst margin is 2 minus a ratio: the suite's and the three ceilings'.
RATIO_REPORTS = {
    "lipschitz-pair": lambda: run_suite("lipschitz-pair", 8192, 42),
    "ceiling-disk": lambda: lipschitz_ceiling("disk", 8, 10_000, 42),
    "ceiling-halfplane": lambda: lipschitz_ceiling("halfplane", 8, 10_000, 42),
    "ceiling-mobius-images": lambda: lipschitz_ceiling("mobius-images", 8, 10_000, 42),
}


@pytest.mark.parametrize("name", sorted(RATIO_REPORTS))
def test_report_witness_agrees_with_both_scalar_routines_and_the_oracle(name):
    # The witness, parsed back from its text, scores the report's margin bit for bit through
    # both public scalar routines; the exact ratio there is within the 5e-10 that
    # verify._GAP_TRUST is derived for, and gives the same verdict at the 1e-9 tolerance.
    report = RATIO_REPORTS[name]()
    witness = report.worst_witness
    src, dst = parse_domain(witness["src"]), parse_domain(witness["dst"])
    m, z, w = parse_map(witness["map"]), parse_complex(witness["z"]), parse_complex(witness["w"])
    assert 2.0 - check_lipschitz_pair(src, dst, m, z, w) == report.worst_margin
    assert 2.0 - guarded_ratio(src, dst, m, z, w) == report.worst_margin
    exact = exact_ratio(src, dst, m, z, w)
    assert abs(exact - (2.0 - report.worst_margin)) <= 5e-10 * exact
    assert report.passed == (2 - exact >= -TOLERANCE)


# Pairs whose images agree to more than 12 digits, so that the difference of the two
# rounded images is mostly rounding: it once scored 4.21 on the disk pair (4 ulps apart)
# and 14.6 on the extremal search's grid-12 witness (1e-7 apart at |z| ~ 8e4).
NEAR_PAIRS = {
    "disk-4-ulps": (UnitDisk(), Blaschke(0.0, (0.5,)), -0.22000000000000003 - 0.265j, -0.21999999999999992 - 0.265j),
    "extremal-grid-12": (
        UpperHalfPlane(),
        Extremal(1.0, 1.0),
        -272.727272377603 + 81113.08307896863j,
        -272.7272722775997 + 81113.08307896863j,
    ),
}


@pytest.mark.parametrize("name", sorted(NEAR_PAIRS))
def test_near_coincident_images_agree_with_the_oracle(name):
    domain, m, z, w = NEAR_PAIRS[name]
    exact = exact_ratio(domain, domain, m, z, w)
    z_array, w_array = (CArr(np.array([p.real]), np.array([p.imag])) for p in (z, w))
    with np.errstate(all="ignore"):
        array = float(_mapped_pairs(domain, domain, m, z_array, w_array, _exact_ratios)[0])
    for ratio in (guarded_ratio(domain, domain, m, z, w), check_lipschitz_pair(domain, domain, m, z, w), array):
        assert abs(ratio - exact) <= 1e-12 * exact


DIVIDED_MAPS = {
    "mobius": Mobius(2 + 1j, -0.5, 0.3 - 1j, 1.5),
    "extremal": Extremal(0.7, -1.3),
    "blaschke": Blaschke(0.4, (0.5, 0.3 - 0.6j, -0.9j)),
    "compose": Compose(Blaschke(1.1, (0.2 + 0.7j,)), Mobius(1, 0.25, 0.5j, 2)),
}


@pytest.mark.parametrize("name", sorted(DIVIDED_MAPS))
def test_divided_differences_agree_with_the_oracle(name):
    # (f(z) - f(w)) / (z - w) from 1e-2 down to 1e-15 apart, and f'(z) at w = z.
    m = DIVIDED_MAPS[name]
    rng = np.random.default_rng(7)
    for z in (complex(*p) for p in 0.6 * rng.random((5, 2)) - 0.3):
        for h in (1e-2, 1e-6, 1e-10, 1e-15, 0.0):
            w = z + complex(h, -h / 3)
            with mpmath.workdps(DIGITS):
                zz, ww = mpmath.mpc(z), mpmath.mpc(w)
                if z == w:
                    exact = mpmath.diff(lambda t: _exact_map(m, t), zz)
                    w = z
                else:
                    exact = (_exact_map(m, zz) - _exact_map(m, ww)) / (zz - ww)
                assert abs(_divided(m, z, w, _raise_at_pole) - exact) <= 1e-13 * abs(exact)


# Maps whose last operation cancels near the base point (a zero of a - 1/(b+z), of the
# numerator az + b), so an image there carries an error of about u |a|, far above u |f|.
# The rounded images' difference once scored 1.0000000850361197 at height 1e-5 and gap
# 1e-9, against 1.00000000099995.
CANCELLING = {
    "extremal": (Extremal(1.0, 1.0), 0j),
    "mobius": (Mobius(1.0, -1.0, 1.0, 1.0), 1 + 0j),
    "compose": (Compose(Extremal(1.0, 1.0), Mobius(1.0, -1.0, 1.0, 1.0)), 1 + 0j),
}


@pytest.mark.parametrize("name", sorted(CANCELLING))
def test_cancelling_evaluations_agree_with_the_oracle(name):
    # Heights 1e-3 to 1e-6 above the base point and gaps 1e-2 to 1e-4 of the height, in
    # three directions: within the 5e-10 relative accuracy that verify._GAP_TRUST is
    # derived for, from the scalar and the array scorer alike.
    half = UpperHalfPlane()
    m, base = CANCELLING[name]
    for y in (1e-3, 1e-4, 1e-5, 1e-6):
        for step in (1e-2, 1e-3, 1e-4):
            for direction in (1, 1j, 1 + 1j):
                z = base + complex(0.0, y)
                w = z + direction * step * y
                exact = exact_ratio(half, half, m, z, w)
                z_array, w_array = (CArr(np.array([p.real]), np.array([p.imag])) for p in (z, w))
                with np.errstate(all="ignore"):
                    array = float(_mapped_pairs(half, half, m, z_array, w_array, _exact_ratios)[0])
                ratio = guarded_ratio(half, half, m, z, w)
                assert ratio == check_lipschitz_pair(half, half, m, z, w) == array
                assert abs(ratio - exact) <= 5e-10 * exact, (y, step, direction)


NESTED = {
    "halfplane-outer": (UpperHalfPlane(), Compose(Compose(Extremal(1.0, 0.5), Mobius(2.0, 1.0, 1.0, 1.0)), Extremal(0.3, 1.0))),
    "halfplane-inner": (UpperHalfPlane(), Compose(Extremal(1.0, 1.0), Compose(Mobius(1.0, -1.0, 1.0, 1.0), Extremal(0.0, 2.0)))),
    "disk-inner": (UnitDisk(), Compose(Blaschke(0.3, (0.5, -0.2j)), Compose(Blaschke(0.0, (0.9,)), Blaschke(1.0, (0.1 + 0.1j,))))),
}


@pytest.mark.parametrize("name", sorted(NESTED))
def test_nested_compositions_agree_with_the_oracle(name):
    # A composition with a composition inside evaluates its inner values for the rounding
    # scale; gaps 1e-9 to 1e-1 of the distance to the boundary.
    domain, m = NESTED[name]
    rng = np.random.default_rng(5)
    for _ in range(40):
        if isinstance(domain, UpperHalfPlane):
            z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, 1.0))
            reach = z.imag
        else:
            r, t = 0.999 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
            z = complex(r * math.cos(t), r * math.sin(t))
            reach = 1.0 - abs(z)
        w = z + complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-9.0, -1.0) * reach
        ratio = guarded_ratio(domain, domain, m, z, w)
        z_array, w_array = (CArr(np.array([p.real]), np.array([p.imag])) for p in (z, w))
        with np.errstate(all="ignore"):
            array = float(_mapped_pairs(domain, domain, m, z_array, w_array, _exact_ratios)[0])
        if ratio is None:
            assert math.isnan(array)
            continue
        assert ratio == array
        exact = exact_ratio(domain, domain, m, z, w)
        assert abs(ratio - exact) <= 5e-10 * exact, (z, w)


@pytest.mark.parametrize("name", sorted(NESTED))
def test_nested_rounding_scales_are_finite_inside(name):
    # An inner value h is bounded by |h|: |Re h| + |Im h| can pass 1 inside the disk, where
    # a Blaschke layer's scale is then inf and every pair falls back on f[z, w].
    domain, m = NESTED[name]
    z = sample_interior_points(domain, substream(7, 0), 2000, 1e-3, 10.0)
    with np.errstate(all="ignore"):
        f, bad = apply_arrays(m, z)
        scale = _rounding_scale(m, z, f, abs(f))
    assert not bad.any() and np.isfinite(scale).all()
    for k in range(0, 2000, 50):  # the scalar path takes the same bound
        point = z.at(k)
        image = apply(m, point)
        assert _rounding_scale(m, point, image, abs(image)) == scale[k]


def test_underflowing_divided_difference_keeps_the_rounded_gap():
    # Both denominators are 1e-170, so (b + z)(b + w) underflows to 0 and f[z, w] is not a
    # float; the images' own difference is accurate here and gives the ratio.
    _assert_every_path_agrees_with_the_oracle(Extremal(0.0, 0.0), 1e-170j, 1e-180 + 1e-170j)


def test_subnormal_denominator_product_keeps_the_divided_difference():
    # |det| = 2e-12 and both denominators are about 1e-158, so den_z den_w (about 1e-316)
    # is subnormal and keeps a few digits; det divided by each in turn keeps them all.
    z = 3e-159 + 1e-158j
    _assert_every_path_agrees_with_the_oracle(Mobius(0, -2e-12, 1, 0), z, z * (1 + 1e-9))


def _assert_every_path_agrees_with_the_oracle(m, z, w):
    """guarded_ratio, check_lipschitz_pair and the array scorer on H agree with exact_ratio."""
    half = UpperHalfPlane()
    exact = exact_ratio(half, half, m, z, w)
    z_array, w_array = (CArr(np.array([p.real]), np.array([p.imag])) for p in (z, w))
    with np.errstate(all="ignore"):
        array = float(_mapped_pairs(half, half, m, z_array, w_array, _exact_ratios)[0])
    for ratio in (guarded_ratio(half, half, m, z, w), check_lipschitz_pair(half, half, m, z, w), array):
        assert abs(ratio - exact) <= 1e-12 * exact


# Near-coincident pairs of the suites' own draws: seeded maps of both lipschitz-pair
# families, z at PAIR_MARGIN and w = z + g |z| e^(i theta), g from 1e-10 down to 1e-15.
NEAR_GAPS = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15)
SUITE_FAMILIES = {
    "halfplane": (UpperHalfPlane(), _halfplane_maps, ("step-1-2", "schwarz-pick-halfplane")),
    "disk": (UnitDisk(), _disk_maps, ("step-2-2", "schwarz-pick-disk")),
}


@pytest.mark.parametrize("name", sorted(SUITE_FAMILIES))
def test_near_coincident_suite_pairs_agree_with_the_oracle(name, scalar_margin):
    # Scored by the lipschitz-pair suite's scorer, each ratio is within the 5e-10 that
    # verify._GAP_TRUST is derived for and at most the ceiling; the image rows' margins
    # on the same pairs stay within their tolerances.
    domain, family, rows = SUITE_FAMILIES[name]
    n = 10 * len(NEAR_GAPS)
    m = family(substream(3, 0), n)
    z = sample_interior_points(domain, substream(3, 1), n, PAIR_MARGIN, HALFPLANE_SPAN)
    theta = 2.0 * math.pi * substream(3, 2).random(n)
    g = np.resize(NEAR_GAPS, n) * abs(z)
    w = CArr(z.real + g * np.cos(theta), z.imag + g * np.sin(theta))
    with np.errstate(all="ignore"):
        ratio = _mapped_pairs(domain, domain, m, z, w, _exact_ratios)
    for k in np.flatnonzero(np.isfinite(ratio)).tolist():
        exact = exact_ratio(domain, domain, m[k], z.at(k), w.at(k))
        assert abs(ratio[k] - exact) <= 5e-10 * exact and ratio[k] <= THEORETICAL_CEILING + 1e-9, k
        assert exact <= THEORETICAL_CEILING
    for k in range(n):
        for row in rows:
            assert not scalar_margin(row, (m[k], z.at(k), w.at(k))) < -_ROWS[row][2], (row, k)
    assert np.count_nonzero(np.isfinite(ratio)) >= 0.9 * n


# Image domains.  A source is {z : Q(z) < 0} for the Hermitian form
# Q(z) = [conj(z), 1] H [z, 1]^T.  With z = (dw - b)/(a - cw) and N = [[d, -b], [-c, a]],
# N [w, 1]^T = (a - cw) [z, 1]^T, so Q(z) |a - cw|^2 = [conj(w), 1] N^H H N [w, 1]^T
# and the image is where that form is negative.
IMAGE_TOLERANCE = 2e-15


def _source_form(domain):
    if isinstance(domain, (UnitDisk, Disk)):
        center, radius = mpmath.mpc(domain.center), mpmath.mpf(domain.radius)
        return mpmath.matrix([[1, -center], [-mpmath.conj(center), abs(center) ** 2 - radius**2]])
    normal = mpmath.mpc(1j) if isinstance(domain, UpperHalfPlane) else mpmath.mpc(domain.normal)
    offset = 0 if isinstance(domain, UpperHalfPlane) else mpmath.mpf(domain.offset)
    return mpmath.matrix([[0, -normal / 2], [-mpmath.conj(normal) / 2, offset]])


def _source_boundary(domain):
    """Four points on the source boundary and one inside, off every pole used below."""
    if isinstance(domain, (UnitDisk, Disk)):
        center, radius = mpmath.mpc(domain.center), mpmath.mpf(domain.radius)
        ring = [center + radius * mpmath.expj(mpmath.pi * (k + 0.5) / 2) for k in range(4)]
        return ring, center
    normal = mpmath.mpc(1j) if isinstance(domain, UpperHalfPlane) else mpmath.mpc(domain.normal)
    offset = 0 if isinstance(domain, UpperHalfPlane) else mpmath.mpf(domain.offset)
    base = offset * normal / abs(normal) ** 2  # a drawn normal is a unit vector only to rounding
    return [base + (k - 1.5) * 1j * normal for k in range(4)], base + normal


def exact_image(m, domain):
    """("disk", center, radius) or ("halfplane", normal, offset) of m(domain) at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        n = mpmath.matrix([[m.d, -m.b], [-m.c, m.a]])
        form = n.H * _source_form(domain) * n
        a, b, c = mpmath.re(form[0, 0]), form[0, 1], mpmath.re(form[1, 1])
        if abs(a) <= mpmath.mpf(10) ** (5 - DIGITS) * abs(b):
            return "halfplane", -b / abs(b), c / (2 * abs(b))
        assert a > 0, "the pole lies inside the source"
        return "disk", -b / a, mpmath.sqrt(abs(b) ** 2 - a * c) / a


def _image_error(m, domain):
    """Checks the oracle's image against mapped source points, then returns the float
    image's relative errors: (center error / (|center| + r), radius error / r) for a
    disk, (normal error, offset error / (1 + |offset|)) for a half-plane."""
    kind, first, second = exact_image(m, domain)
    with mpmath.workdps(DIGITS):
        ring, inside = _source_boundary(domain)
        scale = abs(first) + abs(second) + 1
        for p in ring:
            q = _exact_map(m, p)
            on = abs(q - first) - second if kind == "disk" else mpmath.re(q * mpmath.conj(first)) - second
            assert abs(on) <= mpmath.mpf(10) ** (10 - DIGITS) * scale
        q = _exact_map(m, inside)
        assert (abs(q - first) < second) if kind == "disk" else (mpmath.re(q * mpmath.conj(first)) > second)
        image = mobius_image_domain(m, domain)
        if kind == "disk":
            assert isinstance(image, (UnitDisk, Disk))
            bound = abs(first) + second
            return float(abs(image.center - first) / bound), float(abs(image.radius - second) / second)
        assert isinstance(image, (UpperHalfPlane, HalfPlane))
        normal, offset = (1j, 0.0) if isinstance(image, UpperHalfPlane) else (image.normal, image.offset)
        return float(abs(normal - first)), float(abs(offset - second) / (1 + abs(second)))


EXACT_IMAGES = {
    "cayley": (CAYLEY, UpperHalfPlane()),
    "identity": (Mobius(1, 0, 0, 1), UnitDisk()),
    "doubling": (Mobius(2, 0, 0, 1), UnitDisk()),
    "inverse-cayley": (mobius_inverse(CAYLEY), UnitDisk()),
    "real-mobius": (Mobius(2, 1, 1, 1), UpperHalfPlane()),
}


@pytest.mark.parametrize("name", sorted(EXACT_IMAGES))
def test_exact_image_domains_agree_with_the_oracle(name):
    m, domain = EXACT_IMAGES[name]
    assert max(_image_error(m, domain)) <= IMAGE_TOLERANCE


def test_ceiling_image_domains_agree_with_the_oracle():
    # The mobius-images ceiling's family: 20 draws from each of seeds 0-99.
    worst = (0.0, 0.0)
    for seed in range(100):
        u = Uniforms(substream(seed, 1))
        for _ in range(20):
            src, m = _random_image_source_and_mobius(u)
            worst = max(worst, _image_error(m, src), key=max)
    assert max(worst) <= IMAGE_TOLERANCE, worst
