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

import mpmath
import pytest

from jmetric.domains import Disk, HalfPlane, UnitDisk, UpperHalfPlane
from jmetric.maps import Blaschke, Extremal, Mobius, mobius_image_domain, mobius_inverse
from jmetric.sampling import Uniforms, substream
from jmetric.search import THEORETICAL_CEILING, SearchConfig, estimate_lipschitz
from jmetric.verify import _random_image_source_and_mobius

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
