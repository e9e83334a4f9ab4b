"""A 50-digit oracle for the distortion search's witnesses.

Each search reports a witness pair (z, w) and best_ratio, the float value of
j_dst(f(z), f(w)) / j_src(z, w) there.  This module evaluates the same ratio
at the same points with mpmath at 50 significant digits, through formulas
written here independently of jmetric, and requires the float value to agree
with it to 1e-9 and the exact value to respect the proven ceiling of 2.
"""

import mpmath
import pytest

from jmetric.domains import Disk, HalfPlane, UnitDisk, UpperHalfPlane
from jmetric.maps import Blaschke, Extremal, Mobius, mobius_image_domain
from jmetric.search import THEORETICAL_CEILING, SearchConfig, estimate_lipschitz

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
