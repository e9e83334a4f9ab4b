import math

import numpy as np
import pytest

from jmetric.domains import (
    CArr,
    Disk,
    HalfPlane,
    UnitDisk,
    UpperHalfPlane,
    boundary_distance,
    contains,
    j_distance,
    pseudo_hyperbolic_disk,
    pseudo_hyperbolic_halfplane,
)
from jmetric.errors import DomainError, PointOutsideDomain
from jmetric.sampling import Uniforms, sample_interior, sample_interior_pair, substream

D = UnitDisk()
H = UpperHalfPlane()


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


class TestContains:
    def test_halfplane_interior(self):
        assert contains(H, 1j)

    def test_boundary_point_excluded(self):
        assert not contains(D, 1.0 + 0j)

    def test_shifted_disk(self):
        assert contains(Disk(2.0 + 0j, 0.5), 2.25 + 0j)

    def test_outside(self):
        assert not contains(H, -1j)
        assert not contains(Disk(2.0 + 0j, 0.5), 2.75 + 0j)


class TestBoundaryDistance:
    def test_halfplane_is_height(self):
        assert boundary_distance(H, 3 + 2j) == 2.0

    def test_unit_disk(self):
        assert boundary_distance(D, 0.5 + 0j) == 0.5

    def test_disk_center(self):
        assert boundary_distance(Disk(1 + 1j, 2.0), 1 + 1j) == 2.0

    def test_outside_raises(self):
        with pytest.raises(PointOutsideDomain):
            boundary_distance(H, -1j)
        with pytest.raises(PointOutsideDomain):
            boundary_distance(D, 1.0 + 0j)


class TestJDistance:
    def test_zero_at_coincidence(self):
        assert j_distance(H, 1j, 1j) == 0.0

    def test_halfplane_hand_value(self):
        # |i - 2i| = 1, min height 1: log(1 + 1)
        assert close(j_distance(H, 1j, 2j), math.log(2.0), 1e-15)

    def test_disk_hand_value(self):
        # |z - w| = 1, min boundary distance 0.5: log 3
        assert close(j_distance(D, 0.5 + 0j, -0.5 + 0j), math.log(3.0), 1e-15)

    def test_outside_raises(self):
        with pytest.raises(PointOutsideDomain):
            j_distance(D, 0.5 + 0j, 1.5 + 0j)

    def test_small_gap_accuracy(self):
        # log1p keeps gaps near 1e-12 at full relative accuracy
        got = j_distance(H, 1j, 1j + 1e-12)
        assert close(got, 1e-12, 1e-24)


class TestPseudoHyperbolic:
    def test_disk_against_origin(self):
        assert pseudo_hyperbolic_disk(0j, 0.5 + 0j) == 0.5

    def test_disk_coincident(self):
        assert pseudo_hyperbolic_disk(0.3 + 0.4j, 0.3 + 0.4j) == 0.0

    def test_disk_hand_value(self):
        assert close(pseudo_hyperbolic_disk(0.5 + 0j, -0.5 + 0j), 0.8, 1e-15)

    def test_halfplane_coincident(self):
        assert pseudo_hyperbolic_halfplane(1j, 1j) == 0.0

    def test_halfplane_hand_values(self):
        assert close(pseudo_hyperbolic_halfplane(1j, 2j), 1.0 / 3.0, 1e-15)
        assert close(pseudo_hyperbolic_halfplane(1 + 1j, -1 + 1j), 2.0 / math.sqrt(8.0), 1e-15)

    def test_halfplane_past_the_float_range(self):
        # z - conj(w) overflows: the quotient 0.5e308 / 2.5e308 once came out 0.0.  Here
        # z - w overflows too, and the value, 1 to double precision, once came out NaN.
        assert pseudo_hyperbolic_halfplane(1e308j, 1.5e308j) == 0.2
        assert pseudo_hyperbolic_halfplane(1.7e308 + 1j, -1.7e308 + 1j) == 1.0
        # A batch takes the halves only where they are needed.
        z = CArr(np.array([1.0, 0.0]), np.array([1.0, 1e308]))
        w = CArr(np.array([-1.0, 0.0]), np.array([1.0, 1.5e308]))
        with np.errstate(all="ignore"):
            value = pseudo_hyperbolic_halfplane(z, w)
        assert value.tolist() == [pseudo_hyperbolic_halfplane(1 + 1j, -1 + 1j), 0.2]

    def test_interior_required(self):
        with pytest.raises(PointOutsideDomain):
            pseudo_hyperbolic_disk(1.0 + 0j, 0j)
        with pytest.raises(PointOutsideDomain):
            pseudo_hyperbolic_halfplane(1j, -1j)


DOMAINS = [
    UnitDisk(),
    UpperHalfPlane(),
    Disk(1 + 1j, 2.0),
    HalfPlane(complex(math.cos(0.7), math.sin(0.7)), -0.25),
]


@pytest.mark.parametrize("domain", DOMAINS, ids=str)
def test_metric_axioms_on_seeded_triples(domain):
    u = Uniforms(substream(1234, 0))
    for _ in range(10_000):
        x = sample_interior(domain, u)
        y = sample_interior(domain, u)
        z = sample_interior(domain, u)
        jxy = j_distance(domain, x, y)
        jyx = j_distance(domain, y, x)
        assert jxy == jyx  # symmetry, bit exact
        assert jxy >= 0.0
        assert (jxy == 0.0) == (x == y)
        assert j_distance(domain, x, z) <= jxy + j_distance(domain, y, z) + 1e-12


def test_monotone_under_shrinking_domain():
    inner, outer = Disk(0j, 1.0), Disk(0j, 2.0)
    u = Uniforms(substream(99, 0))
    for _ in range(1000):
        z, w = sample_interior_pair(inner, u)
        assert j_distance(inner, z, w) > j_distance(outer, z, w)


def test_pseudo_hyperbolic_ranges():
    u = Uniforms(substream(7, 0))
    for _ in range(2000):
        z, w = sample_interior_pair(D, u)
        assert 0.0 <= pseudo_hyperbolic_disk(z, w) < 1.0
        p, q = sample_interior_pair(H, u)
        assert 0.0 <= pseudo_hyperbolic_halfplane(p, q) < 1.0


def test_canonical_tags_bit_identical():
    plain_disk = Disk(0j, 1.0)
    plain_half = HalfPlane(1j, 0.0)
    u = Uniforms(substream(5150, 0))
    for _ in range(1000):
        z, w = sample_interior_pair(D, u)
        assert j_distance(D, z, w) == j_distance(plain_disk, z, w)
        p, q = sample_interior_pair(H, u)
        assert j_distance(H, p, q) == j_distance(plain_half, p, q)


class TestConstruction:
    def test_radius_must_be_positive(self):
        with pytest.raises(DomainError):
            Disk(0j, 0.0)
        with pytest.raises(DomainError):
            Disk(0j, -1.0)

    def test_normal_must_be_unit(self):
        with pytest.raises(DomainError):
            HalfPlane(2j, 0.0)
        HalfPlane(complex(math.cos(1.1), math.sin(1.1)), 3.0)  # fine

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Disk(complex(float("nan"), 0.0), 1.0)
        with pytest.raises(DomainError):
            HalfPlane(1j, float("inf"))


class TestNonFinitePoints:
    # a NaN coordinate must never flow into a metric value, even when the
    # other coordinate alone would pass the interiority test
    def test_contains_is_false(self):
        sneaky = complex(float("nan"), 1.0)
        assert not contains(H, sneaky)
        assert not contains(D, complex(float("inf"), 0.0))

    def test_boundary_distance_raises(self):
        with pytest.raises(PointOutsideDomain):
            boundary_distance(H, complex(float("nan"), 1.0))

    def test_j_distance_raises(self):
        with pytest.raises(PointOutsideDomain):
            j_distance(H, complex(float("nan"), 1.0), 2j)

    def test_pseudo_hyperbolic_raises(self):
        with pytest.raises(PointOutsideDomain):
            pseudo_hyperbolic_halfplane(complex(float("nan"), 1.0), 2j)
        with pytest.raises(PointOutsideDomain):
            pseudo_hyperbolic_disk(complex(float("nan"), 0.0), 0j)


class TestOverflowingPoints:
    # finite coordinates whose modulus abs() cannot represent (past ~1.3e308 each)
    BIG = complex(1.7e308, 1.7e308)

    def test_contains_is_false(self):
        assert not contains(D, self.BIG)
        assert not contains(Disk(1 + 1j, 2.0), self.BIG)

    def test_boundary_distance_raises_package_error(self):
        for domain in (D, Disk(1 + 1j, 2.0)):
            with pytest.raises(PointOutsideDomain):
                boundary_distance(domain, self.BIG)

    def test_j_distance_raises_package_error(self):
        with pytest.raises(DomainError):
            j_distance(H, self.BIG, 1j)

    @pytest.mark.parametrize(
        "z, w",
        [(complex(1e308, 1.0), complex(-1e308, 1.0)), (1e-300j, 1e10j)],
        ids=["difference-rounds-to-inf", "ratio-rounds-to-inf"],
    )
    def test_j_distance_never_returns_inf(self, z, w):
        with pytest.raises(DomainError):
            j_distance(H, z, w)
