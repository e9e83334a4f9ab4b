import cmath
import math
import os
import subprocess
import sys

import pytest

import jmetric
from jmetric.domains import (
    Disk,
    HalfPlane,
    UnitDisk,
    UpperHalfPlane,
    contains,
    signed_boundary_offset,
)
from jmetric.errors import DomainError, PoleEncountered, UnsupportedImage
from jmetric.maps import (
    Blaschke,
    Compose,
    Extremal,
    Mobius,
    apply,
    compose_maps,
    derivative,
    image_modulus_bound,
    is_self_map_sampled,
    maps_into_sampled,
    mobius_compose,
    mobius_image_domain,
    mobius_inverse,
)
from jmetric.sampling import Uniforms, sample_interior, substream
from jmetric.verify import _blaschke_maps, _disk_maps, _halfplane_automorphisms, _halfplane_maps

IDENTITY = Mobius(1, 0, 0, 1)
CAYLEY = Mobius(1, -1j, 1, 1j)
D = UnitDisk()
H = UpperHalfPlane()


class TestApply:
    def test_extremal_at_i(self):
        # a = b = 0 gives z -> -1/z, and -1/i = i
        assert abs(apply(Extremal(0, 0), 1j) - 1j) < 1e-15

    def test_identity(self):
        for z in (0.3 + 0.4j, -2 + 5j, 1j):
            assert apply(IDENTITY, z) == z

    def test_blaschke_zero(self):
        assert apply(Blaschke(0.0, (0.5,)), 0.5 + 0j) == 0j

    def test_empty_blaschke_is_rotation_constant(self):
        m = Blaschke(0.7, ())
        assert abs(apply(m, 0.3 + 0.1j) - cmath.exp(0.7j)) < 1e-15

    def test_poles(self):
        with pytest.raises(PoleEncountered):
            apply(Extremal(1.0, 2.0), -2.0 + 0j)
        with pytest.raises(PoleEncountered):
            apply(Mobius(1, 0, 1, -1), 1.0 + 0j)


class TestDerivative:
    def test_identity(self):
        assert derivative(IDENTITY, 3 - 2j) == 1.0 + 0j

    def test_extremal_hand_value(self):
        # derivative is 1/(b+z)^2; at z = i - b that is 1/i^2 = -1
        b = 1.7
        assert abs(derivative(Extremal(0.3, b), 1j - b) - (-1.0)) < 1e-12

    def test_blaschke_single_zero_at_origin(self):
        assert abs(derivative(Blaschke(0.0, (0j,)), 0j) - 1.0) < 1e-15

    def test_matches_central_differences(self):
        u = Uniforms(substream(2024, 0))
        rng = substream(2024, 1)
        step = 1e-6
        disk, half = _disk_maps(rng, 500), _halfplane_maps(rng, 500)
        for m, domain in [(disk[k], D) for k in range(500)] + [(half[k], H) for k in range(500)]:
            z = sample_interior(domain, u, margin=1e-2)
            got = derivative(m, z)
            fd = (apply(m, z + step) - apply(m, z - step)) / (2.0 * step)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


def test_map_batch_index_past_its_samples_is_an_index_error():
    batch = _disk_maps(substream(5, 0), 3)
    assert isinstance(batch[2], (Blaschke, Compose))
    with pytest.raises(IndexError, match="no sample 3"):
        batch[3]


class TestMobiusAlgebra:
    def sample_points(self, count=100, seed=3):
        u = Uniforms(substream(seed, 0))
        return [complex(u.uniform(-2, 2), u.uniform(0.1, 2)) for _ in range(count)]

    def test_compose_matches_pointwise(self):
        maps = _halfplane_automorphisms(substream(11, 0), 400)
        pts = self.sample_points()
        for k in range(200):
            m1 = maps[2 * k]
            m2 = maps[2 * k + 1]
            m = mobius_compose(m1, m2)
            for z in pts[:10]:
                assert abs(apply(m, z) - apply(m1, apply(m2, z))) < 1e-12

    def test_translation_inverse(self):
        shift = Mobius(1, 1, 0, 1)
        inv = mobius_inverse(shift)
        assert (inv.a, inv.b, inv.c, inv.d) == (1 + 0j, -1 + 0j, 0j, 1 + 0j)

    def test_inversion_squares_to_identity_action(self):
        flip = Mobius(0, -1, 1, 0)
        twice = mobius_compose(flip, flip)
        for z in self.sample_points(25):
            assert abs(apply(twice, z) - z) < 1e-12

    def test_cayley_inverse_coefficients(self):
        inv = mobius_inverse(CAYLEY)
        assert (inv.a, inv.b, inv.c, inv.d) == (1j, 1j, -1 + 0j, 1 + 0j)

    def test_inverse_round_trip(self):
        maps = _halfplane_automorphisms(substream(17, 0), 100)
        pts = self.sample_points()
        for k in range(100):
            m = maps[k]
            back = mobius_compose(m, mobius_inverse(m))
            for z in pts[:10]:
                assert abs(apply(back, z) - z) < 1e-12

    def test_associativity_pointwise(self):
        maps = _halfplane_automorphisms(substream(23, 0), 3000)
        pts = self.sample_points(10)
        for k in range(0, 3000, 3):
            m1, m2, m3 = maps[k], maps[k + 1], maps[k + 2]
            left = mobius_compose(mobius_compose(m1, m2), m3)
            right = mobius_compose(m1, mobius_compose(m2, m3))
            for z in pts[:3]:
                assert abs(apply(left, z) - apply(right, z)) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Mobius(1, 2, 2, 4)

    def test_compose_maps_collapses_mobius_chains(self):
        maps = _halfplane_automorphisms(substream(53, 0), 2)
        m1, m2 = maps[0], maps[1]
        collapsed = compose_maps(m1, m2)
        assert isinstance(collapsed, Mobius)
        for z in self.sample_points(10):
            assert abs(apply(collapsed, z) - apply(m1, apply(m2, z))) < 1e-12
        mixed = compose_maps(Extremal(1, 1), m2)
        assert isinstance(mixed, Compose)


def test_halfplane_mobius_height_identity():
    u = Uniforms(substream(31, 0))
    maps = _halfplane_automorphisms(substream(31, 1), 500)
    for k in range(500):
        m = maps[k]
        det = (m.a * m.d - m.b * m.c).real
        z = complex(u.uniform(-50, 50), u.uniform(1e-3, 50))
        expected = det * z.imag / abs(m.c * z + m.d) ** 2
        got = apply(m, z).imag
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-30)
        assert got > 0.0


def test_extremal_height_identity():
    u = Uniforms(substream(37, 0))
    for _ in range(500):
        m = Extremal(u.uniform(-3, 3), u.uniform(-3, 3))
        z = complex(u.uniform(-50, 50), u.uniform(1e-3, 50))
        lhs = apply(m, z).imag * abs(m.b + z) ** 2
        assert abs(lhs - z.imag) <= 1e-12 * z.imag


def test_blaschke_is_strict_disk_self_map():
    u = Uniforms(substream(41, 0))
    maps = _blaschke_maps(substream(41, 1), 10_000)
    for k in range(10_000):
        m = maps[k]
        z = sample_interior(D, u, margin=1e-3)
        assert abs(apply(m, z)) < 1.0


class TestImageDomain:
    def test_cayley_sends_halfplane_to_unit_disk(self):
        assert mobius_image_domain(CAYLEY, H) == UnitDisk()

    def test_identity_fixes_unit_disk(self):
        assert mobius_image_domain(IDENTITY, D) == UnitDisk()

    def test_doubling_scales_disk(self):
        assert mobius_image_domain(Mobius(2, 0, 0, 1), D) == Disk(0j, 2.0)

    def test_inverse_cayley_sends_disk_to_halfplane(self):
        inv = mobius_inverse(CAYLEY)
        assert mobius_image_domain(inv, D) == UpperHalfPlane()

    def test_real_mobius_fixes_halfplane(self):
        assert mobius_image_domain(Mobius(2, 1, 1, 1), H) == UpperHalfPlane()

    def test_pole_inside_source_rejected(self):
        # pole at 0 sits inside the unit disk: image is a circle exterior
        with pytest.raises(UnsupportedImage):
            mobius_image_domain(Mobius(0, 1, 1, 0), D)

    def test_non_mobius_map_or_domain_is_a_type_error(self):
        with pytest.raises(TypeError, match="plain Mobius"):
            mobius_image_domain(Extremal(0.0, 0.0), H)
        with pytest.raises(TypeError, match="not a planar domain"):
            mobius_image_domain(IDENTITY, 0.5j)

    def test_near_tangent_pole_ambiguous(self):
        m = Mobius(1, 0, 1, 1 + 1e-13)  # pole at -(1 + 1e-13), almost on the circle
        with pytest.raises(UnsupportedImage):
            mobius_image_domain(m, D)

    # z -> z / (1e-170 z + 1): its pole at -1e170 is far outside every source below.
    FAR_POLE = Mobius(1, 0, 1e-170, 1)

    def test_far_pole_keeps_the_unit_disk_radius(self):
        # |c|^2 Q(pole) is 1 here, but |c|^2 alone underflows to 0.
        image = mobius_image_domain(self.FAR_POLE, D)
        assert isinstance(image, Disk) and image.radius == 1.0

    def test_far_pole_on_the_real_line_fixes_halfplane(self):
        assert mobius_image_domain(self.FAR_POLE, H) == UpperHalfPlane()

    def test_far_pole_keeps_the_disk_center(self):
        assert mobius_image_domain(self.FAR_POLE, Disk(0.5 + 0.5j, 2.0)).center == 0.5 + 0.5j

    def test_pole_on_the_disk_boundary_gives_a_halfplane(self):
        src = Disk(0.5 + 0.25j, 1.5)
        m = Mobius(1, 2j, 1, -2 - 0.25j)  # pole at 2+0.25j, on the boundary circle
        assert signed_boundary_offset(src, -m.d / m.c) == 0.0
        image = mobius_image_domain(m, src)
        assert isinstance(image, HalfPlane)
        for k in range(1, 100):  # k = 0 is the pole itself
            theta = 2.0 * math.pi * k / 100.0
            p = src.center + src.radius * cmath.exp(1j * theta)
            assert abs(signed_boundary_offset(image, apply(m, p))) <= 1e-9
        assert contains(image, apply(m, src.center))

    def test_pole_past_the_float_range_is_affine(self):
        m = Mobius(1, 0, 1e-300, 1e10)  # the pole, -1e310, rounds to -inf
        assert mobius_image_domain(m, H) == UpperHalfPlane()
        image = mobius_image_domain(m, Disk(1 + 1j, 0.5))
        assert abs(image.center - (1e-10 + 1e-10j)) <= 1e-25 and abs(image.radius - 5e-11) <= 1e-25

    def test_huge_coefficients_keep_a_representable_image(self):
        # |d|^2 = 1e400 overflowed float **; the image depends only on the coefficients' ratios.
        assert mobius_image_domain(Mobius(1, 0, 0, 1e200), D) == Disk(0j, 1e-200)
        # f(z) = (1e200 i z + 1e200) / (z + 1e200) sends the real line to the line through
        # f(0) = 1 and f(inf) = 1e200 i, and f(i) = 0 lies inside.
        assert mobius_image_domain(Mobius(1e200j, 1e200, 1, 1e200), H) == HalfPlane(-1 - 1e-200j, -1.0)

    def test_source_form_past_the_float_range_is_unsupported(self):
        # The source's own form holds |center|^2 = 1e400.
        with pytest.raises(UnsupportedImage, match="past the float range"):
            mobius_image_domain(Mobius(1, 0, 1, -1e200 - 5), Disk(1e200 + 0j, 1.0))

    def test_form_underflowing_to_zero_is_unsupported(self):
        # Scaled by 2^-1023, c and d underflow to 0, and so do A' and the normal B'.
        m = Mobius(
            1e-09 + 1e154j,
            0.9543661518941426 + 5.896722912831162e307j,
            1e-200 + 1.166456438081192e-200j,
            -1e-300 + 3.377212519333679e-201j,
        )
        with pytest.raises(UnsupportedImage, match="underflowing to 0"):
            mobius_image_domain(m, H)

    def test_sampled_consistency(self):
        u = Uniforms(substream(47, 0))
        from jmetric.verify import _random_image_source_and_mobius

        for _ in range(20):
            src, m = _random_image_source_and_mobius(u)
            image = mobius_image_domain(m, src)
            for _ in range(50):
                z = sample_interior(src, u, margin=1e-3)
                assert contains(image, apply(m, z))
        # boundary points land within 1e-9 of the image boundary
        src = Disk(0.5 + 0.25j, 1.5)
        m = Mobius(1, 2j, 1, 3 + 1j)  # pole at -3-1j, well outside src
        image = mobius_image_domain(m, src)
        for k in range(100):
            theta = 2.0 * math.pi * k / 100.0
            p = src.center + src.radius * cmath.exp(1j * theta)
            assert abs(signed_boundary_offset(image, apply(m, p))) <= 1e-9

    def test_tilted_halfplane_source(self):
        from jmetric.domains import halfplane_frame

        normal = complex(math.cos(2.2), math.sin(2.2))
        src = HalfPlane(normal, 0.75)
        m = Mobius(1 + 0.5j, 2, 1, 5 + 5j)  # pole at -5-5j, outside the half-plane
        image = mobius_image_domain(m, src)
        assert isinstance(image, Disk)
        u = Uniforms(substream(59, 0))
        for _ in range(200):
            z = sample_interior(src, u, margin=1e-3, span=5.0)
            assert contains(image, apply(m, z))
        base, tangent, _ = halfplane_frame(src)
        for k in range(-50, 51):
            p = base + 0.2 * k * tangent
            assert abs(signed_boundary_offset(image, apply(m, p))) <= 1e-9

    def test_affine_tilted_halfplane(self):
        normal = complex(math.cos(0.5), math.sin(0.5))
        src = HalfPlane(normal, -0.5)
        m = Mobius(2j, 1 - 1j, 0, 1)  # affine rotation-scale plus shift
        image = mobius_image_domain(m, src)
        assert isinstance(image, HalfPlane)
        u = Uniforms(substream(60, 0))
        for _ in range(200):
            z = sample_interior(src, u, margin=1e-3, span=5.0)
            assert contains(image, apply(m, z))


class TestSelfMapSampling:
    def test_extremal_preserves_halfplane(self):
        assert is_self_map_sampled(Extremal(1.3, -0.7), H, 1000, 42)
        assert is_self_map_sampled(Extremal(0.0, 0.0), H, 1000, 42)

    def test_blaschke_preserves_disk(self):
        assert is_self_map_sampled(Blaschke(0.3, (0.5, -0.2 + 0.1j)), D, 1000, 42)

    def test_translation_leaves_disk(self):
        assert not is_self_map_sampled(Mobius(1, 1j, 0, 1), D, 1000, 42)

    def test_cayley_into_disk(self):
        assert maps_into_sampled(CAYLEY, H, D, 1000, 42)

    @pytest.mark.parametrize("n, seed", [(2.5, 42), (True, 42), (0, 42), (10, 1.5), (10, -1)])
    def test_non_integer_count_or_seed_rejected(self, n, seed):
        with pytest.raises(DomainError, match="must be an integer in"):
            maps_into_sampled(CAYLEY, H, D, n, seed)


class TestImageModulusBound:
    def test_hand_value(self):
        assert abs(image_modulus_bound(0.5, 0.5) - 0.8) < 1e-15

    def test_zero_center_value(self):
        assert image_modulus_bound(0.0, 0.37) == 0.37

    def test_at_origin(self):
        assert image_modulus_bound(0.42, 0.0) == 0.42

    def test_range_checked(self):
        with pytest.raises(DomainError):
            image_modulus_bound(1.0, 0.5)
        with pytest.raises(DomainError):
            image_modulus_bound(0.5, -0.1)


def test_blaschke_zero_bound_enforced():
    Blaschke(0.0, (complex(1.0 - 1e-12, 0.0),))  # boundary of the allowed set
    with pytest.raises(DomainError):
        Blaschke(0.0, (complex(1.0 - 1e-13, 0.0),))


def test_compose_requires_map_expressions():
    with pytest.raises(TypeError):
        Compose(IDENTITY, "not a map")


def test_certification_needs_samples():
    with pytest.raises(DomainError):
        is_self_map_sampled(IDENTITY, D, 0, 1)


def test_nan_never_reaches_a_map():
    nan = complex(float("nan"), 1.0)
    with pytest.raises(DomainError):
        Mobius(nan, 0, 0, 1)
    with pytest.raises(DomainError):
        Extremal(float("inf"), 0.0)
    with pytest.raises(DomainError):
        Blaschke(float("nan"), ())


NON_FINITE = [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0)]
NON_FINITE_MAPS = [Mobius(1, 0, 0, 1), Blaschke(0.0, (0.5,)), Extremal(0.0, 1.0), Compose(Extremal(0.0, 1.0), IDENTITY)]


def test_non_finite_point_raises_domain_error():
    # math.exp(-1000.0) underflows and leaves errno at ERANGE, which abs() of a
    # complex with a NaN part does not reset; the second pass runs after it.
    for _ in range(2):
        for m in NON_FINITE_MAPS:
            for z in NON_FINITE:
                with pytest.raises(DomainError):
                    apply(m, z)
                with pytest.raises(DomainError):
                    derivative(m, z)
        assert math.exp(-1000.0) == 0.0


def test_non_finite_point_raises_domain_error_in_a_fresh_interpreter():
    code = (
        "import math\n"
        "from jmetric.errors import DomainError\n"
        "from jmetric.maps import Mobius, apply\n"
        "try:\n"
        "    print(apply(Mobius(1, 0, 0, 1), complex(math.inf, 0.0)))\n"
        "except DomainError:\n"
        "    print('DomainError')\n"
    )
    # The package's own source root, whether it is installed or on PYTHONPATH.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jmetric.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.stdout == "DomainError\n", out.stderr


def test_overflowing_denominator_raises_domain_error():
    with pytest.raises(DomainError):
        apply(Mobius(1, 0, 1.4, 1), complex(1.2e308, 1.2e308))


def test_overflowing_derivative_raises_domain_error():
    for m in (Mobius(1, 0, 1.4, 1), Compose(Extremal(0.0, 1.0), Mobius(1, 0, 1.4, 1))):
        with pytest.raises(DomainError):
            derivative(m, complex(1.2e308, 1.2e308))


def test_value_or_derivative_past_the_float_range_raises_domain_error():
    # Every denominator is finite and far from a pole; the results are (inf, nan) and (-inf, -0).
    with pytest.raises(DomainError):
        apply(Mobius(1e300, 0, 0, 1e-300), 1e10 + 0j)
    with pytest.raises(DomainError):
        derivative(Extremal(0.0, 0.0), 1e-160j)


@pytest.mark.parametrize("m, z", [(Extremal(0.0, 1e-200), 0j), (Mobius(0, 1, 1, 0), complex(1e-200, 0.0))])
def test_underflowing_squared_denominator_raises_domain_error(m, z):
    # |den| is far above POLE_FLOOR, but den * den rounds to 0
    with pytest.raises(DomainError):
        derivative(m, z)


def test_overflowing_determinant_is_not_degenerate():
    m = Mobius(complex(1.5e308, 1.5e308), 0, 0, 1)
    assert m.a == complex(1.5e308, 1.5e308)
