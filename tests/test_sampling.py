import math

import numpy as np
import pytest

from jmetric.domains import CArr, Disk, HalfPlane, UnitDisk, UpperHalfPlane, signed_boundary_offset
from jmetric.errors import DomainError
from jmetric.sampling import (
    REJECTION_TRIES,
    Uniforms,
    sample_interior,
    sample_interior_pair,
    sample_interior_points,
    substream,
)


def test_substream_is_reproducible():
    a = Uniforms(substream(42, 3))
    b = Uniforms(substream(42, 3))
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


def test_substreams_differ_by_index():
    a = Uniforms(substream(42, 0))
    b = Uniforms(substream(42, 1))
    assert [a.next() for _ in range(10)] != [b.next() for _ in range(10)]


def test_buffer_refill_keeps_stream_order():
    # small prefetch forces refills; the consumed sequence must match a
    # single large draw from the same substream
    small = Uniforms(substream(7, 0), prefetch=3)
    big = Uniforms(substream(7, 0), prefetch=4096)
    assert [small.next() for _ in range(50)] == [big.next() for _ in range(50)]


def test_interior_margins_hold():
    domains = [
        UnitDisk(),
        UpperHalfPlane(),
        Disk(2 - 1j, 0.5),
        HalfPlane(complex(math.cos(1.3), math.sin(1.3)), 0.2),
    ]
    u = Uniforms(substream(11, 0))
    for domain in domains:
        for _ in range(500):
            z = sample_interior(domain, u, margin=1e-2)
            assert signed_boundary_offset(domain, z) >= 1e-2


def test_pair_separation_floor():
    u = Uniforms(substream(13, 0))
    for _ in range(500):
        z, w = sample_interior_pair(UnitDisk(), u, separation=0.5)
        assert abs(z - w) >= 0.5


def test_unreachable_margin_raises_instead_of_spinning():
    u = Uniforms(substream(17, 0))
    with pytest.raises(DomainError):
        sample_interior(UnitDisk(), u, margin=1.0 - 1e-12)


@pytest.mark.parametrize("margin", [1e-7, 1e-6])
def test_margin_at_or_past_the_radius_raises_domain_error(margin):
    u = Uniforms(substream(17, 0))
    with pytest.raises(DomainError):
        sample_interior(Disk(0, 1e-7), u, margin)
    with pytest.raises(DomainError):
        sample_interior_points(Disk(0, 1e-7), substream(17, 0), 4, margin)


def test_unreachable_separation_raises_instead_of_spinning():
    u = Uniforms(substream(19, 0))
    with pytest.raises(DomainError):
        sample_interior_pair(UnitDisk(), u, separation=3.0)


def test_empty_prefetch_rejected():
    with pytest.raises(DomainError):
        Uniforms(substream(7, 0), prefetch=0)


@pytest.mark.parametrize("value", [2.5, True, -1])
def test_non_integer_or_negative_counts_rejected(value):
    with pytest.raises(DomainError, match="prefetch must be an integer in"):
        Uniforms(substream(7, 0), prefetch=value)
    for domain in (UnitDisk(), UpperHalfPlane()):
        with pytest.raises(DomainError, match="count must be an integer in"):
            sample_interior_points(domain, substream(7, 0), value)


@pytest.mark.parametrize("domain", [UnitDisk(), UpperHalfPlane()], ids=["disk", "halfplane"])
def test_zero_points_draw_nothing(domain):
    rng, fresh = substream(7, 0), substream(7, 0)
    z = sample_interior_points(domain, rng, 0)
    assert isinstance(z, CArr) and z.real.shape == z.imag.shape == (0,)
    assert rng.random(4).tolist() == fresh.random(4).tolist()


def _concatenating_disk_points(domain, rng, count, margin):
    """The disk sampler as it was before its rounds shared one buffer: two n-draws per
    round, the kept points concatenated; returns them and the number of rounds."""
    cx, cy, r = domain.center.real, domain.center.imag, domain.radius
    re = im = np.empty(0)
    for rounds in range(1, REJECTION_TRIES + 1):
        with np.errstate(all="ignore"):
            x = (cx - r) + 2.0 * r * rng.random(count - re.size)
            y = (cy - r) + 2.0 * r * rng.random(count - re.size)
            keep = signed_boundary_offset(domain, CArr(x, y)) >= margin
        re, im = np.concatenate((re, x[keep])), np.concatenate((im, y[keep]))
        if re.size == count:
            return re, im, rounds
    raise AssertionError("the reference ran out of rounds")


@pytest.mark.parametrize("domain", [UnitDisk(), Disk(2 - 1j, 0.5)], ids=["unit", "off-center"])
@pytest.mark.parametrize("count", [1, 4096, 10_000])
# Margins as a share of the radius; at 0.8 the kept disk covers 3% of the square, so many rounds run.
@pytest.mark.parametrize("share", [1e-3, 0.8])
def test_disk_points_keep_the_concatenating_draw_order(domain, count, share):
    margin = share * domain.radius
    rng, ref = substream(23, 0), substream(23, 0)
    z = sample_interior_points(domain, rng, count, margin)
    re, im, rounds = _concatenating_disk_points(domain, ref, count, margin)
    assert z.real.tobytes() == re.tobytes() and z.imag.tobytes() == im.tobytes()
    assert rng.random(4).tolist() == ref.random(4).tolist()
    if share == 0.8 and count > 1:
        assert rounds > 50


def test_negative_seed_rejected():
    with pytest.raises(DomainError):
        substream(-1, 0)


@pytest.mark.parametrize("seed", [1.5, True, "1"])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(DomainError, match="seed must be an integer in"):
        substream(seed, 0)
