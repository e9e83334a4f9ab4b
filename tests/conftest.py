"""The margin each suite row gives one sample, from the public scalar checks,
and a way to make every map family draw one given map.

A suite row scores a whole chunk at once on arrays; scalar_margin scores one
sample's witness values (the map and points rebuilt from the chunk's draws,
or parsed back from a report) one call at a time, with NaN for a sample the
row skips: coincident points, or an image that is not usable.  Tests hold
the two to the same bits.
"""

import math

import numpy as np
import pytest

import jmetric.verify as verify_module
from jmetric.domains import UnitDisk, UpperHalfPlane, signed_boundary_offset
from jmetric.errors import DomainError, PoleEncountered
from jmetric.maps import MapBatch, apply
from jmetric.verify import (
    check_bound_2_3,
    check_g_negativity,
    check_identity_disk,
    check_identity_halfplane,
    check_schwarz_pick_disk,
    check_schwarz_pick_halfplane,
    check_step_1_2,
    check_step_2_2,
    guarded_ratio,
)


def _images_margin(name, m, z, w):
    disk = "disk" in name or name == "step-2-2"
    domain = UnitDisk() if disk else UpperHalfPlane()
    if abs(z - w) == 0.0:
        return math.nan
    try:
        fz, fw = apply(m, z), apply(m, w)
        if not all(verify_module._trusted(abs(f), signed_boundary_offset(domain, f)) for f in (fz, fw)):
            return math.nan
    except (PoleEncountered, DomainError, OverflowError):  # abs(f) may overflow
        return math.nan
    if name.startswith("schwarz-pick"):
        slack = (check_schwarz_pick_disk if disk else check_schwarz_pick_halfplane)(m, z, w)
        scale = 1.0 + abs(fz) / signed_boundary_offset(domain, fz) + abs(fw) / signed_boundary_offset(domain, fw)
        return -abs(slack / scale) if name.endswith("-equality") else slack / scale
    sides = verify_module._step_2_2_sides if disk else verify_module._step_1_2_sides
    lhs, rhs = sides(z, w, fz, fw)
    assert (check_step_2_2 if disk else check_step_1_2)(m, z, w) == rhs - lhs
    return (rhs - lhs) / max(1.0, rhs)


def _scalar_margin(name, values):
    if name == "identity-halfplane":
        x, y = values
        return -abs(check_identity_halfplane(x, y)) / (1.0 + abs(x) * abs(x) + abs(y) * abs(y))
    if name == "identity-disk":
        x, y = values
        return -abs(check_identity_disk(x, y)) / ((1.0 + abs(x) * abs(x)) * (1.0 + abs(y) * abs(y)))
    if name == "bound-2-3":
        try:
            return check_bound_2_3(*values)
        except (PoleEncountered, DomainError):
            return math.nan
    if name == "g-negativity":
        return -check_g_negativity(*values)
    if name == "lipschitz-pair":
        m, src, dst, z, w = values
        ratio = guarded_ratio(src, dst, m, z, w)
        return math.nan if ratio is None else 2.0 - ratio
    return _images_margin(name, *values)


@pytest.fixture
def draw_only(monkeypatch):
    """draw_only(m): from then on every map family in jmetric.verify draws m for every sample."""

    def patch(m):
        every = lambda rng, shape, drawers: MapBatch(((np.arange(shape.size), m),))  # noqa: E731
        monkeypatch.setattr(verify_module, "_grouped", every)

    return patch


@pytest.fixture
def scalar_margin():
    """scalar_margin(row name, witness values) -> that sample's margin, NaN if skipped."""
    return _scalar_margin
