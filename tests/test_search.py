import json
import math

import numpy as np
import pytest

import jmetric.search as search_module
from jmetric.domains import Disk, UnitDisk, UpperHalfPlane
from jmetric.errors import DomainError, SelfMapViolation
from jmetric.maps import Blaschke, Extremal, Mobius
from jmetric.sampling import Uniforms, sample_interior, substream
from jmetric.search import (
    SearchConfig,
    cstar_bounds,
    estimate_lipschitz,
    extremal_ratio,
    extremal_sweep,
    local_distortion,
    ratio_objective,
    sweep_to_csv,
)
from jmetric.verify import _blaschke_maps, _halfplane_maps

D = UnitDisk()
H = UpperHalfPlane()
IDENTITY = Mobius(1, 0, 0, 1)
HALF_AUT = Blaschke(0.0, (0.5,))  # disk automorphism with f(0) = -0.5

QUICK = SearchConfig(grid_per_axis=10, refine_rounds=30)


class TestRatioObjective:
    def test_identity_exactly_one(self):
        assert ratio_objective(D, D, IDENTITY, 0.3 + 0.1j, -0.2j) == 1.0

    def test_near_origin_automorphism_pair(self):
        got = ratio_objective(D, D, HALF_AUT, 1e-4 + 0j, -1e-4 + 0j)
        assert got > 1.499
        assert got < 1.5

    def test_coincident_infeasible(self):
        assert ratio_objective(D, D, IDENTITY, 0.5 + 0j, 0.5 + 0j) == -math.inf

    def test_escaping_image_infeasible(self):
        shift = Mobius(1, 0.5, 0, 1)
        assert ratio_objective(D, D, shift, 0.7 + 0j, 0j) == -math.inf

    def test_source_violation_infeasible(self):
        assert ratio_objective(D, D, IDENTITY, 1.5 + 0j, 0j) == -math.inf


class TestLocalDistortion:
    def test_identity(self):
        assert local_distortion(D, IDENTITY, 0.3 + 0.2j) == 1.0

    def test_disk_automorphism_at_origin(self):
        assert abs(local_distortion(D, HALF_AUT, 0j) - 1.5) < 1e-15

    def test_halfplane_inversion_at_i(self):
        assert abs(local_distortion(H, Extremal(0, 0), 1j) - 1.0) < 1e-15

    def test_requires_interior_point(self):
        from jmetric.errors import PointOutsideDomain

        with pytest.raises(PointOutsideDomain):
            local_distortion(D, IDENTITY, 2.0 + 0j)

    def test_matches_coincident_ratio_limit(self):
        u = Uniforms(substream(113, 0))
        disk_maps, half_maps = _blaschke_maps(substream(113, 1), 1000), _halfplane_maps(substream(113, 2), 1000)
        step = 1e-5
        checked = 0
        for k in range(1000):
            m, domain = (disk_maps[k], D) if u.next() < 0.5 else (half_maps[k], H)
            z = sample_interior(domain, u, margin=1e-2)
            ratio = ratio_objective(domain, domain, m, z, z + step)
            if ratio == -math.inf:
                continue
            ld = local_distortion(domain, m, z)
            assert abs(ratio - ld) <= 1e-3 * max(ld, 1e-6)
            checked += 1
            if checked == 100:
                break
        assert checked == 100


class TestExtremalRatio:
    def test_hand_value_at_one(self):
        expected = math.log1p(math.sqrt(2.0)) / math.log(2.0)
        assert abs(extremal_ratio(1.0) - expected) < 1e-14

    def test_limit_toward_two(self):
        assert extremal_ratio(1e6) >= 2.0 - 1e-6
        assert extremal_ratio(1e6) < 2.0

    def test_nondecreasing_dyadic(self):
        values = [extremal_ratio(float(2**k)) for k in range(21)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12

    def test_small_offset_tends_to_one(self):
        assert abs(extremal_ratio(1e-8) - 1.0) < 1e-7

    def test_huge_offset_branch(self):
        # the true gap below 2 is ~1e-150 here, far below double resolution,
        # so both branches must round to 2.0 rather than overflow or drift
        assert extremal_ratio(9e149) == 2.0
        assert extremal_ratio(2e150) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            extremal_ratio(0.0)
        with pytest.raises(DomainError):
            extremal_ratio(-1.0)

    def test_rejects_infinite(self):
        with pytest.raises(DomainError):
            extremal_ratio(math.inf)


class TestExtremalSweep:
    def geometric_offsets(self):
        return [1e-2 * (10.0 ** (k / 4.0)) for k in range(25)]  # up to 1e4

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.0, 1.0), (-2.0, 3.0)])
    def test_measured_matches_closed_form(self, a, b):
        rows = extremal_sweep(self.geometric_offsets(), a, b)
        for row in rows:
            assert row.abs_rel_gap <= 1e-9, f"t={row.t}: gap={row.abs_rel_gap}"

    def test_measured_strictly_increasing(self):
        rows = extremal_sweep([float(2**k) for k in range(21)], 0.0, 0.0)
        for lo, hi in zip(rows, rows[1:]):
            assert hi.measured > lo.measured

    def test_csv_shape(self):
        text = sweep_to_csv(extremal_sweep([1.0, 2.0], 0.0, 0.0))
        lines = text.strip().split("\n")
        assert lines[0] == "t,closed_form,measured,abs_rel_gap"
        assert len(lines) == 3

    def test_rejects_nonpositive_offsets(self):
        with pytest.raises(DomainError):
            extremal_sweep([1.0, -2.0], 0.0, 0.0)


class TestCstarBounds:
    def test_values(self):
        assert cstar_bounds(0.0) == (1.0, 2.0)
        assert cstar_bounds(0.5) == (1.5, 2.0)
        assert cstar_bounds(0.99) == (1.99, 2.0)

    def test_range(self):
        with pytest.raises(DomainError):
            cstar_bounds(1.0)
        with pytest.raises(DomainError):
            cstar_bounds(-0.1)


class TestEstimateLipschitz:
    def test_identity_is_exactly_one(self):
        report = estimate_lipschitz(D, IDENTITY, QUICK)
        assert report.best_ratio == 1.0
        assert report.lower_bound_claim == 1.0
        assert report.theoretical_ceiling == 2.0

    def test_identity_on_shifted_disk(self):
        from jmetric.domains import Disk

        report = estimate_lipschitz(Disk(1 + 1j, 2.0), IDENTITY, QUICK)
        assert report.best_ratio == 1.0
        assert report.cstar_interval is None

    def test_disk_automorphism_reaches_local_bound(self):
        report = estimate_lipschitz(D, HALF_AUT)
        assert report.best_ratio >= 1.499
        assert report.cstar_interval == (1.5, 2.0)

    def test_halfplane_inversion_approaches_two(self):
        report = estimate_lipschitz(H, Extremal(0, 0))
        assert report.best_ratio >= 1.9
        assert report.best_ratio <= 2.0 + 1e-9
        assert report.cstar_interval is None

    def test_witness_reproduces_best(self):
        report = estimate_lipschitz(D, HALF_AUT, QUICK)
        again = ratio_objective(D, D, HALF_AUT, report.witness_z, report.witness_w)
        assert again == report.best_ratio

    def test_ceiling_on_corpus(self):
        maps = _blaschke_maps(substream(127, 0), 3)
        for k in range(3):
            m = maps[k]
            report = estimate_lipschitz(D, m, QUICK)
            assert report.best_ratio <= 2.0 + 1e-9

    def test_thread_count_invariance(self, monkeypatch):
        # One pair per worker is enough, so the QUICK grid really runs on two
        # workers.  The Cayley map is searched against its computed image domain.
        monkeypatch.setattr(search_module, "_PAIRS_PER_WORKER", 1)
        for src, m in ((D, HALF_AUT), (H, Mobius(1, -1j, 1, 1j))):
            lone = estimate_lipschitz(src, m, QUICK, threads=1)
            dual = estimate_lipschitz(src, m, QUICK, threads=2)
            assert lone.to_json() == dual.to_json()

    @pytest.mark.parametrize(
        ("pairs_per_worker", "threads", "workers"),
        [(1 << 20, 2, 1), (10_000, 2, 1), (5_000, 2, 2), (5_000, 8, 2), (1, 3, 3)],
    )
    def test_grid_workers_scale_with_pairs(self, monkeypatch, pairs_per_worker, threads, workers):
        # The QUICK grid on the half-plane has 100 points, so 10,000 pairs.
        seen = []
        real = search_module.run_ordered
        monkeypatch.setattr(search_module, "_PAIRS_PER_WORKER", pairs_per_worker)
        monkeypatch.setattr(search_module, "run_ordered", lambda f, tasks, n: seen.append(n) or real(f, tasks, 1))
        estimate_lipschitz(H, Extremal(1.0, 1.0), QUICK, threads=threads)
        assert seen == [workers]

    def test_mobius_gets_image_destination(self):
        double = Mobius(2, 0, 0, 1)
        report = estimate_lipschitz(D, double, QUICK)
        assert report.best_ratio <= 2.0 + 1e-9
        assert report.cstar_interval is None

    def test_non_self_map_rejected(self):
        with pytest.raises(SelfMapViolation):
            estimate_lipschitz(D, Extremal(0, 0), QUICK)

    def test_explicit_destination(self):
        cayley = Mobius(1, -1j, 1, 1j)
        report = estimate_lipschitz(H, cayley, QUICK, dst=D)
        assert report.best_ratio <= 2.0 + 1e-9
        with pytest.raises(SelfMapViolation):
            estimate_lipschitz(H, cayley, QUICK, dst=H)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SearchConfig(boundary_margin=0.0)
        for margin in (math.inf, math.nan):  # math.log of an infinite margin raised ValueError
            with pytest.raises(DomainError, match="boundary_margin must be positive and finite"):
                SearchConfig(boundary_margin=margin)
        with pytest.raises(DomainError):
            SearchConfig(grid_per_axis=1)

    def test_boundary_margin_is_a_real_stored_as_float(self):
        # A bool, a string or a complex is refused; a numpy float is stored as a float, so the
        # report serializes it.
        for margin in (True, "0.5", None, 1e-3 + 0j):
            with pytest.raises(DomainError, match="boundary_margin must be positive and finite"):
                SearchConfig(boundary_margin=margin)
        cfg = SearchConfig(boundary_margin=np.float32(1e-3), grid_per_axis=10, refine_rounds=30)
        assert type(cfg.boundary_margin) is float and cfg.boundary_margin == float(np.float32(1e-3))
        report = estimate_lipschitz(D, HALF_AUT, cfg)
        assert json.loads(report.to_json())["config"]["boundary_margin"] == float(np.float32(1e-3))

    def test_grid_cap(self):
        # 256 points per axis already make ~2**32 pairs; past it the grid is refused
        # before any point is built.
        assert SearchConfig(grid_per_axis=256).grid_per_axis == 256
        with pytest.raises(DomainError, match=r"grid_per_axis must be an integer in \[2, 256\], got 257"):
            SearchConfig(grid_per_axis=257)

    def test_report_json_shape(self):
        report = estimate_lipschitz(D, HALF_AUT, QUICK)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "best_ratio",
            "witness_z",
            "witness_w",
            "evaluations",
            "config",
            "lower_bound_claim",
            "theoretical_ceiling",
            "cstar_interval",
        }
        assert payload["lower_bound_claim"] == payload["best_ratio"]
        # The four settings a caller sets, in field order.
        assert list(payload["config"]) == ["boundary_margin", "grid_per_axis", "refine_rounds", "seed"]


def test_local_distortion_with_underflowing_derivative_raises_domain_error():
    with pytest.raises(DomainError):
        local_distortion(H, Extremal(0.0, 1e-200), 1e-200j)


def test_local_distortion_with_overflowing_derivative_raises_domain_error():
    # den * den = -1e-320 is subnormal, so its reciprocal overflows to -inf.
    with pytest.raises(DomainError):
        local_distortion(H, Extremal(0.0, 0.0), 1e-160j)


def test_local_distortion_with_a_derivative_modulus_past_the_float_range_raises_domain_error():
    # f'(z) = 1.5e308 (1 + i) is finite, but abs() of it raised a bare OverflowError.
    with pytest.raises(DomainError):
        local_distortion(H, Mobius(1.5e308 + 1.5e308j, 0, 0, 1), 1j)


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(threads):
    with pytest.raises(DomainError):
        estimate_lipschitz(D, HALF_AUT, QUICK, threads)


@pytest.mark.parametrize("threads", [1.5, True])
def test_non_integer_threads_rejected(threads):
    # _seeds caps threads at the worker count, so run_ordered alone would see 1.
    with pytest.raises(DomainError, match=r"threads must be an integer in \[1, inf\]"):
        estimate_lipschitz(D, HALF_AUT, QUICK, threads)


def test_overflowing_image_infeasible():
    assert ratio_objective(H, H, Mobius(1e300, 0, 0, 1e-10), 1j, 2j) == -math.inf


@pytest.mark.parametrize("field", ["refine_rounds"])
def test_negative_refine_counts_rejected(field):
    with pytest.raises(DomainError):
        SearchConfig(**{field: -3})


@pytest.mark.parametrize(
    "field, value",
    [("grid_per_axis", 8.5), ("grid_per_axis", True), ("refine_rounds", 2.0), ("seed", -1), ("seed", 1.5)],
)
def test_non_integer_or_negative_config_rejected(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer in"):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("field", ["separation_floor", "refine_seeds", "shrink_factor"])
def test_removed_settings_are_refused(field):
    # The search admits every pair of distinct points and seeds and shrinks its walks by
    # module constants; a config naming the old settings is an error, not ignored.
    with pytest.raises(TypeError, match=field):
        SearchConfig(**{field: 1})


def test_margin_at_the_disk_radius_leaves_no_region():
    with pytest.raises(DomainError, match="boundary_margin leaves no interior to search"):
        estimate_lipschitz(D, HALF_AUT, SearchConfig(boundary_margin=1.0))


@pytest.mark.parametrize("src", [D, Disk(1 + 1j, 2.0)], ids=repr)
def test_grid_two_keeps_no_disk_point(monkeypatch, src):
    # Its 4 points are the corners of the square around the disk, all outside it; the
    # search refuses it before mapping any point, not with "no feasible pair".
    cfg = SearchConfig(grid_per_axis=2, refine_rounds=1)
    monkeypatch.setattr(search_module, "_point_stage", lambda *args: pytest.fail("a point was scored"))
    with pytest.raises(DomainError, match="grid_per_axis 2 keeps no disk point; 3 is the smallest grid"):
        estimate_lipschitz(src, IDENTITY, cfg)
    monkeypatch.undo()
    assert estimate_lipschitz(src, IDENTITY, SearchConfig(grid_per_axis=3, refine_rounds=1)).best_ratio == 1.0


def test_images_all_within_the_trust_floor_leave_no_feasible_pair():
    # f(z) = z / 1e10 + 1 - 1e-9 sends the disk into itself, but every image lies
    # within 1.1e-9 of the circle, under the trust floor IMAGE_TRUST (1 + |f|).
    m = Mobius(1.0, 1e10 - 10.0, 0, 1e10)
    with pytest.raises(DomainError, match="no feasible pair"):
        estimate_lipschitz(D, m, SearchConfig(grid_per_axis=8))


def test_refine_rounds_past_the_cap_rejected():
    assert SearchConfig(refine_rounds=search_module._ROUNDS_MAX).refine_rounds == 10_000
    with pytest.raises(DomainError, match=r"refine_rounds must be an integer in \[0, 10000\]"):
        SearchConfig(refine_rounds=search_module._ROUNDS_MAX + 1)


def test_overflowing_pair_infeasible():
    z = complex(1.7e308, 1.7e308)
    assert ratio_objective(H, H, Mobius(1, 0, 0, 1e10), z, 20j) == -math.inf


@pytest.mark.parametrize("margin", [1e-200, 2.0, 1.0])
def test_halfplane_margin_without_height_range_rejected(margin):
    # 1e-200: log-height step of exp(921) overflows; >= 1: heights would run
    # from margin down to 1/margin, closer to the boundary than asked
    cfg = SearchConfig(boundary_margin=margin, grid_per_axis=2, refine_rounds=0)
    with pytest.raises(DomainError):
        estimate_lipschitz(H, Extremal(1.0, 1.0), cfg)


def test_extremal_search_stays_below_the_ceiling_at_every_grid():
    # Pairs whose images agree to more than 12 digits once scored rounding noise (up to
    # 286.8 at N = 28) and exited 3 at 12 of these 18 grids; about 1.6 s in all.
    for n in range(6, 41, 2):
        report = estimate_lipschitz(H, Extremal(1.0, 1.0), SearchConfig(grid_per_axis=n, seed=42))
        assert 1.9999 < report.best_ratio <= search_module.THEORETICAL_CEILING + 1e-9, n


def test_walk_counts_no_move_that_leaves_it_in_place():
    # Three walks: inside the half-plane's box, with z on its right edge, and with z
    # in its top right corner.  The +step moves that clip back onto z are skipped.
    m, cfg = Extremal(1.0, 1.0), SearchConfig(refine_rounds=1)
    region = search_module._Region(H, cfg)
    coords = np.array([[0.0, region.thi, region.thi], [1.0, 1.0, region.hhi], [-5.0] * 3, [2.0] * 3])
    z, w = region.point(coords[0], coords[1]), region.point(coords[2], coords[3])
    best = np.array([ratio_objective(H, H, m, z.at(k), w.at(k)) for k in range(3)])
    with np.errstate(all="ignore"):
        _, _, evals = search_module._walk(H, H, m, region, cfg, coords, best)
    assert evals.tolist() == [8, 7, 6]


@pytest.mark.parametrize(
    "m, grid, floor",
    [
        (HALF_AUT, 10, 1.4984),
        (HALF_AUT, 12, 1.4989),
        (HALF_AUT, 14, 1.4992),
        (HALF_AUT, 16, 1.4994),
        (Blaschke(0.0, (0.5, 0.5j, -0.5)), 16, 1.0441),
        (Blaschke(0.0, (0.5, 0.5j, -0.5)), 30, 1.0466),
    ],
)
def test_small_grid_searches_keep_their_lower_bounds(m, grid, floor):
    # One move per walk and round ends these searches a little lower than the lockstep
    # walk did (1.49961 to 1.49986 on the automorphism at grids 10 to 16, 1.04423 and
    # 1.04696 on the 3-zero product); the floors keep them from falling further.
    report = estimate_lipschitz(D, m, SearchConfig(grid_per_axis=grid, seed=42))
    assert report.best_ratio > floor
