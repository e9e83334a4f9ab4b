import json
import math

import numpy as np
import pytest

import jmetric.parallel as parallel_module
import jmetric.verify as verify_module
from jmetric.domains import UnitDisk, UpperHalfPlane
from jmetric.errors import CoincidentPoints, DomainError, JmetricError
from jmetric.maps import Blaschke, Extremal, Mobius, apply
from jmetric.sampling import Uniforms, sample_interior_pair, substream
from jmetric.verify import (
    SUITE_NAMES,
    CheckReport,
    check_bound_2_3,
    check_g_negativity,
    check_identity_disk,
    check_identity_halfplane,
    check_lipschitz_pair,
    check_schwarz_pick_disk,
    check_schwarz_pick_halfplane,
    check_step_1_2,
    check_step_2_2,
    g_threshold,
    g_threshold_from_modulus,
    guarded_ratio,
    lipschitz_ceiling,
    random_blaschke,
    random_disk_map,
    random_halfplane_map,
    random_halfplane_mobius,
    run_schwarz_pick_equality,
    run_suite,
)

D = UnitDisk()
H = UpperHalfPlane()
IDENTITY = Mobius(1, 0, 0, 1)
SQUARE = Blaschke(0.0, (0j, 0j))  # z -> z^2


class TestIdentities:
    def test_halfplane_at_i(self):
        assert check_identity_halfplane(1j, 1j) == 0.0

    def test_halfplane_reals_vanish_exactly(self):
        assert check_identity_halfplane(2.0 + 0j, -3.5 + 0j) == 0.0

    def test_halfplane_hand_expansion(self):
        # |x - conj y|^2 = 40, |x - y|^2 = 8, 4 Im x Im y = 32
        assert abs(check_identity_halfplane(1 + 2j, 3 + 4j)) < 1e-12

    def test_disk_zero_first_argument(self):
        assert abs(check_identity_disk(0j, 0.3 + 0.4j)) < 1e-15

    def test_disk_equal_points(self):
        assert abs(check_identity_disk(0.6 - 0.2j, 0.6 - 0.2j)) < 1e-15

    def test_disk_hand_expansion(self):
        assert abs(check_identity_disk(0.5 + 0j, 0.3j)) < 1e-15


class TestSchwarzPick:
    def test_halfplane_identity_equality(self):
        assert check_schwarz_pick_halfplane(IDENTITY, 1j, 2j) == 0.0

    def test_halfplane_automorphism_equality(self):
        # a = b = 0 gives z -> -1/z, an automorphism of the half-plane
        slack = check_schwarz_pick_halfplane(Extremal(0, 0), 1j, 2j)
        assert abs(slack) <= 1e-12

    def test_disk_identity_equality(self):
        assert check_schwarz_pick_disk(Blaschke(0.0, (0j,)), 0.5 + 0j, -0.1j) == 0.0

    def test_disk_square_hand_value(self):
        assert abs(check_schwarz_pick_disk(SQUARE, 0.5 + 0j, 0j) - 0.25) < 1e-15

    def test_disk_automorphism_equality_on_pairs(self):
        m = Blaschke(0.3, (0.5 + 0j,))
        u = Uniforms(substream(71, 0))
        for _ in range(1000):
            z, w = sample_interior_pair(D, u)
            assert abs(check_schwarz_pick_disk(m, z, w)) <= 1e-12


class TestInequalityChain:
    def test_step_1_2_identity_hand_value(self):
        got = check_step_1_2(IDENTITY, 1j, 2j)
        assert abs(got - (math.sqrt(2.0) - 1.0)) < 1e-15

    def test_step_1_2_nonnegative_on_samples(self):
        u = Uniforms(substream(73, 0))
        for _ in range(2000):
            m = random_halfplane_map(u)
            z, w = sample_interior_pair(H, u)
            assert check_step_1_2(m, z, w) >= -1e-10 * 10  # raw slack, unnormalized

    def test_step_2_2_identity_hand_value(self):
        got = check_step_2_2(Blaschke(0.0, (0j,)), 0.5 + 0j, 0j)
        assert abs(got - (math.sqrt(2.0) - 1.0)) < 1e-15

    def test_step_2_2_rotation(self):
        # rotations keep |f(z)| = |z|: the bound degenerates to lhs*sqrt(1+lhs)
        m = Blaschke(1.1, (0j,))
        u = Uniforms(substream(79, 0))
        for _ in range(1000):
            z, w = sample_interior_pair(D, u)
            assert check_step_2_2(m, z, w) >= 0.0

    def test_bound_2_3_identity_slack_zero(self):
        z = 0.3 - 0.6j
        assert abs(check_bound_2_3(Blaschke(0.0, (0j,)), z)) < 1e-15

    def test_bound_2_3_square_hand_value(self):
        assert abs(check_bound_2_3(SQUARE, 0.7 + 0j) - 0.21) < 1e-15


class TestGFunction:
    def test_threshold_hand_value(self):
        assert abs(g_threshold(0.6) - 4.0) <= 1e-12

    def test_threshold_edges(self):
        assert g_threshold(1.0) == 0.0
        assert g_threshold(0.5) == math.inf
        with pytest.raises(DomainError):
            g_threshold(0.4)
        with pytest.raises(DomainError):
            g_threshold(1.1)

    def test_threshold_is_root(self):
        u = Uniforms(substream(83, 0))
        for _ in range(200):
            c = u.uniform(0.51, 0.99)
            t = g_threshold(c)
            assert abs(check_g_negativity(c, t)) <= 1e-10

    def test_both_printed_forms_agree(self):
        assert abs(g_threshold_from_modulus(0.5, 0.5) - 4.0) <= 1e-12
        # rounding c costs ~1e-16, amplified by 1/(2c-1): sample where that
        # stays far below the 1e-12 agreement tolerance
        u = Uniforms(substream(89, 0))
        for _ in range(1000):
            a = u.uniform(0.05, 0.999)
            r = u.uniform(0.0, 0.95)
            c = (1.0 + a) / (2.0 * (1.0 + a * r))
            t_c = g_threshold(c)
            t_ar = g_threshold_from_modulus(a, r)
            assert abs(t_c - t_ar) <= 1e-12 * max(1.0, t_ar)

    def test_g_negativity_hand_value(self):
        got = check_g_negativity(0.6, 2.0)
        expected = 1.2 + math.sqrt(2.44) - 3.0
        assert abs(got - expected) < 1e-15
        assert got < 0.0

    def test_g_small_argument_negative(self):
        assert check_g_negativity(0.9, 1e-8) < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            check_g_negativity(0.4, 1.0)
        with pytest.raises(DomainError):
            check_g_negativity(0.6, 0.0)
        with pytest.raises(DomainError):
            check_g_negativity(0.75, math.inf)


class TestLipschitzPair:
    def test_identity_is_isometry(self):
        assert check_lipschitz_pair(D, D, IDENTITY, 0.5 + 0j, 0j) == 1.0

    def test_square_hand_value(self):
        got = check_lipschitz_pair(D, D, SQUARE, 0.5 + 0j, 0j)
        expected = math.log(4.0 / 3.0) / math.log(2.0)
        assert abs(got - expected) <= 1e-12

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            check_lipschitz_pair(D, D, IDENTITY, 0.5 + 0j, 0.5 + 0j)

    def test_guarded_ratio_none_when_coincident(self):
        assert guarded_ratio(D, D, IDENTITY, 0.5 + 0j, 0.5 + 0j) is None

    def test_guarded_ratio_none_when_image_escapes(self):
        shift = Mobius(1, 0.5, 0, 1)
        assert guarded_ratio(D, D, shift, 0.7 + 0j, 0j) is None

    def test_guarded_ratio_none_when_image_is_boundary_coincident(self):
        # interior, but closer to the boundary than float rounding can resolve
        grazing = complex(1.0 - 5e-10, 0.0)
        assert guarded_ratio(D, D, IDENTITY, grazing, 0j) is None


def test_chain_implies_ceiling():
    # whenever the intermediate bounds hold, the distortion ratio obeys the
    # factor-2 ceiling on the same inputs
    u = Uniforms(substream(97, 0))
    for _ in range(2000):
        m = random_halfplane_map(u)
        z, w = sample_interior_pair(H, u)
        if check_step_1_2(m, z, w) >= -1e-10:
            ratio = guarded_ratio(H, H, m, z, w)
            if ratio is not None:
                assert ratio <= 2.0 + 1e-9
    for _ in range(2000):
        m = random_disk_map(u)
        z, w = sample_interior_pair(D, u)
        if check_step_2_2(m, z, w) >= -1e-10:
            ratio = guarded_ratio(D, D, m, z, w)
            if ratio is not None:
                assert ratio <= 2.0 + 1e-9


def test_disk_pairs_stay_inside_g_window():
    u = Uniforms(substream(101, 0))
    for _ in range(2000):
        m = random_blaschke(u)
        z, w = sample_interior_pair(D, u)
        r = max(abs(z), abs(w))
        x = abs(z - w) / (1.0 - r)
        assert x <= 2.0 * r / (1.0 - r) + 1e-12
        a = abs(apply(m, 0j))
        assert x < g_threshold_from_modulus(a, r)


class TestSuites:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_suite_passes(self, name):
        report = run_suite(name, samples=3000, seed=7)
        assert report.passed, f"{name}: worst={report.worst_margin} witness={report.worst_witness}"
        assert report.samples == 3000
        assert report.seed == 7

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("bogus", 10, 0)

    def test_report_passed_matches_tolerance(self):
        report = run_suite("schwarz-pick-disk", samples=2000, seed=3)
        assert report.passed == (report.worst_margin >= -1e-12)

    def test_json_fields_exact(self):
        report = run_suite("identity-disk", samples=500, seed=1)
        payload = json.loads(report.to_json())
        assert set(payload) == {"suite", "samples", "seed", "passed", "worst_margin", "worst_witness"}
        assert payload["suite"] == "identity-disk"

    def test_equality_suites(self):
        for kind in ("halfplane", "disk"):
            report = run_schwarz_pick_equality(kind, samples=3000, seed=11)
            assert report.passed, f"{kind}: worst={report.worst_margin}"

    def test_thread_count_invariance(self):
        lone = run_suite("schwarz-pick-disk", samples=10_000, seed=5, threads=1)
        dual = run_suite("schwarz-pick-disk", samples=10_000, seed=5, threads=2)
        assert lone.to_json() == dual.to_json()

    def test_margin_conventions_recorded(self):
        assert run_suite("identity-disk", 200, 0).margin_convention == "absolute"
        assert run_suite("step-1-2", 200, 0).margin_convention == "relative"
        assert run_suite("step-2-2", 200, 0).margin_convention == "relative"
        assert run_suite("lipschitz-pair", 200, 0).margin_convention == "absolute"

    def test_witness_recomputes_worst_margin(self):
        from jmetric.grammar import parse_complex, parse_map

        report = run_suite("schwarz-pick-disk", samples=5000, seed=21)
        wit = report.worst_witness
        slack = check_schwarz_pick_disk(
            parse_map(wit["map"]), parse_complex(wit["z"]), parse_complex(wit["w"])
        )
        assert slack == report.worst_margin

        report = run_suite("identity-halfplane", samples=5000, seed=21)
        wit = report.worst_witness
        x, y = parse_complex(wit["x"]), parse_complex(wit["y"])
        margin = -abs(check_identity_halfplane(x, y)) / (1.0 + abs(x) ** 2 + abs(y) ** 2)
        assert margin == report.worst_margin


class TestCeilings:
    def test_halfplane_small(self):
        report = lipschitz_ceiling("halfplane", maps=5, pairs_per_map=400, seed=13)
        assert report.passed
        assert report.samples == 2000

    def test_disk_small(self):
        report = lipschitz_ceiling("disk", maps=5, pairs_per_map=400, seed=13)
        assert report.passed

    def test_mobius_images_small(self):
        report = lipschitz_ceiling("mobius-images", maps=6, pairs_per_map=400, seed=13)
        assert report.passed

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            lipschitz_ceiling("wedge", maps=1, pairs_per_map=1, seed=0)

    def test_unknown_kind_rejected_before_any_chunk_runs(self, monkeypatch):
        def no_chunks(*args):
            raise AssertionError("run_ordered called")

        monkeypatch.setattr(verify_module, "run_ordered", no_chunks)
        with pytest.raises(DomainError, match="halfplane, disk, mobius-images"):
            lipschitz_ceiling("nonsense", 4, 10, 0, 2)


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(threads):
    with pytest.raises(DomainError):
        run_suite("identity-disk", 10, 0, threads)
    with pytest.raises(DomainError):
        lipschitz_ceiling("disk", 2, 10, 0, threads)


class _PoolStopped(Exception):
    pass


def test_pool_never_asks_for_more_workers_than_cpus(monkeypatch):
    # A stand-in executor records the pool size it is asked for and starts no process.
    requested = []

    class Recorder:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def map(self, fn, *iterables):
            raise _PoolStopped

        def shutdown(self, wait=True):
            pass

    # Start from no pool, and drop the cached stand-in when the test ends.
    parallel_module._shutdown()
    monkeypatch.setattr(parallel_module, "_pool", None)
    monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(parallel_module, "default_threads", lambda: 3)
    with pytest.raises(_PoolStopped):
        run_suite("g-negativity", 4096 * 5000, 0, threads=100_000)  # 5,000 chunks
    with pytest.raises(_PoolStopped):
        parallel_module.run_ordered(abs, [(-1,), (-2,)], 100_000)
    assert requested == [3, 2]
    monkeypatch.setattr(parallel_module, "default_threads", lambda: 1)
    assert parallel_module.run_ordered(abs, [(-1,), (-2,)], 8) == [1, 2]  # one CPU runs inline
    assert requested == [3, 2]


class _Stuck:
    """A uniform source that returns 0.0 forever."""

    def next(self):
        return 0.0

    def uniform(self, lo, hi):
        return lo


class TestRobustness:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_suite("identity-disk", 0),
            lambda: run_suite("identity-disk", -5),
            lambda: run_schwarz_pick_equality("disk", 0),
            lambda: lipschitz_ceiling("disk", 0, 10),
            lambda: lipschitz_ceiling("disk", 2, 0),
        ],
    )
    def test_counts_below_one_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    def test_guarded_ratio_none_when_image_is_infinite(self):
        assert guarded_ratio(H, H, Mobius(1e300, 0, 0, 1e-10), 1j, 2j) is None

    def test_guarded_ratio_none_when_image_modulus_overflows(self):
        # f(i) has finite coordinates near 1.7e308 whose modulus is not a float
        assert guarded_ratio(H, H, Mobius(1.7e298 + 1.7e298j, 0, 0, 1e-10), 1j, 2j) is None

    def test_unevaluated_report_fails_with_null_margin(self):
        payload = json.loads(CheckReport("s", 1, 0, False, math.inf).to_json())
        assert payload["worst_margin"] is None

    def test_ceiling_with_every_pair_skipped_fails(self, monkeypatch):
        import jmetric.verify

        monkeypatch.setattr(jmetric.verify, "guarded_ratios", lambda src, dst, m, z, w: np.full(z.real.shape, np.nan))
        report = lipschitz_ceiling("disk", maps=2, pairs_per_map=50, seed=0)
        assert report.skipped == 100
        assert report.passed is False
        assert json.loads(report.to_json())["worst_margin"] is None

    def test_stuck_draws_raise_in_mobius_family(self):
        with pytest.raises(DomainError):
            random_halfplane_mobius(_Stuck())

    def test_stuck_draws_raise_in_image_family(self):
        from jmetric.verify import _random_image_source_and_mobius

        with pytest.raises(DomainError):
            _random_image_source_and_mobius(_Stuck())

    def test_stuck_draws_raise_in_g_negativity(self, monkeypatch):
        import jmetric.verify

        monkeypatch.setattr(jmetric.verify, "Uniforms", lambda rng: _Stuck())
        with pytest.raises(DomainError):
            run_suite("g-negativity", samples=10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            run_suite("identity-disk", 10, seed=-1)

    def test_check_lipschitz_pair_overflow_raises_package_error(self):
        with pytest.raises(JmetricError):
            check_lipschitz_pair(H, H, Mobius(1, 0, 0, 1), complex(1.7e308, 1.7e308), 1j)
        with pytest.raises(JmetricError):
            check_lipschitz_pair(H, H, Mobius(1, 0, 1.4, 1), complex(1.2e308, 1.2e308), 1j)

    def test_guarded_ratio_none_when_source_distance_is_infinite(self):
        # z + i maps both points well inside H, but j_src = log1p(1e10 / 1e-300) is inf
        assert guarded_ratio(H, H, Mobius(1, 1j, 0, 1), 1e-300j, 1e10j) is None

    def test_guarded_ratio_none_when_pair_distance_overflows(self):
        # the images are tame, but |z - w| of the source pair is not a float
        assert guarded_ratio(H, H, Mobius(1, 0, 0, 1e10), complex(1.7e308, 1.7e308), 20j) is None
