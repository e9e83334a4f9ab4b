import json
import math

import numpy as np
import pytest

import jmetric.parallel as parallel_module
import jmetric.verify as verify_module
from jmetric.domains import UnitDisk, UpperHalfPlane, pseudo_hyperbolic_disk, pseudo_hyperbolic_halfplane
from jmetric.errors import CoincidentPoints, DomainError, JmetricError, PointOutsideDomain
from jmetric.grammar import parse_complex, parse_domain, parse_map
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
        maps = verify_module._halfplane_maps(substream(73, 1), 2000)
        for k in range(2000):
            m = maps[k]
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

    @pytest.mark.parametrize(
        "check, args, message",
        [
            (check_step_1_2, (IDENTITY, -1j, 1j), "points must lie in upperhalfplane"),
            (check_step_1_2, (Mobius(1, -5j, 0, 1), 1j, 2j), "image points left upperhalfplane"),
            (check_step_2_2, (IDENTITY, 0.5 + 0j, 1.5 + 0j), "points must lie in unitdisk"),
            (check_step_2_2, (Mobius(1, 0.9, 0, 1), 0.5 + 0j, 0.1 + 0j), "image points left unitdisk"),
            (check_bound_2_3, (SQUARE, 1.0 + 0j), "point must lie in the unit disk"),
        ],
        ids=["step-1-2-point", "step-1-2-image", "step-2-2-point", "step-2-2-image", "bound-2-3-point"],
    )
    def test_points_or_images_outside_the_domain_raise(self, check, args, message):
        with pytest.raises(PointOutsideDomain, match=message):
            check(*args)


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

    def test_threshold_from_modulus_edges(self):
        assert g_threshold_from_modulus(0.0, 0.5) == math.inf
        for a_mod, r in ((1.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, math.nan)):
            with pytest.raises(DomainError, match="needs arguments in"):
                g_threshold_from_modulus(a_mod, r)

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
    half_maps = verify_module._halfplane_maps(substream(97, 1), 2000)
    disk_maps = verify_module._disk_maps(substream(97, 2), 2000)
    for k in range(2000):
        m = half_maps[k]
        z, w = sample_interior_pair(H, u)
        if check_step_1_2(m, z, w) >= -1e-10:
            ratio = guarded_ratio(H, H, m, z, w)
            if ratio is not None:
                assert ratio <= 2.0 + 1e-9
    for k in range(2000):
        m = disk_maps[k]
        z, w = sample_interior_pair(D, u)
        if check_step_2_2(m, z, w) >= -1e-10:
            ratio = guarded_ratio(D, D, m, z, w)
            if ratio is not None:
                assert ratio <= 2.0 + 1e-9


def test_disk_pairs_stay_inside_g_window():
    u = Uniforms(substream(101, 0))
    maps = verify_module._blaschke_maps(substream(101, 1), 2000)
    for k in range(2000):
        m = maps[k]
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
        # 10,000 samples are three chunks, so two threads run a pool.
        for run in ALL_RUNS.values():
            lone, dual = run(10_000, 5, 1), run(10_000, 5, 2)
            assert lone.to_json() == dual.to_json() and lone.skipped == dual.skipped, lone.suite

    def test_margin_conventions_recorded(self):
        assert run_suite("identity-disk", 200, 0).margin_convention == "absolute"
        assert run_suite("step-1-2", 200, 0).margin_convention == "relative"
        assert run_suite("step-2-2", 200, 0).margin_convention == "relative"
        assert run_suite("lipschitz-pair", 200, 0).margin_convention == "absolute"
        assert run_suite("schwarz-pick-disk", 200, 0).margin_convention == "rounding-scaled"
        assert run_schwarz_pick_equality("halfplane", 200, 0).margin_convention == "rounding-scaled"

    def test_witness_recomputes_worst_margin(self, scalar_margin):
        # The witness map and points, parsed back from the report, give the
        # worst margin again through the public scalar checks.
        parse = {"map": parse_map, "src": parse_domain, "dst": parse_domain, "c": float, "X": float}
        for name, run in ALL_RUNS.items():
            report = run(5000, 21, 1)
            values = tuple(parse.get(key, parse_complex)(text) for key, text in report.worst_witness.items())
            assert scalar_margin(name, values) == report.worst_margin, name


# Every suite row, by report name, as run(samples, seed, threads).
ALL_RUNS = {
    name: (lambda samples, seed, threads, name=name: run_suite(name, samples, seed, threads)) for name in SUITE_NAMES
}
for _kind in ("halfplane", "disk"):
    ALL_RUNS[f"schwarz-pick-{_kind}-equality"] = (
        lambda samples, seed, threads, kind=_kind: run_schwarz_pick_equality(kind, samples, seed, threads)
    )

# Worst witnesses of two 8,192-sample runs (seeds 438127250 and 451881940) that
# failed while Schwarz-Pick margins were absolute slacks.  Each map is a
# composition of automorphisms, so the true slack is 0; an image lies 9.1e-6
# from the unit circle, and at height 1.3e-4 at modulus 1.06.
SCHWARZ_PICK_MISFIRES = [
    (
        UnitDisk(), pseudo_hyperbolic_disk, check_schwarz_pick_disk,
        "compose(blaschke:0.32354516143999834;[0.7168178527343763-0.6097020477367073i],"
        "blaschke:2.8305392759572117;[0.028759621228598008+0.9491020327306826i])",
        "-0.43166084258630644-0.8938236486772599i", "-0.4761776735614487-0.7773987048813116i",
        -1.2601031329495527e-12,
    ),
    (
        UpperHalfPlane(), pseudo_hyperbolic_halfplane, check_schwarz_pick_halfplane,
        "compose(mobius:-1.0841333278868657,-0.6447715799908229,1.1561331207972039,0.5513009592699509,"
        "mobius:0.7913121203892177,-0.15392256854167385,1.9630831267142725,-0.21182392378877823)",
        "6.975201777550637+1.2964928758194978i", "8.987280562836514+1.6067241311593654i",
        -1.0501599589929356e-12,
    ),
]


@pytest.mark.parametrize(
    "domain, distance, check, text, z, w, slack", SCHWARZ_PICK_MISFIRES, ids=["disk", "halfplane"]
)
def test_schwarz_pick_rounding_noise_is_within_tolerance(domain, distance, check, text, z, w, slack):
    m, z, w = parse_map(text), parse_complex(z), parse_complex(w)
    assert check(m, z, w) == slack < -1e-12  # the absolute slack misses the tolerance
    images = apply(m, z), apply(m, w)
    assert verify_module._sp_margin(distance, domain, z, w, *images) >= -1e-12
    assert verify_module._sp_equality(distance, domain, z, w, *images) >= -1e-12


@pytest.mark.parametrize(
    "kind, automorphism, off",
    [
        ("halfplane", Mobius(2, 1, 1, 1), Mobius(2, 1 - 1e-9j, 1, 1)),
        ("disk", Mobius(1, -0.5, -0.5, 1), Mobius(1 + 1e-9, -0.5, -0.5, 1)),
    ],
)
def test_schwarz_pick_runs_fail_a_map_just_off_an_automorphism(draw_only, kind, automorphism, off):
    # Every family draws the one map given; one coefficient 1e-9 off an
    # automorphism makes a map that is no self-map, and both runs must see it.
    for m, passed in ((automorphism, True), (off, False)):
        draw_only(m)
        contraction = run_suite(f"schwarz-pick-{kind}", 5000, 42)
        equality = run_schwarz_pick_equality(kind, 5000, 42)
        assert contraction.passed is equality.passed is passed, (contraction.worst_margin, equality.worst_margin)
        assert contraction.skipped == equality.skipped == 0


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
        with pytest.raises(DomainError, match="kind must be 'halfplane' or 'disk', got 'wedge'"):
            run_schwarz_pick_equality("wedge", 10, 0)


class TestRunSizeCaps:
    """One past a cap raises before the run lists its tasks; at the cap the run starts
    (and here stops at run_ordered)."""

    @pytest.fixture(autouse=True)
    def no_chunks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("run_ordered called")

        monkeypatch.setattr(verify_module, "run_ordered", refuse)

    def test_samples_past_the_cap_rejected(self):
        cap = verify_module._SAMPLES_MAX
        with pytest.raises(DomainError, match=rf"samples must be an integer in \[1, {cap}\], got {cap + 1}"):
            run_suite("identity-disk", cap + 1)
        with pytest.raises(DomainError, match="samples must be an integer in"):
            run_schwarz_pick_equality("disk", cap + 1)
        with pytest.raises(AssertionError, match="run_ordered called"):
            run_suite("identity-disk", cap)

    @pytest.mark.parametrize("maps, pairs", [(1, 10**9 + 1), (2, 5 * 10**8 + 1), (10**5, 10**4 + 1)])
    def test_ceiling_pairs_past_the_cap_rejected(self, maps, pairs):
        assert maps * pairs > verify_module._SAMPLES_MAX
        with pytest.raises(DomainError, match="product <= 1000000000"):
            lipschitz_ceiling("disk", maps, pairs)

    def test_ceiling_pairs_at_the_cap_start(self):
        with pytest.raises(AssertionError, match="run_ordered called"):
            lipschitz_ceiling("disk", 1, verify_module._SAMPLES_MAX)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_suite("identity-disk", True),
            lambda: run_suite("identity-disk", 2.5),
            lambda: run_suite("identity-disk", 10, 1.5),
            lambda: run_suite("identity-disk", 10, -1),
            lambda: run_schwarz_pick_equality("disk", np.float64(10)),
            lambda: lipschitz_ceiling("disk", 2.5, 10),
            lambda: lipschitz_ceiling("disk", 2, False),
            lambda: lipschitz_ceiling("disk", 2, 10, "0"),
        ],
        ids=["samples-bool", "samples-float", "seed-float", "seed-negative", "samples-numpy-float",
             "maps-float", "pairs-bool", "seed-str"],
    )
    def test_non_integer_arguments_rejected_before_any_chunk(self, call):
        with pytest.raises(DomainError, match="must be an integer in"):
            call()

    def test_numpy_integers_accepted(self):
        with pytest.raises(AssertionError, match="run_ordered called"):
            run_suite("identity-disk", np.int64(10), np.uint32(3))


@pytest.mark.parametrize("threads", [0, -1])
def test_nonpositive_threads_rejected(threads):
    with pytest.raises(DomainError):
        run_suite("identity-disk", 10, 0, threads)
    with pytest.raises(DomainError):
        lipschitz_ceiling("disk", 2, 10, 0, threads)


@pytest.mark.parametrize("threads", [1.5, True])
def test_non_integer_threads_rejected(threads):
    with pytest.raises(DomainError, match=r"threads must be an integer in \[1, inf\]"):
        run_suite("identity-disk", 10, 0, threads)
    with pytest.raises(DomainError):
        lipschitz_ceiling("disk", 2, 10, 0, threads)


class _PoolStopped(Exception):
    pass


def test_pool_never_asks_for_more_workers_than_cpus(monkeypatch):
    # A stand-in pool records the pool size it is asked for and starts no process.
    requested = []

    class Recorder:
        def __init__(self, workers):
            requested.append(workers)

        def run(self, worker, tasks):
            raise _PoolStopped

        def close(self, kill=False):
            pass

    # Start from no pool, and drop the cached stand-in when the test ends.
    parallel_module._shutdown()
    monkeypatch.setattr(parallel_module, "_pool", None)
    monkeypatch.setattr(parallel_module, "_Pool", Recorder)
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


class _StuckGenerator:
    """A generator whose uniforms are all 0.0."""

    def random(self, size=None):
        return np.zeros(size)


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

        stage = jmetric.verify._point_stage

        def unusable(src, dst, m, z):
            return stage(src, dst, m, z)._replace(usable=np.zeros(z.real.shape, bool))

        monkeypatch.setattr(jmetric.verify, "_point_stage", unusable)
        report = lipschitz_ceiling("disk", maps=2, pairs_per_map=50, seed=0)
        assert report.skipped == 100
        assert report.passed is False
        assert json.loads(report.to_json())["worst_margin"] is None

    def test_stuck_draws_raise_in_mobius_family(self):
        for family in (verify_module._halfplane_maps, verify_module._halfplane_automorphisms):
            with pytest.raises(DomainError, match="determinant"):
                family(_StuckGenerator(), 5)

    def test_stuck_draws_raise_in_image_family(self):
        from jmetric.verify import _random_image_source_and_mobius

        with pytest.raises(DomainError):
            _random_image_source_and_mobius(_Stuck())

    def test_stuck_draws_raise_in_g_negativity(self, monkeypatch):
        import jmetric.verify

        monkeypatch.setattr(jmetric.verify, "substream", lambda seed, index: _StuckGenerator())
        with pytest.raises(DomainError, match="no positive X"):
            run_suite("g-negativity", samples=10, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            run_suite("identity-disk", 10, seed=-1)

    @pytest.mark.parametrize(
        "error, check, args",
        [
            (PointOutsideDomain, pseudo_hyperbolic_disk, (-1e-9 - 1j, -1.7e308 - 1.7e308j)),
            (DomainError, check_identity_halfplane, (1.7e308 + 1.7e308j, 1j)),
            (DomainError, check_identity_disk, (0.5 - 1.7e308j, -1 + 0.62j)),
            (PointOutsideDomain, check_bound_2_3, (IDENTITY, 1.7e308 - 1.7e308j)),
            (PointOutsideDomain, check_schwarz_pick_disk, (Blaschke(-1.4e-200, ()), 1e200 + 2e200j, 1.7e308 - 1.7e308j)),
            (DomainError, check_step_1_2, (Blaschke(1.64, ()), 7.471e307 + 1.7e308j, 4.595e-161j)),
        ],
        ids=lambda v: v.__name__ if callable(v) else None,
    )
    def test_modulus_past_the_float_range_raises_package_error(self, error, check, args):
        # abs() of each of these raised a bare OverflowError.
        with pytest.raises(error):
            check(*args)

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
