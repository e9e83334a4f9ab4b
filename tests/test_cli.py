import json
import os
import subprocess
import sys

import numpy as np
import pytest

import jmetric
from jmetric import cli
from jmetric.cli import main
from jmetric.maps import Mobius
from jmetric.search import extremal_ratio
import jmetric.verify as verify_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_plain_nine_digits(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--domain", "unitdisk", "--z", "0.5+0i", "--w", "-0.5+0i"
        )
        assert code == 0
        assert out == "1.09861229\n"  # log 3 to 9 significant digits

    def test_negative_value_after_flag(self, capsys):
        # "-0.5+0i" must not be read as a flag
        code, out, _ = run(
            capsys, "dist", "--domain", "upperhalfplane", "--z", "0+1i", "--w", "-1+1i"
        )
        assert code == 0

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "dist", "--domain", "unitdisk", "--z", "0.5+0i", "--w", "-0.5+0i",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["z"] == "0.5"
        assert payload["w"] == "-0.5"
        assert abs(payload["j_distance"] - 1.0986122886681096) < 1e-15

    def test_outside_domain_is_exit_3(self, capsys):
        code, _, err = run(
            capsys, "dist", "--domain", "unitdisk", "--z", "2+0i", "--w", "0+0i"
        )
        assert code == 3
        assert "error" in err

    def test_bad_complex_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "dist", "--domain", "unitdisk", "--z", "zebra", "--w", "0+0i"
        )
        assert code == 2

    def test_missing_flag_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", "unitdisk", "--z", "0.1+0i")
        assert code == 2

    @pytest.mark.parametrize("style", ["plain", "json"])
    def test_infinite_distance_is_exit_3(self, capsys, style):
        code, out, err = run(
            capsys, "dist", "--domain", "upperhalfplane", "--z", "1e308+1i", "--w=-1e308+1i", "--output", style
        )
        assert (code, out) == (3, "")
        assert "overflows" in err

    def test_overflowing_pair_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "dist", "--domain", "upperhalfplane", "--z", "1.7e308+1.7e308i", "--w", "0+1i"
        )
        assert (code, out) == (3, "")
        assert "overflows" in err


class TestMapEval:
    def test_extremal_at_i(self, capsys):
        code, out, _ = run(capsys, "map-eval", "--map", "extremal:0,0", "--z", "0+1i")
        assert code == 0
        assert out == "0+1i\n"

    def test_pole_is_exit_3(self, capsys):
        code, _, _ = run(capsys, "map-eval", "--map", "extremal:0,2", "--z", "-2")
        assert code == 3

    def test_bad_map_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "map-eval", "--map", "mobius:1,0,0", "--z", "0")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "map-eval", "--map", "extremal:0,0", "--z", "0+1i", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"map": "extremal:0,0", "z": "0.0+1.0i", "value": "0.0+1.0i"}

    def test_overflowing_evaluation_is_exit_3(self, capsys):
        code, out, _ = run(capsys, "map-eval", "--map", "mobius:1,0,1.4,1", "--z", "1.2e308+1.2e308i")
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("style", ["plain", "json"])
    def test_value_past_the_float_range_is_exit_3(self, capsys, style):
        code, out, err = run(capsys, "map-eval", "--map", "mobius:1e300,0,0,1e-300", "--z", "1e10", "--output", style)
        assert (code, out) == (3, "")
        assert "float range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--map", "extremal:0,0", "--z", "1e400", "--output", "json"),
            ("--map", "extremal:0,0", "--z", "1+1e400i"),
            ("--map", "mobius:1,0,0,1", "--z", "1e400"),
            ("--map", "mobius:1,0,0,-1e400", "--z", "1"),
            ("--map", "extremal:0,0", "--z", "1", "--domain", "disk:0,0,1e999"),
        ],
        ids=["z-json", "z-imag", "mobius-z", "coefficient", "domain"],
    )
    def test_overflowing_literal_is_exit_2(self, capsys, argv):
        code, out, _ = run(capsys, "map-eval", *argv)
        assert (code, out) == (2, "")

    def test_domain_guard(self, capsys):
        code, out, _ = run(
            capsys, "map-eval", "--map", "blaschke:0;[0.5+0i]", "--z", "0.25",
            "--domain", "unitdisk",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "map-eval", "--map", "blaschke:0;[0.5+0i]", "--z", "2",
            "--domain", "unitdisk",
        )
        assert code == 3


class TestVerify:
    def test_single_suite_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identity-disk", "--samples", "2000", "--seed", "42"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"suite", "samples", "seed", "passed", "worst_margin", "worst_witness"}
        assert payload["passed"] is True
        assert payload["samples"] == 2000
        assert payload["seed"] == 42

    def test_all_suites_plain(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--samples", "500", "--seed", "1",
            "--output", "plain",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == len(verify_module.SUITE_NAMES)
        assert all("PASS" in line for line in lines)

    def test_unknown_suite_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    def test_failed_suite_is_exit_1(self, capsys, monkeypatch):
        import jmetric.verify

        def broken(rng, count):
            return np.full(count, -1.0), lambda k: (0j, 0j)

        monkeypatch.setitem(jmetric.verify._ROWS, "identity-disk", (broken, ("x", "y"), 1e-10, "absolute"))
        code, out, _ = run(capsys, "verify", "--suite", "identity-disk", "--samples", "10")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_plain_report_counts_skips(self, capsys, draw_only):
        # A shift sends some disk pairs out of the disk: those samples are skipped.
        draw_only(Mobius(1, 0.5, 0, 1))
        argv = ["verify", "--suite", "schwarz-pick-disk", "--samples", "300", "--seed", "4", "--threads", "1"]
        code, out, _ = run(capsys, *argv, "--output", "plain")
        skipped = verify_module.run_suite("schwarz-pick-disk", 300, 4, 1).skipped
        assert 0 < skipped < 300
        assert code == 1 and out.startswith("schwarz-pick-disk: FAIL samples=300 seed=4 worst_margin=")
        assert out.endswith(f" convention=rounding-scaled skipped={skipped}\n")

    def test_all_fails_when_one_suite_fails(self, capsys, monkeypatch):
        import jmetric.verify

        def broken(rng, count):
            return np.full(count, -1.0), lambda k: (0j, 0j)

        monkeypatch.setitem(jmetric.verify._ROWS, "identity-disk", (broken, ("x", "y"), 1e-10, "absolute"))
        code, out, _ = run(capsys, "verify", "--suite", "all", "--samples", "10")
        assert code == 1
        payloads = json.loads(out)
        assert sum(1 for p in payloads if not p["passed"]) == 1

    def test_every_sample_skipped_is_a_failure(self, capsys, monkeypatch):
        import jmetric.verify

        def skip_all(rng, count):
            return np.full(count, np.nan), None

        monkeypatch.setitem(jmetric.verify._ROWS, "identity-disk", (skip_all, ("x", "y"), 1e-10, "absolute"))
        code, out, _ = run(capsys, "verify", "--suite", "identity-disk", "--samples", "10")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["worst_margin"] is None

    @pytest.mark.parametrize(
        "flags",
        [("--samples", "0"), ("--samples", "-5"), ("--threads", "0")],
    )
    def test_counts_below_one_are_exit_2(self, capsys, flags):
        code, out, _ = run(capsys, "verify", "--suite", "identity-disk", *flags)
        assert code == 2
        assert out == ""

    def test_negative_seed_is_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "identity-disk", "--samples", "10", "--seed", "-1"
        )
        assert (code, out) == (2, "")

    def test_deterministic_output(self, capsys):
        args = ("verify", "--suite", "schwarz-pick-disk", "--samples", "3000", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_thread_flag_does_not_change_output(self, capsys):
        base = ("verify", "--suite", "step-2-2", "--samples", "9000", "--seed", "4")
        _, lone, _ = run(capsys, *base, "--threads", "1")
        _, dual, _ = run(capsys, *base, "--threads", "2")
        assert lone == dual

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "g-negativity", "--samples", "500",
            "--output", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "suite,samples,seed,passed,worst_margin"
        assert lines[1].startswith("g-negativity,500,0,true,")


class TestSearch:
    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "search", "--domain", "unitdisk", "--map", "blaschke:0;[0.5+0i]",
            "--grid", "8", "--rounds", "20", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_ratio"] >= 1.49
        assert payload["theoretical_ceiling"] == 2.0
        assert payload["cstar_interval"] == [1.5, 2.0]
        assert payload["config"]["grid_per_axis"] == 8

    def test_dst_domain_override(self, capsys):
        code, out, _ = run(
            capsys, "search", "--domain", "upperhalfplane", "--map", "mobius:1,0-1i,1,0+1i",
            "--dst-domain", "unitdisk", "--grid", "6", "--rounds", "10",
        )
        assert code == 0
        assert json.loads(out)["best_ratio"] <= 2.0 + 1e-9

    def test_ratio_past_the_ceiling_is_exit_3(self, capsys):
        # At |z| ~ 8e4 the images of a pair 1e-7 apart differ by one ulp: the
        # computed ratio 14.6 is rounding noise above the proven ceiling 2.
        code, out, err = run(capsys, "search", "--domain", "upperhalfplane", "--map", "extremal:1,1", "--grid", "12")
        assert (code, out) == (3, "")
        assert "best ratio 14.6087" in err and "z = -272.72727" in err and "proven ceiling 2.0" in err

    def test_zero_threads_is_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--threads", "0"
        )
        assert code == 2
        assert out == ""

    def test_negative_rounds_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--rounds", "-3"
        )
        assert (code, out) == (2, "")
        assert "--rounds must be at least 0" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--suite", "identity-disk", "--samples", "1000000001"),
            ("search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--rounds", "10001"),
            ("search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--grid", "257"),
        ],
    )
    def test_counts_past_their_cap_are_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{argv[-2]} must be at most {int(argv[-1]) - 1}, got {argv[-1]}" in err

    def test_grid_below_two_is_exit_2(self, capsys):
        code, out, err = run(
            capsys, "search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--grid", "1"
        )
        assert (code, out) == (2, "")
        assert "--grid must be at least 2" in err

    def test_negative_seed_is_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--seed", "-1"
        )
        assert (code, out) == (2, "")

    def test_disk_inside_the_margin_is_exit_3(self, capsys):
        code, out, err = run(
            capsys, "search", "--domain", "disk:0,0,1e-7", "--map", "mobius:1,0,0,1", "--grid", "3", "--rounds", "1"
        )
        assert (code, out) == (3, "")
        assert "margin" in err

    def test_huge_mobius_coefficients_search_their_image(self, capsys):
        # The image domain's forms square the 1e200 coefficients; float ** raised OverflowError.
        code, out, _ = run(
            capsys, "search", "--domain", "upperhalfplane", "--map", "mobius:0+1e200i,1e200,1,1e200",
            "--grid", "4", "--rounds", "1",
        )
        assert code == 0
        assert json.loads(out)["best_ratio"] <= 2.0 + 1e-9

    def test_image_form_underflowing_to_zero_is_exit_3(self, capsys):
        # Scaled to the 1e200 coefficient, the others underflow and the image's form is 0.
        code, out, err = run(
            capsys, "search", "--domain", "upperhalfplane", "--map", "mobius:1e-200,0+1e-200i,0,1e200",
            "--grid", "4", "--rounds", "1",
        )
        assert (code, out) == (3, "")
        assert "underflowing to 0" in err

    @pytest.mark.parametrize("margin", ["1e-200", "2"])
    def test_margin_without_height_range_is_exit_3(self, capsys, margin):
        code, out, _ = run(
            capsys, "search", "--domain", "upperhalfplane", "--map", "extremal:1,1",
            "--margin", margin, "--grid", "2", "--rounds", "0",
        )
        assert (code, out) == (3, "")

    def test_plain_output(self, capsys):
        code, out, _ = run(
            capsys, "search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1",
            "--grid", "6", "--rounds", "5", "--output", "plain",
        )
        assert code == 0
        assert out.startswith("best_ratio=1 ")


class TestExtremal:
    def test_csv_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "extremal", "--a", "0", "--b", "0", "--t", "1,10,100,1000")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,closed_form,measured,abs_rel_gap"
        assert len(lines) == 5
        for line, t in zip(lines[1:], (1.0, 10.0, 100.0, 1000.0)):
            fields = line.split(",")
            assert float(fields[0]) == t
            assert abs(float(fields[1]) - extremal_ratio(t)) < 1e-15
            assert float(fields[3]) <= 1e-9

    def test_bad_offsets_exit_2(self, capsys):
        code, _, _ = run(capsys, "extremal", "--t", "1,zebra")
        assert code == 2

    def test_no_offsets_exit_2(self, capsys):
        code, out, err = run(capsys, "extremal", "--t", ",")
        assert (code, out) == (2, "")
        assert "--t must name at least one offset" in err

    def test_json_and_plain(self, capsys):
        code, out, _ = run(capsys, "extremal", "--a", "0", "--b", "0", "--t", "1,10", "--output", "json")
        assert code == 0
        rows = json.loads(out)
        assert [row["t"] for row in rows] == [1.0, 10.0]
        assert all(row["closed_form"] == extremal_ratio(row["t"]) and row["abs_rel_gap"] <= 1e-9 for row in rows)
        code, out, _ = run(capsys, "extremal", "--a", "0", "--b", "0", "--t", "1,10", "--output", "plain")
        assert (code, out) == (0, "1 1.2715533 1.2715533\n10 1.92670906 1.92670906\n")

    def test_negative_offset_exit_3(self, capsys):
        code, _, _ = run(capsys, "extremal", "--t", "-1")
        assert code == 3


class TestBounds:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "bounds", "--a", "0.5")
        assert code == 0
        assert out == "1.5 2\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--a", "0.25", "--output", "json")
        assert code == 0
        assert json.loads(out) == {"lower": 1.25, "upper": 2.0}

    def test_out_of_range_exit_3(self, capsys):
        code, _, _ = run(capsys, "bounds", "--a", "1.5")
        assert code == 3


SEARCH = ("search", "--domain", "unitdisk", "--map", "mobius:1,0,0,1", "--grid", "4", "--rounds", "2")


class TestRealFlags:
    """Real-valued flags take the grammar's decimal literals and nothing else."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("extremal", "--a", "0", "--b", "0", "--t", "1e400"),
            ("extremal", "--t", "1,nan"),
            ("extremal", "--a", "inf", "--t", "1"),
            ("extremal", "--b", "-1e400", "--t", "1"),
            ("bounds", "--a", "nan"),
            ("bounds", "--a", "1e400"),
            (*SEARCH, "--margin", "nan"),
            (*SEARCH, "--separation", "inf"),
            (*SEARCH, "--margin", "1e-6 "),
        ],
        ids=["t-overflow", "t-nan", "a-inf", "b-overflow", "bounds-nan", "bounds-overflow",
             "margin-nan", "separation-inf", "margin-space"],
    )
    def test_non_literal_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "non-finite" not in err and "(inf" not in err

    def test_config_value_is_parsed_like_a_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=nan\n")
        code, out, err = run(capsys, "bounds", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "--a must be a finite decimal real, got 'nan'" in err

    @pytest.mark.parametrize("literal", ["0.5", ".5", "+0.5", "5e-1", "0.50", "5.E-1"])
    def test_accepted_literals_keep_their_value(self, capsys, literal):
        assert run(capsys, "bounds", "--a", literal) == (0, "1.5 2\n", "")

    def test_offset_list_keeps_skipping_empty_parts(self, capsys):
        assert run(capsys, "extremal", "--t", "1,,10,") == run(capsys, "extremal", "--t", "1,10")


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain=unitdisk\nz=0.5+0i\nw=-0.5+0i\n")
        code, out, _ = run(capsys, "dist", "--config", str(cfg))
        assert code == 0
        assert out == "1.09861229\n"

    def test_flags_win_over_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain=unitdisk\nz=0.5+0i\nw=-0.5+0i\n")
        code, out, _ = run(capsys, "dist", "--config", str(cfg), "--w", "0+0i")
        assert code == 0
        assert out == "0.693147181\n"  # log 2

    def test_blank_and_comment_lines_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# unit disk\n\ndomain=unitdisk\n   \nz=0.5+0i\n  # w below\nw=-0.5+0i\n")
        code, out, _ = run(capsys, "dist", "--config", str(cfg))
        assert (code, out) == (0, "1.09861229\n")

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain unitdisk\n")
        code, _, _ = run(capsys, "dist", "--config", str(cfg))
        assert code == 2

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "dist", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_command_table_row(capsys, tmp_path, name):
    """Each _COMMANDS row alone declares the command's flags and styles."""
    _, _, flags, styles = cli._COMMANDS[name]
    parser = cli._build_parser()
    for flag in flags + ("config",):
        args = parser.parse_args(cli._merge_negative_values([name, f"--{flag}", "-1"]))
        assert getattr(args, flag.replace("-", "_")) == "-1"
    for style in sorted({"plain", "json", "csv", "xml"} - set(styles)):
        cfg = tmp_path / f"{style}.cfg"
        cfg.write_text(f"output={style}\n")
        for argv in ([name, "--output", style], [name, "--config", str(cfg)]):
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (2, "")
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("sampels=7\n")
    code, out, err = run(capsys, name, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "sampels" in err


def test_parser_is_built_once_and_reused(capsys):
    assert cli._build_parser() is cli._build_parser()
    argv = ["verify", "--suite", "identity-halfplane", "--samples", "64", "--seed", "3", "--output", "plain"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(jmetric.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "jmetric", *argv], capture_output=True, text=True, env=env, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    # A handler error and an argparse error in this process leave the parser as it was.
    assert run(capsys, "verify", "--suite", "nope")[:2] == (2, "")
    assert run(capsys, "verify", "--output", "xml")[:2] == (2, "")
    assert run(capsys, *argv)[:2] == (0, fresh.stdout)
