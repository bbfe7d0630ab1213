import argparse
import json
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import reference_format_record

from pjinv import cli
from pjinv.cli import format_record, load_config, main
from pjinv.maps import identity_map

SRC = str(Path(cli.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_parse_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 7\ntol = 1e-6  # inline\n"
                       "provider = sum\nanalytic-beta = true\n\n")
        parsed = load_config(cfg)
        assert parsed == {"seed": 7, "tol": 1e-6, "provider": "sum",
                          "analytic-beta": True}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_config_fills_arguments(self, tmp_path, capsys):
        # every key, including those whose option has a default, reaches
        # the run and its config echo
        cfg = tmp_path / "run.cfg"
        cfg.write_text("map = theta-a:4:0.5\nprovider = sum\nseed = 7\n"
                       "analytic-beta = true\ngrid-n = 3\nt-max = 1.5\n"
                       "shell-samples = 5\n")
        code, out, _ = run(capsys, "certify", "--config", str(cfg))
        assert code == 0
        echo = json.loads(out)["config"]
        for key, val in load_config(cfg).items():
            attr = "map_id" if key == "map" else key.replace("-", "_")
            assert echo[attr] == val, key

    def test_command_line_flag_overrides_config(self, tmp_path, capsys):
        # a flag given on the command line wins, even at its default value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("map = theta-a:4:0.5\nseed = 7\ngrid-n = 3\n"
                       "analytic-beta = true\n")
        code, out, _ = run(capsys, "certify", "--config", str(cfg),
                           "--seed", "0", "--grid-n", "5",
                           "--map", "theta-c:2")
        assert code == 0
        echo = json.loads(out)["config"]
        assert (echo["seed"], echo["grid_n"], echo["map_id"]) == \
            (0, 5, "theta-c:2")
        assert echo["analytic_beta"] is True

    def test_config_values_are_checked_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        code, out, err = run(capsys, "invert", "--map", "identity",
                             "--target", "1,2,3", "--config", str(cfg))
        assert code == 2
        assert "config error" in err and "invalid choice: 'bogus'" in err
        assert out == ""

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "certify", "--map", "identity",
                           "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_config_file_that_is_not_utf8_is_config_error(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe = 1\n")
        code, out, err = run(capsys, "certify", "--map", "identity",
                             "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error: ") and str(cfg) in err
        assert "not UTF-8" in err and out == ""


class TestFormatRecord:
    def test_sorted_keys_and_float_formatting(self):
        text = format_record({"b": 1 / 3, "a": np.float64(2.0),
                              "v": np.array([1.0, 0.1 + 0.2])})
        assert text == ('{"a": 2.0, "b": 0.333333333333, "v": [1.0, 0.3]}\n')

    def test_idempotent(self):
        rec = {"x": 0.1234567890123456789, "y": [1e-30, 2.0]}
        once = format_record(rec)
        twice = format_record(json.loads(once))
        assert once == twice


edge_floats = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"),
                                float("nan"), 5e-324, -2.2250738585072014e-308,
                                1.7976931348623157e308, -1e300, 0.1 + 0.2])
report_leaves = st.one_of(
    st.floats(), edge_floats,
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(), st.booleans(), st.none(), st.text(max_size=4),
    arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
           st.integers(0, 5)),
)
report_values = st.recursive(
    report_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, deadline=None)
@given(st.dictionaries(st.text(max_size=4), report_values, max_size=5))
def test_format_record_matches_reference_bytes(record):
    assert format_record(record) == reference_format_record(record)


class TestNonFiniteReports:
    def test_format_record_writes_null(self):
        text = format_record({"a": float("inf"), "b": [np.nan, 1.0]})
        assert text == '{"a": null, "b": [null, 1.0]}\n'

    def test_ekeland_overflow_report(self, capsys):
        code, out, _ = run(capsys, "invert", "--map", "exp1d", "--provider",
                           "exact", "--method", "ekeland", "--target", "1e300")
        assert code == 1
        assert "Infinity" not in out and "NaN" not in out
        rec = json.loads(out)
        assert rec["status"] == "overflow"
        assert rec["final_residual"] is None

    def test_newton_overflow_report(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "invert", "--map", "exp1d", "--provider",
                               "exact", "--method", "newton", "--target",
                               "1e300")
        assert code == 1
        rec = json.loads(out)
        assert rec["status"] == "overflow"
        assert rec["final_x"] == [0.0] and rec["final_residual"] is None

    def test_path_overflow_report(self, capsys):
        # the path is lifted no further than t = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "invert", "--map", "exp1d", "--provider",
                               "exact", "--method", "path", "--target",
                               "1e300")
        assert code == 1
        rec = json.loads(out)
        assert rec["status"] == "overflow"
        assert rec["final_x"] == [0.0] and rec["t_grid"] == [0.0]


class TestCatalog:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert "theta-c:<n>" in out
        assert "exp1d" in out
        code2, out2, _ = run(capsys, "catalog")
        assert out == out2


class TestCertify:
    def test_theta_a_regular_certified(self, capsys):
        code, out, _ = run(capsys, "certify", "--map", "theta-a:6:0.5",
                           "--provider", "sum", "--analytic-beta")
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] == "regular-certified"
        assert rec["alpha_min"] == pytest.approx(0.5, abs=1e-6)
        assert rec["hadamard"] == "diverges_analytic"

    def test_theta_b_not_regular(self, capsys):
        code, out, _ = run(capsys, "certify", "--map", "theta-b:6",
                           "--provider", "sum", "--analytic-beta")
        assert code == 1
        assert json.loads(out)["verdict"] == "not-regular"

    def test_theta_c_analytic(self, capsys):
        code, out, _ = run(capsys, "certify", "--map", "theta-c:6",
                           "--provider", "sum", "--analytic-beta",
                           "--grid-n", "4097")
        assert code == 0
        rec = json.loads(out)
        assert rec["verdict"] == "regular-certified"
        assert rec["hadamard"] == "diverges_analytic"
        assert rec["rho_at_tmax"] == pytest.approx(np.log(3.0), abs=1e-6)
        assert rec["rho_lower_at_tmax"] <= np.log(3.0) <= rec["rho_at_tmax"]

    def test_determinism_and_csv(self, tmp_path, capsys):
        args = ["certify", "--map", "theta-a:5:0.5", "--provider", "sum",
                "--seed", "3", "--analytic-beta", "--grid-n", "33"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--csv", str(csv1)]) == 0
        assert main(args + ["--out", str(out2), "--csv", str(csv2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert csv1.read_bytes() == csv2.read_bytes()
        assert csv1.read_text().splitlines()[0] == "t,beta,rho"

    def test_analytic_singular_linear_is_inconclusive(self, tmp_path, capsys):
        # sigma_min of [[1, 2], [2, 4]] computes as 1e-16, under the
        # profile's rounding margin: beta is 0, not a certificate
        path, csv = tmp_path / "a.txt", tmp_path / "p.csv"
        path.write_text("1 2\n2 4\n")
        code, out, _ = run(capsys, "certify", "--map", f"linear:{path}",
                           "--analytic-beta", "--csv", str(csv))
        assert code == 1
        rec = json.loads(out)
        assert (rec["hadamard"], rec["verdict"]) == ("fails", "inconclusive")
        assert np.all(np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1] == 0)

    @pytest.mark.parametrize("rows", ["1 0\n0 1\n1 1\n", "1 0 1\n0 1 1\n"])
    def test_analytic_non_square_linear_is_zero(self, tmp_path, capsys, rows):
        # a tall (3 x 2) and a wide (2 x 3) matrix
        path, csv = tmp_path / "a.txt", tmp_path / "p.csv"
        path.write_text(rows)
        code, out, _ = run(capsys, "profile", "--map", f"linear:{path}",
                           "--analytic-beta", "--csv", str(csv))
        assert code == 0 and json.loads(out)["beta_end"] == 0.0
        assert np.all(np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1] == 0)

    @pytest.mark.parametrize("map_id", ["exp1d", "complexsq", "per-row"])
    def test_analytic_needs_a_constant_sum_pair(self, monkeypatch, capsys,
                                                map_id):
        # exp1d and complexsq have a smooth part that varies; "per-row" is
        # the identity with its constant smooth part materialised per row
        if map_id == "per-row":
            model = identity_map(2)
            model.smooth_part = lambda xs: np.tile(np.eye(2), (len(xs), 1, 1))
            monkeypatch.setattr(cli, "make_map", lambda _map_id: model)
        code, out, err = run(capsys, "certify", "--map", map_id,
                             "--provider", "exact", "--analytic-beta")
        assert code == 2 and out == ""
        assert "config error" in err and "no analytic profile bound" in err

    def test_a_singular_map_is_not_regular_sampled(self, tmp_path, capsys):
        # sigma_min of [[1, 2], [2, 4]] is certified at about 1e-16, under
        # the margin 10 * net: neither regular nor a sampled index above it
        path = tmp_path / "a.txt"
        path.write_text("1 2\n2 4\n")
        code, out, _ = run(capsys, "certify", "--map", f"linear:{path}",
                           "--grid-n", "3", "--shell-samples", "2")
        assert code == 1
        rec = json.loads(out)
        assert rec["verdict"] == "inconclusive"
        assert 0.0 < rec["alpha_min"] < 1e-15

    @pytest.mark.parametrize("alpha, kind, verdict", [
        (0.5, "sampled", "regular-sampled"),
        (1e-2 + 1e-9, "sampled", "regular-sampled"),
        (1e-2, "sampled", "inconclusive"),
        (1e-3, "certified", "inconclusive"),
        (0.0, "sampled", "not-regular"),
    ])
    def test_a_sampled_index_must_clear_the_margin(self, monkeypatch, capsys,
                                                   alpha, kind, verdict):
        # the index as the report gives it, against the margin 10 * net of
        # the default net 1e-3; the profile of theta-a:4:0.5 is 0.5
        report = cli.indices.RegularityReport(alpha, False, kind, np.eye(4),
                                              0.0)
        monkeypatch.setattr(cli.indices, "regularity_index",
                            lambda *args, **kwargs: report)
        code, out, _ = run(capsys, "certify", "--map", "theta-a:4:0.5",
                           "--grid-n", "3", "--shell-samples", "2")
        assert json.loads(out)["verdict"] == verdict
        assert code == (0 if verdict == "regular-sampled" else 1)

    def test_timing_adds_one_field(self, capsys):
        argv = ["certify", "--map", "theta-a:4:0.5", "--analytic-beta"]
        plain = json.loads(run(capsys, *argv)[1])
        code, out, _ = run(capsys, *argv, "--timing")
        timed = json.loads(out)
        assert code == 0
        assert set(timed) - set(plain) == {"timing_ms"}
        assert timed["timing_ms"] > 0.0
        del timed["timing_ms"]
        assert timed == plain

    def test_sampled_reports_do_not_depend_on_the_draw_cache(self, tmp_path,
                                                             capsys):
        # a sampled certify and profile from a cold draw cache, then, after
        # a profile of another (n, grid_n, count), from a warm one
        sampled = ["--provider", "sum", "--seed", "3", "--grid-n", "9",
                   "--shell-samples", "6"]
        commands = [["certify", "--map", "theta-c:3"] + sampled,
                    ["profile", "--map", "theta-c:5"] + sampled]
        other = ["profile", "--map", "theta-c:4", "--provider", "sum",
                 "--grid-n", "5", "--shell-samples", "3"]
        cli.hadamard._shell_draws.cache_clear()
        files = []
        for turn in ("cold", "warm"):
            for i, argv in enumerate(commands):
                out, csv = tmp_path / f"{turn}{i}.json", tmp_path / f"{turn}{i}.csv"
                assert main(argv + ["--out", str(out), "--csv", str(csv)]) == 0
                files.append((out.read_bytes(), csv.read_bytes()))
            if turn == "cold":
                assert main(other) == 0
        capsys.readouterr()
        # three draws in the cold turn, none in the warm one
        assert cli.hadamard._shell_draws.cache_info().misses == 3
        assert files[:2] == files[2:]


class TestInvert:
    def test_theta_a_path(self, capsys):
        code, out, _ = run(capsys, "invert", "--map", "theta-a:4:0.5",
                           "--provider", "exact", "--method", "path",
                           "--target", "1,-2,0.5,3", "--tol", "1e-10")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "converged"
        assert rec["final_residual"] <= 1e-8
        from pjinv.maps import make_map
        m = make_map("theta-a:4:0.5")
        oracle = m.inverse(np.array([1.0, -2.0, 0.5, 3.0]))
        assert np.allclose(rec["final_x"], oracle, atol=1e-8)

    @pytest.mark.parametrize("seed", ["11", "12"])
    def test_theta_a_clarke_path(self, capsys, seed):
        # the benchmark's Clarke inversion: vertex choice by co-norm
        from pjinv.maps import theta_back_substitute
        target = [1.5, -4.0, 0.25, 3.0]
        argv = ["invert", "--map", "theta-a:4:0.5", "--provider",
                "clarke:delta=1e-4,m=8,eps=0", "--method", "path",
                "--target=" + ",".join(map(str, target)), "--seed", seed]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "converged"
        oracle = theta_back_substitute("a", 4, target, 0.5)
        assert np.linalg.norm(np.array(rec["final_x"]) - oracle) <= 1e-8
        assert run(capsys, *argv)[1] == out

    def test_identity_target(self, capsys):
        code, out, _ = run(capsys, "invert", "--map", "identity",
                           "--provider", "exact", "--target", "1,2,3")
        assert code == 0
        assert np.allclose(json.loads(out)["final_x"], [1.0, 2.0, 3.0])

    def test_exp_negative_target_fails(self, capsys):
        code, out, _ = run(capsys, "invert", "--map", "exp1d",
                           "--provider", "exact", "--method", "path",
                           "--target", "-1")
        assert code == 1
        assert json.loads(out)["status"] in ("diverged", "step_underflow")

    def test_ekeland_reports_its_stationarity_witness(self, capsys):
        # -1 is not a value of exp: the descent stalls at a
        # lambda-stationary point and reports the dual witness distance
        code, out, _ = run(capsys, "invert", "--map", "exp1d", "--provider",
                           "exact", "--method", "ekeland", "--target=-1")
        assert code == 1
        rec = json.loads(out)
        assert rec["status"] == "stationary"
        assert 0.0 <= rec["stationary_distance"] <= 1e-3

    def test_stationary_distance_only_in_ekeland_reports(self, capsys):
        # null when the descent never stalled; absent from other methods
        code, out, _ = run(capsys, "invert", "--map", "exp1d", "--provider",
                           "exact", "--method", "ekeland", "--target", "2")
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "converged"
        assert rec["stationary_distance"] is None
        for method in ("newton", "path"):
            code, out, _ = run(capsys, "invert", "--map", "exp1d",
                               "--provider", "exact", "--method", method,
                               "--target", "2")
            assert code == 0
            assert "stationary_distance" not in json.loads(out)


class TestBallCheckAndProfile:
    def test_ball_check_theta_a(self, capsys):
        code, out, _ = run(capsys, "ball-check", "--map", "theta-a:4:0.5",
                           "--provider", "sum", "--analytic-beta",
                           "--grid-n", "17", "--delta", "1.0",
                           "--samples", "10")
        assert code == 0
        rec = json.loads(out)
        assert rec["pass_rate"] == 1.0
        assert rec["rho_at_delta"] == pytest.approx(0.5, abs=1e-9)

    def test_profile_csv(self, tmp_path, capsys):
        csv = tmp_path / "p.csv"
        code, out, _ = run(capsys, "profile", "--map", "theta-c:4",
                           "--provider", "sum", "--analytic-beta",
                           "--grid-n", "33", "--csv", str(csv))
        assert code == 0
        rec = json.loads(out)
        assert rec["mode"] == "analytic"
        assert rec["rho_lower_at_tmax"] <= np.log(3.0) <= rec["rho_at_tmax"]
        data = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert data.shape == (33, 3)


class TestCheckSuites:
    def test_validity_abs_shift_clarke(self, capsys):
        code, out, _ = run(capsys, "check", "validity", "--map", "abs-shift",
                           "--provider", "clarke:delta=1e-3,m=32,eps=0",
                           "--trials", "200")
        assert code == 0
        assert json.loads(out)["pass_rate"] >= 0.99

    def test_mvt_theta_a_sum(self, capsys):
        code, out, _ = run(capsys, "check", "mvt", "--map", "theta-a:3:0.5",
                           "--provider", "sum", "--trials", "30")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_optimality_and_negative_control(self, capsys):
        code, out, _ = run(capsys, "check", "optimality", "--tol", "1e-6")
        assert code == 0
        assert json.loads(out)["pass"] is True
        code, out, _ = run(capsys, "check", "optimality", "--tol", "1e-6",
                           "--negative-control")
        assert code == 0  # designed failure
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("suite", ["validity", "mvt", "chain"])
    def test_negative_control_is_refused_without_a_failing_variant(
            self, capsys, suite):
        # the suite would run its ordinary check and exit 0 when it passes
        code, out, err = run(capsys, "check", suite, "--map", "theta-c:3",
                             "--provider", "sum", "--trials", "100",
                             "--negative-control")
        assert code == 2
        assert "config error" in err and "optimality" in err and out == ""

    def test_optimality_echoes_the_map_it_checks(self, capsys):
        code, out, _ = run(capsys, "check", "optimality")
        assert code == 0
        echo = json.loads(out)["config"]
        assert echo["map_id"] == "abs1d"
        assert echo["provider"] == "clarke:delta=1e-3,m=32,eps=0"

    def test_optimality_rejects_a_map(self, capsys):
        code, out, err = run(capsys, "check", "optimality", "--map",
                             "theta-a:2:0.5", "--provider", "exact")
        assert code == 2
        assert "config error" in err and out == ""

    @pytest.mark.parametrize("provider", ["exact", "sum",
                                          "clarke:delta=1e-3,m=32,eps=0"])
    def test_optimality_rejects_a_provider(self, capsys, provider):
        # even the provider it uses: the flag would otherwise be ignored
        code, out, err = run(capsys, "check", "optimality", "--provider",
                             provider)
        assert code == 2
        assert "config error" in err and out == ""

    def test_chain_theta_a(self, capsys):
        code, out, _ = run(capsys, "check", "chain", "--map", "theta-a:3:0.5",
                           "--provider", "sum", "--trials", "200")
        assert code == 0

    def test_optimality_rejects_trials(self, capsys):
        # it checks one set at one point; a trial count would be ignored
        code, out, err = run(capsys, "check", "optimality", "--trials", "5")
        assert code == 2
        assert "config error" in err and "--trials" in err and out == ""

    def test_chain_of_a_linear_map_holds_exactly(self, tmp_path, capsys):
        # the outer map |y - y0| is curved, and difference quotients of the
        # composition failed 0.405 of the trials here; the exact one-sided
        # derivative holds the chain rule on every trial
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n4 5 6\n")
        code, out, _ = run(capsys, "check", "chain", "--map", f"linear:{path}")
        assert code == 0
        report = json.loads(out)
        assert report["pass_rate"] == 1.0 and report["counterexample"] is None

    @pytest.mark.parametrize("suite", ["validity", "chain"])
    def test_a_set_that_fails_reports_a_counterexample(self, capsys, suite):
        # the exact set at theta-a's kink 0 misses the one-sided slopes
        code, out, _ = run(capsys, "check", suite, "--map", "theta-a:3:0.5",
                           "--provider", "exact")
        assert code == 1
        worst = json.loads(out)["counterexample"]
        assert sorted(worst) == ["gap", "margin", "v", "ystar"]
        assert worst["gap"] > 1e-3 > worst["margin"] > 0.0
        assert len(worst["v"]) == 3
        assert len(worst["ystar"]) == (3 if suite == "validity" else 1)


class TestExitCodes:
    def test_unknown_map_is_config_error(self, capsys):
        code, _, err = run(capsys, "certify", "--map", "nope")
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("text", ["", "# no rows\n"])
    def test_empty_matrix_file_is_config_error(self, tmp_path, capsys, text):
        # one config-error line, and no loadtxt warning before it
        path = tmp_path / "a.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "certify", "--map", f"linear:{path}")
        assert code == 2 and out == ""
        assert err == ("config error: expected nonempty matrices, "
                       "got shape (0, 1)\n")

    def test_bad_provider_is_config_error(self, capsys):
        code, _, _ = run(capsys, "invert", "--map", "identity",
                         "--provider", "bogus", "--target", "1,2,3")
        assert code == 2

    def test_missing_map_is_config_error(self, capsys):
        code, _, _ = run(capsys, "certify")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "validity", "--map", "theta-c:3", "--trials", "0"],
        ["invert", "--map", "identity", "--target", "1,2"],
        ["invert", "--map", "identity", "--target", "1,x,3"],
        ["invert", "--map", "identity", "--target", "1,inf,3"],
        ["ball-check", "--map", "identity", "--delta", "3", "--t-max", "2"],
        ["profile", "--map", "identity", "--grid-n", "1"],
        ["certify", "--map", "identity", "--provider", "ball:m=1"],
        ["certify", "--map", "theta-c:3", "--provider", "sum", "--grid-n", "3",
         "--shell-samples", "0", "--t-max", "100"],
        ["certify", "--map", "identity", "--provider", "exact",
         "--shell-samples", "-1", "--grid-n", "3"],
        ["check", "validity", "--map", "theta-c:3", "--trials", "x"],
        ["certify", "--map", "identity", "--t-max", "nan"],
        ["invert", "--map", "identity", "--target", "1,2,3", "--bogus"],
        ["frobnicate"],
        ["certify", "--map", "identity", "--t-max", "inf"],
        ["ball-check", "--map", "identity", "--delta", "inf"],
        ["ball-check", "--map", "identity", "--delta", "0"],
        ["invert", "--map", "identity", "--target", "1,2,3", "--tol", "nan"],
        ["invert", "--map", "identity", "--target", "1,2,3", "--steps", "0"],
        ["check", "validity", "--map", "theta-c:3", "--tol", "inf"],
        ["check", "validity", "--map", "theta-c:3", "--tol", "-1"],
        ["certify", "--map", "identity", "--seed", "-1"],
        ["certify", "--map", "theta-a:0:0.5", "--grid-n", "3"],
        ["certify", "--map", "theta-b:0", "--grid-n", "3"],
        ["certify", "--map", "theta-c:0", "--grid-n", "3"],
        ["certify", "--map", "theta-c:-2", "--grid-n", "3"],
        ["certify", "--map", "identity:0", "--grid-n", "3"],
        ["certify", "--map", "identity:-1", "--grid-n", "3"],
        # a catalog identifier with a field its map does not take
        ["certify", "--map", "abs-shift:0.9", "--grid-n", "3"],
        ["certify", "--map", "theta-a:10:0.5:9", "--grid-n", "3"],
        ["certify", "--map", "theta-b:3:7", "--grid-n", "3"],
        ["certify", "--map", "theta-c:3:x", "--grid-n", "3"],
        ["certify", "--map", "identity:3:4", "--grid-n", "3"],
        ["certify", "--map", "exp1d:5", "--grid-n", "3"],
        ["certify", "--map", "complexsq:2", "--grid-n", "3"],
        ["certify", "--map", "identity", "--provider",
         "clarke:delta=inf,m=2,eps=0", "--grid-n", "3"],
        ["certify", "--map", "identity", "--provider",
         "clarke:delta=1e-3,m=2,eps=inf", "--grid-n", "3"],
        ["certify", "--map", "identity", "--provider", "ball:r=inf,m=10",
         "--grid-n", "3"],
        ["certify", "--map", "identity", "--provider",
         "clarke:delta=1e-3,m=2,eps=0,m=3", "--grid-n", "3"],
    ])
    def test_malformed_option_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "config error" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["invert", "--map", "identity", "--provider", "exact",
         "--target", "1,2,3"],
        ["check", "validity", "--map", "theta-c:3", "--trials", "10"],
    ])
    def test_csv_only_where_a_profile_is_computed(self, tmp_path, capsys, argv):
        # invert and check compute no profile, so they take no --csv
        csv = tmp_path / "p.csv"
        code, out, err = run(capsys, *argv, "--csv", str(csv))
        assert code == 2
        assert "config error" in err and out == ""
        assert not csv.exists()

    @pytest.mark.parametrize("missing", ["out", "csv"])
    def test_an_unwritable_output_leaves_no_other_file(self, tmp_path, capsys,
                                                       missing):
        # a config error writes nothing, whichever of the two paths fails
        paths = {"out": tmp_path / "r.json", "csv": tmp_path / "x.csv"}
        paths[missing] = tmp_path / "missing" / paths[missing].name
        code, out, err = run(capsys, "profile", "--map", "theta-c:3",
                             "--grid-n", "5", "--shell-samples", "2",
                             "--csv", str(paths["csv"]),
                             "--out", str(paths["out"]))
        assert code == 2
        assert "config error" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["certify"], ["profile"],
        ["ball-check", "--delta", "0.5", "--samples", "2"]])
    def test_an_oversized_profile_is_config_error(self, monkeypatch, capsys,
                                                  command):
        # (1 + 2 * 100) rows of 3 + 2 draws outgrow the limit of 1,000.  With
        # the draw function gone, a command that drew would exit 3; the
        # analytic profile draws nothing
        monkeypatch.setattr(cli.hadamard, "MAX_PROFILE_DRAWS", 1000)
        monkeypatch.setattr(cli.hadamard, "_shell_draws", None)
        argv = command + ["--map", "theta-a:3:0.5", "--provider", "sum",
                          "--grid-n", "3", "--shell-samples", "100"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "config error" in err and "draws" in err and out == ""
        code, out, err = run(capsys, *argv, "--analytic-beta")
        assert code == 0, err

    def test_overflow_while_computing_is_three(self, capsys):
        # the far shells leave the domain box |x| <= 700 of exp1d; the
        # provider refuses them before its derivative oracle can overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "profile", "--map", "exp1d",
                                 "--provider", "exact", "--t-max", "5000")
        assert code == 3
        assert "computation failed" in err and "outside domain box" in err
        assert out == ""

    def test_domain_error_while_computing_is_three(self, capsys):
        # two of the four shell points of the radius-1000 ball, at 790 and
        # 861 from 0, lie beyond the domain box |x| <= 700 of exp1d
        code, out, err = run(capsys, "profile", "--map", "exp1d", "--provider",
                             "clarke:delta=1e-3,m=2,eps=0", "--t-max", "1000",
                             "--grid-n", "2", "--shell-samples", "4")
        assert code == 3
        assert "computation failed" in err and "outside domain box" in err
        assert out == ""

    def test_computation_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*_args, **_kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.indices, "regularity_index", boom)
        code, _, err = run(capsys, "certify", "--map", "identity",
                           "--provider", "exact", "--analytic-beta")
        assert code == 3
        assert "computation failed" in err


@pytest.mark.parametrize("argv", [
    ["certify", "--map", "theta-a:4:0.5", "--grid-n", "3",
     "--shell-samples", "2"],
    ["invert", "--map", "identity", "--target", "1,2,3"],
    ["ball-check", "--map", "theta-c:3", "--delta", "0.5", "--grid-n", "7",
     "--shell-samples", "2", "--samples", "4"],
    ["profile", "--map", "theta-c:3", "--grid-n", "5", "--shell-samples", "2"],
    ["check", "validity", "--map", "theta-c:3", "--trials", "20"],
    ["check", "mvt", "--map", "theta-a:2:0.5", "--trials", "20"],
    ["check", "chain", "--map", "theta-c:3", "--trials", "20"],
    ["check", "optimality"],
], ids=lambda argv: "-".join(argv[:2 if argv[0] == "check" else 1]))
def test_out_holds_the_printed_report(tmp_path, capsys, argv):
    # every report command takes the one report path: --out gets exactly
    # the bytes printed, and ball-check's --csv its profile
    out = tmp_path / "report.json"
    csv = tmp_path / "p.csv"
    extra = ["--csv", str(csv)] if argv[0] == "ball-check" else []
    code, printed, err = run(capsys, *argv, "--out", str(out), *extra)
    assert code == 0 and err == ""
    assert out.read_bytes() == printed.encode()
    assert json.loads(printed)["command"] == argv[0]
    if extra:
        rows = csv.read_text().splitlines()
        assert rows[0] == "t,beta,rho" and len(rows) == 1 + 7


def run_alone(argv):
    """(exit code, stdout, stderr) of main(argv) in a fresh interpreter."""
    script = (f"import sys\nsys.path.insert(0, {SRC!r})\n"
              "from pjinv.cli import main\n"
              f"sys.exit(main({list(argv)!r}))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    return done.returncode, done.stdout, done.stderr


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main() builds no parser; a run leaves nothing for the next one to see
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 7\nmethod = newton\ntol = 1e-8\n")
    first = ["invert", "--map", "theta-a:4:0.5", "--provider", "exact",
             "--method", "newton", "--target", "1,-2,0.5,3"]
    commands = [
        first,
        ["invert", "--map", "identity", "--target", "1,2,3",
         "--method", "bogus"],
        ["invert", "--map", "identity", "--provider", "exact", "--target",
         "1,2,3", "--config", str(cfg), "--seed", "3"],
        ["ball-check", "--map", "identity", "--provider", "exact", "--delta",
         "0.5", "--samples", "2", "--grid-n", "3", "--shell-samples", "1"],
        first,
    ]
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    results = [run(capsys, *argv) for argv in commands]
    monkeypatch.undo()
    assert added == []
    assert [code for code, _, _ in results] == [0, 2, 0, 0, 0]
    echo = json.loads(results[2][1])["config"]
    assert (echo["seed"], echo["method"], echo["tol"]) == (3, "newton", 1e-8)
    assert json.loads(results[3][1])["config"]["t_max"] == 1.0
    for argv, result in zip(commands, results):
        assert result == run_alone(argv), argv


def test_commands_import_no_scipy():
    # a fresh interpreter, so that only the command's own imports count
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n"
        "from pjinv.cli import main\n"
        "assert main(['certify', '--map', 'theta-a:10:0.5', '--provider', 'sum',"
        " '--grid-n', '4', '--shell-samples', '4']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


class TestHeapPolicy:
    """main keeps freed heap for the next command, once per process."""

    VALIDITY = ["check", "validity", "--map", "theta-c:3", "--provider",
                "clarke:delta=1e-3,m=32,eps=0", "--seed", "5"]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_a_repeated_command_faults_in_no_new_pages(self, capsys):
        # glibc's default hands the op's temporaries back to the kernel:
        # 400-530 minor faults on every repeat.  Two runs grow the heap to
        # what the command needs, and a third reuses it
        import resource
        argv = self.VALIDITY + ["--trials", "1000"]
        assert main(argv) == main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        capsys.readouterr()
        assert faults <= 50

    def test_mallopt_is_called_once(self, monkeypatch, capsys):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))

        with monkeypatch.context() as patch:
            patch.setattr(cli.ctypes, "CDLL", lambda _name: Libc)
            cli._keep_freed_heap.cache_clear()
            assert run(capsys, "catalog")[0] == 0
            assert run(capsys, "catalog")[0] == 0
        cli._keep_freed_heap.cache_clear()
        assert calls == [(cli._M_TOP_PAD, cli.HEAP_TOP_PAD)]

    @pytest.mark.parametrize("error", [OSError, AttributeError])
    def test_no_mallopt_is_a_silent_no_op(self, monkeypatch, capsys, error):
        # no C library to load (OSError), or one without mallopt
        # (AttributeError)
        def cdll(_name):
            raise error("no mallopt here")

        with monkeypatch.context() as patch:
            patch.setattr(cli.ctypes, "CDLL", cdll)
            cli._keep_freed_heap.cache_clear()
            code, out, err = run(capsys, *self.VALIDITY, "--trials", "10")
        cli._keep_freed_heap.cache_clear()
        assert code == 0 and err == ""
        assert json.loads(out)["pass"] is True
