import json
import warnings

import numpy as np
import pytest

from pjinv import cli
from pjinv.cli import format_record, load_config, main


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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("map = theta-a:4:0.5\nprovider = sum\n"
                       "analytic-beta = true\n")
        code, out, _ = run(capsys, "certify", "--config", str(cfg))
        assert code == 0
        rec = json.loads(out)
        assert rec["config"]["map_id"] == "theta-a:4:0.5"

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "certify", "--map", "identity",
                           "--config", str(cfg))
        assert code == 2
        assert "config error" in err


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
        assert json.loads(out)["mode"] == "analytic"
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

    def test_chain_theta_a(self, capsys):
        code, out, _ = run(capsys, "check", "chain", "--map", "theta-a:3:0.5",
                           "--provider", "sum", "--trials", "200")
        assert code == 0


class TestExitCodes:
    def test_unknown_map_is_config_error(self, capsys):
        code, _, err = run(capsys, "certify", "--map", "nope")
        assert code == 2
        assert "config error" in err

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
    ])
    def test_malformed_option_is_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "config error" in err
        assert out == ""

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
        # a shell point of the radius-800 ball draws Clarke points beyond
        # the domain box |x| <= 700 of exp1d
        code, out, err = run(capsys, "profile", "--map", "exp1d", "--provider",
                             "clarke:delta=1e-3,m=2,eps=0", "--t-max", "800",
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
