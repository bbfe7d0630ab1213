"""Tests of the benchmark itself: its checks, its tracer and its contract.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the repository's own test run, which collects
only test_*.py and *_test.py.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

import pjinv.cli as cli  # noqa: E402
import pjinv.linalg  # noqa: E402
import pjinv.properties  # noqa: E402


def report_of(argv):
    out = run.Outcomes()
    captured = {}

    class Capture:
        name = "capture"

        @staticmethod
        def check(report, _ctx):
            captured["report"] = report

    run.run_op(cli, Capture, argv, None, out)
    assert out.failed == 0, out.messages
    return captured["report"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    slots = {f"op_{c.slot}_p50_ms" for classes in workloads.WORKLOADS.values()
             for c in classes}
    assert slots == {name for name, _ in run.END_TO_END if name.startswith("op_")}


def test_inverse_check_rejects_a_perturbed_x():
    argv, y = workloads.invert_clarke(np.random.default_rng(3))
    report = report_of(argv)
    workloads.check_inverse(report, y)
    report["final_x"][1] += 1e-6
    with pytest.raises(CheckFailed):
        workloads.check_inverse(report, y)


def test_certify_checks_reject_wrong_values():
    argv, _ = workloads.certify_analytic(np.random.default_rng(0))
    report = report_of(argv)
    workloads.check_analytic(report, None)
    bad = dict(report, alpha_min=report["alpha_min"] + 0.01)
    with pytest.raises(CheckFailed):
        workloads.check_analytic(bad, None)
    singleton = {"verdict": "regular-certified", "alpha_min": 0.5,
                 "rho_at_tmax": 1.0, "witnesses": (0.5 * np.eye(3)).tolist()}
    workloads.check_singleton(singleton, None)
    with pytest.raises(CheckFailed):
        workloads.check_singleton(dict(singleton, rho_at_tmax=1.01), None)
    # a lower bound above the witness co-norm is unsound
    with pytest.raises(CheckFailed):
        workloads.check_singleton(dict(singleton, witnesses=(0.4 * np.eye(3)).tolist()), None)


def test_negative_control_fails_as_designed():
    assert workloads.negative_control(0) <= 0.9


def test_mvt_seed_predicts_the_segment_the_cli_draws(monkeypatch):
    seen = []
    original = pjinv.properties.mvt_check

    def spy(model, provider, u, v, **kwargs):
        seen.append((np.array(u), np.array(v)))
        return original(model, provider, u, v, **kwargs)

    monkeypatch.setattr(pjinv.properties, "mvt_check", spy)
    seed = 12345
    report_of(["check", "mvt", "--map", "theta-a:2:0.5", "--provider", "exact",
               "--trials", "10", "--seed", str(seed)])
    u, v = workloads.mvt_pair(seed)
    np.testing.assert_array_equal(seen[0][0], u)
    np.testing.assert_array_equal(seen[0][1], v)
    chosen = int(workloads.check_mvt(np.random.default_rng(1))[0][-1])
    u, v = workloads.mvt_pair(chosen)
    assert u[1] * v[1] < 0 and min(abs(u[1]), abs(v[1])) >= workloads.MVT_KINK_MARGIN


def test_tracer_self_times_add_up_and_originals_return():
    original = pjinv.linalg.conorm
    tracer = spans.Tracer()
    argv, _ = workloads.invert_clarke(np.random.default_rng(0))
    with tracer.traced_round():
        assert pjinv.linalg.conorm is not original
        report_of(argv)
    assert pjinv.linalg.conorm is original
    totals = tracer.layer_totals()
    metrics = spans.per_round_metrics(totals, untraced_wall_s=0.0)
    assert metrics["invert.path_calls"] == 1
    assert metrics["invert.path_points"] == 16
    assert metrics["linalg.svd_calls"] > 0
    assert metrics["invert.newton_per_path_point"] >= 1.0
    layer_sum = sum(metrics[name] for name in spans.SELF_METRICS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def test_calibrated_metrics_scale_by_the_kernel_time(monkeypatch):
    monkeypatch.setattr(run, "reference_kernel", lambda: 2 * run.REF_NOMINAL_S)
    calibration = run.Calibration()
    calibration.add((0, "mesh"), 1.0)
    calibration.add((0, "singleton"), 3.0)
    calibration.add((1, "mesh"), 2.0)
    calibration.add((1, "singleton"), None)     # a failed operation
    metrics = run.end_to_end(workloads.WORKLOADS["certify"][:2], calibration)
    assert metrics == {"wall_s": 1.5, "op_a_p50_ms": 750.0, "op_b_p50_ms": 1500.0}


def test_a_corrupted_result_fails_the_run(monkeypatch):
    original = pjinv.invert.path_lift_invert

    def corrupt(*args, **kwargs):
        trace = original(*args, **kwargs)
        trace.iterates[-1] = trace.iterates[-1] + 1e-6
        return trace

    monkeypatch.setattr(pjinv.invert, "path_lift_invert", corrupt)
    classes = [workloads.OpClass("a", "exact", workloads.invert_exact,
                                 workloads.check_inverse, 2, ("x", "ms", None))]
    outcomes, _, _ = run.run_rounds(cli, classes, seed=0, seconds=0, tracer=None)
    assert outcomes.attempted == 2 and outcomes.wrong == 2


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
