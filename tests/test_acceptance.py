"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line (bypassing output capture) so
the run log shows the full scoreboard.
"""

import json

import numpy as np

from oracles import jacobi_conorm
from pjinv.cli import main as cli_main
from pjinv.hadamard import ball_inclusion_test, beta_profile, rho_at
from pjinv.invert import inverse_lipschitz_probe, path_lift_invert
from pjinv.linalg import conorm, surjectivity_index
from pjinv.maps import (MapModel, abs_shift_map, complexsq_map, exp1d_map,
                        identity_map, linear_map, local_lipschitz_estimate,
                        theta_back_substitute, theta_map)
from pjinv.properties import mvt_check, optimality_check
from pjinv.pseudojac import (PseudoJacobianSet, build_set, parse_provider,
                             validity_check)
from pjinv.indices import regularity_index

EXACT = parse_provider("exact")
SUM = parse_provider("sum")


def report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f" ({detail})"
        print(line, flush=True)
    assert ok, f"criterion {num}: {name} {detail}"


def abs1d():
    return MapModel("abs1d", 1, 1, lambda x: np.abs(x),
                    fn_batch=lambda xs: np.abs(xs))


def test_01_conorm_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 21))
        n = int(rng.integers(1, 21))
        a = rng.standard_normal((m, n))
        oracle = jacobi_conorm(a)
        worst = max(worst, abs(conorm(a) - oracle))
    report(capsys, 1, "co-norm matches the SVD oracle on 500 matrices",
           worst <= 1e-10, f"max abs err {worst:.2e}")


def test_02_isomorphism_identity(capsys):
    rng = np.random.default_rng(102)
    worst = 0.0
    done = 0
    while done < 200:
        n = int(rng.integers(2, 13))
        a = rng.standard_normal((n, n))
        if np.linalg.cond(a) > 100.0:
            continue
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(a), 2)
        worst = max(worst, abs(surjectivity_index(a) - oracle) / oracle)
        done += 1
    report(capsys, 2, "surjectivity index equals reciprocal inverse norm",
           worst <= 1e-9, f"max rel err {worst:.2e}")


def test_03_mean_value_suite(capsys):
    maps = [(linear_map(np.array([[2.0, 1.0], [0.0, 3.0]])), 501),
            (abs_shift_map(), 501),
            (theta_map("a", 2, 0.5), 501),
            (theta_map("c", 2), 501)]
    clarke = parse_provider("clarke:delta=1e-4,m=64,eps=0")
    rng = np.random.default_rng(103)
    worst_exact = 0.0
    worst_clarke = 0.0
    for m, grid in maps:
        for i in range(1000):
            u = rng.uniform(-2.0, 2.0, m.dim_in)
            v = rng.uniform(-2.0, 2.0, m.dim_in)
            d_exact, _ = mvt_check(m, EXACT, u, v, segment_samples=grid)
            d_clarke, _ = mvt_check(m, clarke, u, v, segment_samples=64,
                                    rng=i)
            worst_exact = max(worst_exact, d_exact)
            worst_clarke = max(worst_clarke, d_clarke)
    ok = worst_exact <= 1e-6 and worst_clarke <= 1e-3
    report(capsys, 3, "mean value inclusion on 1000 pairs per map", ok,
           f"exact {worst_exact:.2e}, clarke {worst_clarke:.2e}")


def test_04_optimality_suite(capsys):
    clarke = parse_provider("clarke:delta=1e-3,m=32,eps=0")
    a = np.array([1.0, -2.0])
    sqdist = MapModel("sqdist", 2, 1,
                      lambda x: np.array([np.sum((x - a) ** 2)]),
                      deriv=lambda x: (2.0 * (x - a)).reshape(1, -1))
    pw = MapModel(
        "pwquad", 1, 1,
        lambda x: np.where(x >= 0, x ** 2, 2.0 * x ** 2),
        fn_batch=lambda xs: np.where(xs >= 0, xs ** 2, 2.0 * xs ** 2))
    at_min = [optimality_check(abs1d(), clarke, np.zeros(1), rng=0)[0],
              optimality_check(sqdist, EXACT, a)[0],
              optimality_check(pw, clarke, np.zeros(1), rng=1)[0]]
    away = [optimality_check(abs1d(), clarke, np.array([0.5]), rng=2)[0],
            optimality_check(sqdist, EXACT, a + np.array([1.0, 0.0]))[0],
            optimality_check(pw, clarke, np.array([-0.5]), rng=3)[0]]
    ok = max(at_min) <= 1e-6 and min(away) >= 0.5
    report(capsys, 4, "optimality distance zero at minimizers only", ok,
           f"at minimizers {max(at_min):.2e}, controls {min(away):.3g}")


def test_05_definition_validity_suite(capsys):
    maps = [("identity", identity_map(3)),
            ("linear", linear_map(np.diag([2.0, 3.0]))),
            ("abs-shift", abs_shift_map()),
            ("theta-a", theta_map("a", 3, 0.5)),
            ("theta-b", theta_map("b", 3)),
            ("theta-c", theta_map("c", 3)),
            ("complexsq", complexsq_map()),
            ("exp1d", exp1d_map())]
    providers = [("exact", EXACT), ("ball", parse_provider("ball:m=2000")),
                 ("sum", SUM),
                 ("clarke", parse_provider("clarke:delta=1e-3,m=32,eps=0"))]
    rng = np.random.default_rng(105)
    worst = 1.0
    worst_tag = "all"
    for mname, m in maps:
        # a generic point away from the kink hyperplanes
        x = rng.uniform(0.2, 0.8, m.dim_in) * rng.choice([-1.0, 1.0],
                                                         m.dim_in)
        for pname, spec in providers:
            if spec.kind == "sum" and m.lip_part is None:
                continue
            jset = build_set(m, x, spec, rng=rng)
            rate = validity_check(m, x, jset, trials=10000, rng=rng,
                                  t0=1e-4)
            if rate < worst:
                worst, worst_tag = rate, f"{mname}/{pname}"
    shrunken = PseudoJacobianSet([np.array([[0.5]])], 0.0)
    control = validity_check(abs1d(), np.zeros(1), shrunken, trials=10000,
                             rng=0, t0=1e-4)
    ok = worst >= 0.99 and control <= 0.9
    report(capsys, 5, "defining inequality holds per provider per map", ok,
           f"min rate {worst:.4f} at {worst_tag}, control {control:.3f}")


def test_06_theta_case_a_global_inversion(capsys, tmp_path):
    n, c = 50, 0.5
    m = theta_map("a", n, c)
    rng = np.random.default_rng(106)
    worst = 0.0
    all_converged = True
    for _ in range(100):
        y = rng.uniform(-5.0, 5.0, n)
        tr = path_lift_invert(m, EXACT, np.zeros(n), y, tol=1e-10, rng=rng)
        all_converged &= (tr.status == "converged"
                          and tr.final_residual <= 1e-8)
        worst = max(worst, float(np.linalg.norm(tr.final_x - m.inverse(y))))
    probe = inverse_lipschitz_probe(m, np.zeros(n), 10.0, pairs=1000, rng=0)
    out = tmp_path / "certify.json"
    code = cli_main(["certify", "--map", f"theta-a:{n}:{c}", "--provider",
                     "sum", "--analytic-beta", "--out", str(out)])
    capsys.readouterr()
    rec = json.loads(out.read_text())
    ok = (all_converged and worst <= 1e-8 and probe <= 2.1 and code == 0
          and rec["verdict"] == "regular-certified"
          and abs(rec["alpha_min"] - 0.5) <= 1e-2)
    report(capsys, 6, "case (a): 100 inversions, Lipschitz probe, certify",
           ok, f"oracle err {worst:.1e}, probe {probe:.3f}, "
               f"verdict {rec['verdict']}, alpha {rec['alpha_min']:.4f}")


def test_07_theta_case_b_degeneracy(capsys, tmp_path):
    out = tmp_path / "certify.json"
    code = cli_main(["certify", "--map", "theta-b:10", "--provider", "sum",
                     "--analytic-beta", "--out", str(out)])
    capsys.readouterr()
    rec = json.loads(out.read_text())
    m = theta_map("b", 10)
    profile = beta_profile(m, SUM, np.zeros(10), 2.0, grid_n=33,
                           analytic_beta=m.analytic_beta)
    norms = []
    for n in (10, 100, 1000):
        y = -1.0 / np.arange(1, n + 1)
        x = theta_back_substitute("b", n, y)
        # closed-form oracle: x_i = -sum_{j=i}^{n} 1/j
        oracle = -np.cumsum((1.0 / np.arange(1, n + 1))[::-1])[::-1]
        assert np.allclose(x, oracle, atol=1e-10)
        norms.append(float(np.linalg.norm(x)))
    ok = (code == 1 and rec["verdict"] == "not-regular"
          and np.all(profile.beta == 0.0)
          and norms[0] < norms[1] < norms[2])
    report(capsys, 7, "case (b): not regular, preimage norms blow up", ok,
           f"norms {norms[0]:.2f} < {norms[1]:.2f} < {norms[2]:.2f}")


def test_08_theta_case_c_profile_and_inclusion(capsys):
    m = theta_map("c", 20)
    profile = beta_profile(m, SUM, np.zeros(20), 2.0, grid_n=4097,
                           analytic_beta=m.analytic_beta)
    rho1 = rho_at(profile, 1.0)
    rho_e = rho_at(profile, np.e - 1.0)
    rate = ball_inclusion_test(m, SUM, np.zeros(20), 1.0, profile,
                               samples=50, rng=0)
    h = MapModel("theta-c-h", 20, 20, lambda x: m.fn(x) - x)
    lip_ok = True
    lip_detail = []
    for t in (0.5, 1.0, 2.0, 5.0):
        est = local_lipschitz_estimate(h, np.zeros(20), t, samples=1000,
                                       rng=1)
        lip_ok &= est <= t / (1.0 + t) + 1e-3
        lip_detail.append(f"{est:.4f}<={t / (1 + t):.4f}")
    ok = (abs(rho1 - np.log(2.0)) <= 1e-6 and abs(rho_e - 1.0) <= 1e-6
          and rate == 1.0 and lip_ok)
    report(capsys, 8, "case (c): integral profile, ball test, Lipschitz", ok,
           f"rho(1)={rho1:.8f}, rho(e-1)={rho_e:.8f}, rate {rate:.2f}")


def test_09_ball_inclusion_theorem(capsys):
    lin = linear_map(np.diag([2.0, 3.0]))
    p_lin = beta_profile(lin, EXACT, np.zeros(2), 1.0, grid_n=9,
                         analytic_beta=lin.analytic_beta)
    rate_lin = ball_inclusion_test(lin, EXACT, np.zeros(2), 1.0, p_lin,
                                   samples=100, rng=0)
    ta = theta_map("a", 10, 0.5)
    p_ta = beta_profile(ta, SUM, np.zeros(10), 1.0, grid_n=9,
                        analytic_beta=ta.analytic_beta)
    rate_ta = ball_inclusion_test(ta, SUM, np.zeros(10), 1.0, p_ta,
                                  samples=100, rng=1)
    ok = rate_lin == 1.0 and rate_ta == 1.0
    report(capsys, 9, "guaranteed image balls invert inside source balls",
           ok, f"linear {rate_lin:.2f}, theta-a {rate_ta:.2f}")


def test_10_path_lifting_failure_evidence(capsys):
    m = exp1d_map()
    statuses = []
    for seed in range(5):
        tr = path_lift_invert(m, EXACT, np.zeros(1), np.array([-1.0]),
                              rng=seed)
        statuses.append(tr.status)
    ok = all(s in ("diverged", "step_underflow") for s in statuses)
    report(capsys, 10, "exp with target -1 never converges", ok,
           f"statuses {sorted(set(statuses))}")


def test_11_usc_shortcut_consistency(capsys):
    rng = np.random.default_rng(111)
    net = 1e-3
    worst = 0.0
    for m in (theta_map("a", 4, 0.5), theta_map("c", 4)):
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, 4)
            at_point = regularity_index(m, SUM, x, net=net)
            # radii shrink to 1e-3*(1+||x||): the index varies with ||x||,
            # so the ball floor must be fine enough for the tolerance below
            radii = [r * (1.0 + np.linalg.norm(x))
                     for r in (0.1, 0.01, 0.001)]
            shrunk = regularity_index(m, SUM, x, net=net, radii=radii,
                                      rng=rng, use_usc_shortcut=False)
            worst = max(worst, abs(at_point.alpha - shrunk.alpha))
    ok = worst <= 2 * net + 1e-3
    report(capsys, 11, "shrinking-ball index matches at-point value", ok,
           f"max gap {worst:.2e}")


def test_12_determinism(capsys, tmp_path):
    args = ["certify", "--map", "theta-a:10:0.5", "--provider", "sum",
            "--seed", "3", "--analytic-beta", "--grid-n", "65"]
    outs = []
    csvs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.json"
        csv = tmp_path / f"{tag}.csv"
        assert cli_main(args + ["--out", str(out), "--csv", str(csv)]) == 0
        outs.append(out.read_bytes())
        csvs.append(csv.read_bytes())
    capsys.readouterr()
    ok = outs[0] == outs[1] and csvs[0] == csvs[1]
    report(capsys, 12, "repeated certify runs are byte-identical", ok)
