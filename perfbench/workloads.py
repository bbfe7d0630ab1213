"""The benchmark's workloads: operation classes, their inputs and checks.

Each operation is one ``pjinv`` command line.  A class draws its argument
vectors from a numpy ``Generator`` seeded by the benchmark's ``--seed``, and
checks each JSON report against an independent computation or a property
the result must have, never against stored output.  Every command here is
expected to exit with code 0.
"""

import math

import numpy as np

T_MAX = 2.0                 # certify's default profile radius
THETA_A_C = 0.5             # coefficient of every theta-a map used here
TARGET_BOX = 5.0            # inversion targets are uniform in [-5, 5]^n
INVERT_TOL = 1e-10          # pjinv invert's default --tol
INVERSE_ERR = 1e-8          # allowed distance to the closed-form inverse
EXACT_TOL = 1e-9            # closed-form certify values
# Sampling slack of the mesh certify checks: Clarke vertices are drawn up to
# delta = 1e-3 away from each probe point, the mesh bound subtracts
# net * diam, and central differences add O(1e-9).
CERT_SLACK = 2e-3
WITNESS_TOL = 1e-9
PASS_RATE = 0.99            # cli's own validity/chain threshold
MVT_TOL = 1e-3
# mvt pairs must cross the kink x_2 = 0 of theta-a:2, each end at least
# this far from it (see mvt_seed).
MVT_KINK_MARGIN = 0.25


class CheckFailed(Exception):
    """A report that contradicts the independent check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _seed(rng):
    return str(int(rng.integers(2**31)))


def _vector_arg(values):
    return ",".join(repr(float(v)) for v in values)


def sigma_min(rows):
    """Smallest singular value by LAPACK."""
    return float(np.linalg.svd(np.asarray(rows, dtype=float), compute_uv=False)[-1])


def theta_a_inverse(y, c=THETA_A_C):
    """Closed-form inverse of theta-a: x_n = y_n, x_i = y_i - c|x_{i+1}|."""
    x = np.array(y, dtype=float)
    for i in range(x.size - 2, -1, -1):
        x[i] = y[i] - c * abs(x[i + 1])
    return x


# -- certify ----------------------------------------------------------------

MESH = ["certify", "--map", "theta-c:4",
        "--provider", "clarke:delta=1e-3,m=2,eps=0"]


def certify_mesh(rng):
    # two-vertex mesh bounds at the origin (twice: index, then profile) and
    # at 2 shells x 1 point
    return MESH + ["--grid-n", "3", "--shell-samples", "1", "--seed", _seed(rng)], None


def certify_singleton(rng):
    # sampled profile over 1 + 31 x 32 = 993 singleton sets {I} + 0.5 ball
    return ["certify", "--map", "theta-a:10:0.5", "--provider", "sum",
            "--grid-n", "32", "--shell-samples", "32", "--seed", _seed(rng)], None


def certify_analytic(rng):
    # one mesh bound at the origin, analytic profile
    return MESH + ["--analytic-beta", "--seed", _seed(rng)], None


def _check_certified(report):
    _require(report["verdict"] == "regular-certified",
             f"verdict {report['verdict']!r}")
    witness = report["witnesses"]
    _require(len(witness) > 0, "no witness operator")
    # a certified lower bound cannot exceed the co-norm of a member of the set
    _require(report["alpha_min"] <= sigma_min(witness) + WITNESS_TOL,
             f"alpha_min {report['alpha_min']} above the witness co-norm "
             f"{sigma_min(witness)}")


def check_mesh(report, _ctx):
    """theta-c: co-norm >= 1/(1+t) on B(0, t), so rho >= ln(1 + t_max)."""
    _check_certified(report)
    _require(report["alpha_min"] >= 1.0 / (1.0 + T_MAX) - CERT_SLACK,
             f"alpha_min {report['alpha_min']} below 1/(1+t_max)")
    _require(report["rho_at_tmax"] >= math.log1p(T_MAX) - CERT_SLACK * T_MAX,
             f"rho_at_tmax {report['rho_at_tmax']} below ln(1+t_max)")


def check_singleton(report, _ctx):
    """{I} + c ball: alpha = 1 - c everywhere, so rho = (1 - c) t_max."""
    _check_certified(report)
    alpha = 1.0 - THETA_A_C
    _require(abs(report["alpha_min"] - alpha) <= EXACT_TOL,
             f"alpha_min {report['alpha_min']} != {alpha}")
    _require(abs(report["rho_at_tmax"] - alpha * T_MAX) <= EXACT_TOL,
             f"rho_at_tmax {report['rho_at_tmax']} != {alpha * T_MAX}")


def check_analytic(report, _ctx):
    """Analytic theta-c profile 1/(1+t): trapezoid rho of a convex integrand."""
    _check_certified(report)
    _require(report["hadamard"] == "diverges_analytic",
             f"hadamard {report['hadamard']!r}")
    beta_end = 1.0 / (1.0 + T_MAX)
    _require(beta_end - CERT_SLACK <= report["alpha_min"] <= beta_end + EXACT_TOL,
             f"alpha_min {report['alpha_min']} != 1/(1+t_max)")
    rho = math.log1p(T_MAX)
    _require(rho - EXACT_TOL <= report["rho_at_tmax"] <= rho + 1e-4,
             f"rho_at_tmax {report['rho_at_tmax']} != ln(1+t_max)")


# -- invert -----------------------------------------------------------------

def _invert(n, provider, method):
    def make(rng):
        y = rng.uniform(-TARGET_BOX, TARGET_BOX, n)
        return ["invert", "--map", f"theta-a:{n}:0.5", "--provider", provider,
                "--method", method, f"--target={_vector_arg(y)}",
                "--seed", _seed(rng)], y
    return make


invert_clarke = _invert(4, "clarke:delta=1e-4,m=8,eps=0", "path")
invert_exact = _invert(50, "exact", "path")
invert_newton = _invert(50, "exact", "newton")


def check_inverse(report, y):
    """Converged, and within INVERSE_ERR of the closed-form inverse."""
    _require(report["status"] == "converged", f"status {report['status']!r}")
    _require(report["final_residual"] <= INVERT_TOL,
             f"final_residual {report['final_residual']}")
    err = float(np.linalg.norm(np.asarray(report["final_x"]) - theta_a_inverse(y)))
    _require(err <= INVERSE_ERR, f"x is {err} from the closed-form inverse")


# -- check ------------------------------------------------------------------

def check_validity(rng):
    return ["check", "validity", "--map", "theta-c:3",
            "--provider", "clarke:delta=1e-3,m=32,eps=0",
            "--trials", "1000", "--tol", "1e-3", "--seed", _seed(rng)], None


def check_chain(rng):
    return ["check", "chain", "--map", "theta-c:3", "--provider", "sum",
            "--trials", "500", "--tol", "1e-3", "--seed", _seed(rng)], None


def mvt_pair(seed, dim=2):
    """The first segment `pjinv check mvt --seed <seed>` draws.

    cmd_check draws u, then v, each uniform in [-1, 1]^dim, first from
    numpy.random.default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, dim)
    v = rng.uniform(-1.0, 1.0, dim)
    return u, v


def mvt_seed(rng):
    """A pjinv seed whose segment crosses the kink of theta-a:2 clearly.

    The set's vertex actions then form two clusters with the image gap
    between them, the nontrivial case of the mean value inclusion.  A
    segment on one side of the kink, or ending near it, takes a Frank-Wolfe
    path 30 times shorter; mixing both kinds at random would make the
    median flip between them from run to run.
    """
    while True:
        seed = int(rng.integers(2**31))
        u, v = mvt_pair(seed)
        if u[1] * v[1] < 0 and min(abs(u[1]), abs(v[1])) >= MVT_KINK_MARGIN:
            return seed


def check_mvt(rng):
    # --trials 10 is one segment (the cli runs trials // 10 pairs)
    return ["check", "mvt", "--map", "theta-a:2:0.5",
            "--provider", "clarke:delta=1e-4,m=64,eps=0",
            "--trials", "10", "--tol", "1e-3", "--seed", str(mvt_seed(rng))], None


def check_pass_rate(report, _ctx):
    """The defining support-function inequality held on >= 99% of trials."""
    _require(report["pass_rate"] >= PASS_RATE and report["pass"] is True,
             f"pass_rate {report['pass_rate']}")


def check_mvt_distance(report, _ctx):
    """f(v) - f(u) lies within MVT_TOL of the hull of derivative actions."""
    _require(report["max_distance"] <= MVT_TOL and report["pass"] is True,
             f"max_distance {report['max_distance']}")


def negative_control(seed):
    """Validity of |x| at 0 against the shrunken set {0.5} must fail.

    Returns the pass rate; raises CheckFailed unless both the rate is at
    most 0.9 and check_pass_rate rejects it, so the validity and chain
    checks above are not vacuous.
    """
    from pjinv.maps import MapModel
    from pjinv.pseudojac import PseudoJacobianSet, validity_check

    absmap = MapModel("abs1d", 1, 1, np.abs)
    rate = validity_check(absmap, np.zeros(1), PseudoJacobianSet([[[0.5]]]),
                          trials=200, rng=seed)
    _require(rate <= 0.9, f"negative control passed at rate {rate}")
    try:
        check_pass_rate({"pass_rate": rate, "pass": rate >= PASS_RATE}, None)
    except CheckFailed:
        return rate
    raise CheckFailed("the pass-rate check accepted the negative control")


# -- workloads --------------------------------------------------------------

class OpClass:
    """One operation class: argument maker, report check, ops per round."""

    def __init__(self, slot, name, make, check, per_round, detail):
        self.slot = slot            # metric slot: op_<slot>_p50_ms
        self.name = name
        self.make = make
        self.check = check
        self.per_round = per_round
        self.detail = detail        # (label, unit, value from median seconds)


def _seconds(label):
    return (label, "s", lambda p50: p50)


def _millis(label):
    return (label, "ms", lambda p50: p50 * 1e3)


def _rate(label, per_op):
    return (label, "1/s", lambda p50: per_op / p50)


WORKLOADS = {
    "certify": [
        OpClass("a", "mesh", certify_mesh, check_mesh, 1,
                _seconds("certify_mesh_s_p50")),
        OpClass("b", "singleton", certify_singleton, check_singleton, 2,
                _seconds("certify_singleton_s_p50")),
        OpClass("c", "analytic", certify_analytic, check_analytic, 3,
                _seconds("certify_analytic_s_p50")),
    ],
    "invert": [
        OpClass("a", "clarke", invert_clarke, check_inverse, 25,
                _millis("invert_clarke_ms")),
        OpClass("b", "exact", invert_exact, check_inverse, 25,
                _millis("invert_exact_ms")),
        OpClass("c", "newton", invert_newton, check_inverse, 25,
                _millis("invert_newton_ms")),
    ],
    "check": [
        OpClass("a", "validity", check_validity, check_pass_rate, 2,
                _rate("validity_trials_per_s", 1000)),
        OpClass("b", "chain", check_chain, check_pass_rate, 2,
                _rate("chain_trials_per_s", 500)),
        OpClass("c", "mvt", check_mvt, check_mvt_distance, 1,
                _rate("mvt_pairs_per_s", 1)),
    ],
}

def round_ops(classes, rng):
    """One round's operations, classes interleaved: [(class, argv, ctx)]."""
    ops = []
    for i in range(max(c.per_round for c in classes)):
        for cls in classes:
            if i < cls.per_round:
                argv, ctx = cls.make(rng)
                ops.append((cls, argv, ctx))
    return ops
