"""Hadamard integral profile and ball-inclusion verification.

The integral profile beta(t) lower-bounds the regularity index on balls of
growing radius; its running integral rho bounds the radius of guaranteed
image balls.  Divergence of the improper integral is never claimed from
samples: the analytic-bound hook is the only certified path, since any
finite computation is consistent with both convergence and divergence.

A sampled profile probes shell j at the scrambled Halton points (Owen,
"A randomized Halton algorithm in R", arXiv:1706.02808) that
``scipy.stats.qmc.Halton(d=n + 1, scramble=True, seed=j)`` draws, mapped
to the ball through the normal quantile.  Both the sequence and the
quantile (Cephes' ``ndtri``) are written here in NumPy, bit for bit as
scipy computes them, and a block of shells is drawn at once.
"""

import math

import numpy as np

from .indices import DEFAULT_NET, _bound_value, _point_bounds
from .invert import path_lift_invert
from .linalg import as_vector
from .maps import _ball_points, _blocks, _uniform_ball, evaluate

__all__ = [
    "BetaProfile",
    "beta_profile",
    "rho_at",
    "hadamard_verdict",
    "ball_inclusion_test",
    "write_profile_csv",
]

DEFAULT_GRID_N = 128
DEFAULT_SHELL_SAMPLES = 64
BALL_INCLUSION_MARGIN = 0.02
BALL_INCLUSION_TOL = 1e-8


class BetaProfile:
    """Nonincreasing regularity lower profile with its running integral."""

    def __init__(self, grid, beta, mode):
        grid = np.asarray(grid, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if grid.size != beta.size or grid.size < 2 or grid[0] != 0.0:
            raise ValueError("grid and beta must match, start at 0, length >= 2")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        # sampling only shrinks an inf estimate; keep the profile monotone
        self.grid = grid
        self.beta = np.minimum.accumulate(np.maximum(beta, 0.0))
        self.rho = np.concatenate(
            [[0.0], np.cumsum(np.diff(grid) * (self.beta[1:] + self.beta[:-1]) / 2.0)])
        self.mode = mode

    @property
    def t_max(self):
        return float(self.grid[-1])


def _first_primes(count):
    limit = 16
    while True:
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.flatnonzero(sieve)
        if primes.size >= count:
            return primes[:count].tolist()
        limit *= 2


def _halton_shells(dim, count, shells):
    """Scrambled Halton points in [0, 1)^dim for the seeds 1, ..., shells,
    as pairs (seeds, u), a block of ``_blocks`` at a time: u[s] is the
    transpose of the first count points of ``qmc.Halton(d=dim,
    scramble=True, seed=seeds[s])``, an array (dim, count).

    Base b, the k-th prime, scrambles its ceil(54 / log2 b) - 1 digits with
    one random permutation each, drawn from ``default_rng(seed)`` base by
    base.  The radical inverse sums the permuted digits, lowest first, in
    a running sum, with weights b**-1, b**-2, ... obtained by repeated
    division, as scipy's loop does.  A block's working arrays stay within
    MAX_BATCH_ENTRIES.
    """
    index = np.arange(count)
    bases = []
    for b in _first_primes(dim):
        digits = math.ceil(54 / math.log2(b)) - 1
        weights = [1.0 / b]
        for _ in range(digits - 1):
            weights.append(weights[-1] / b)
        # b ** (digits - 1) < 2**54: the powers are exact int64
        places = index // b ** np.arange(digits)[:, None] % b
        bases.append((b, places, np.array(weights)[:, None]))
    # a shell's working arrays: its points, the digit terms of one base
    # (base 2 has the most digits) and the permutations of one base
    table = max(b * len(places) for b, places, _ in bases)
    for block in _blocks(shells, max(dim * count, bases[0][1].size, table)):
        seeds = range(block.start + 1, block.stop + 1)
        gens = [np.random.default_rng(seed) for seed in seeds]
        u = np.empty((len(gens), dim, count))
        for k, (b, places, weights) in enumerate(bases):
            rows = np.repeat(np.arange(b)[None], len(places), axis=0)
            perms = np.stack([g.permuted(rows, axis=1) for g in gens])
            terms = perms[:, np.arange(len(places))[:, None], places] * weights
            u[:, k] = np.add.accumulate(terms, axis=1)[:, -1]
        yield seeds, u


# Cephes ndtri (S. L. Moshier), the coefficients scipy.special.ndtri uses
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242e0
# central branch, |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tail branch, 2 <= sqrt(-2 log y) < 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_CLIP = 1e-12


def _polevl(x, coefs, monic=False):
    # Horner's rule as Cephes' polevl; monic, as its p1evl, with an
    # implicit leading coefficient 1
    out = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        out = out * x + c
    return out


def _libm_log(x):
    # element-wise libm log: NumPy's SIMD log can differ in the last bits
    return np.array([math.log(v) for v in x.tolist()])


def _ndtri(p):
    """Normal quantile of p in [_NDTRI_CLIP, 1 - _NDTRI_CLIP], bit for bit
    as ``scipy.special.ndtri``.

    Cephes' third branch, for sqrt(-2 log y) >= 8 (y < exp(-32)), is left
    out: the clip keeps sqrt(-2 log y) <= 7.43.
    """
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    ratio = c2 * _polevl(c2, _P0) / _polevl(c2, _Q0, monic=True)
    out[mid] = (c + c * ratio) * _S2PI
    x = np.sqrt(-2.0 * _libm_log(y[~mid]))
    z = 1.0 / x
    x0 = x - _libm_log(x) / x
    tail = x0 - z * _polevl(z, _P1) / _polevl(z, _Q1, monic=True)
    out[~mid] = np.where(upper[~mid], tail, -tail)
    return out


def beta_profile(model, provider, center, t_max, grid_n=DEFAULT_GRID_N,
                 samples_per_shell=DEFAULT_SHELL_SAMPLES, analytic_beta=None,
                 rng=None):
    """Profile of inf over B(center, t) of the regularity index.

    With an analytic bound the profile is exact on the grid (mode
    "analytic").  Otherwise each grid ball is probed at fixed-seed
    low-discrepancy points (the center alone at t = 0) and the running
    minimum of the regularity indices there, by the USC shortcut, is taken
    (mode "sampled").  The shells' points are drawn a block of shells at a
    time; each shell is one ``build_sets`` call, and its singleton sets
    share one batched co-norm bound.
    """
    if not (t_max > 0 and grid_n >= 2):
        raise ValueError("require t_max > 0 and grid_n >= 2")
    center = as_vector(center)
    grid = np.linspace(0.0, t_max, grid_n)
    if analytic_beta is not None:
        return BetaProfile(grid, [analytic_beta(t) for t in grid], "analytic")
    # each shell's minimum; BetaProfile takes the running minimum
    rng = np.random.default_rng(rng)
    n = center.size

    def shell_min(points):
        found = _point_bounds(model, provider, points, DEFAULT_NET, rng)
        return min(map(_bound_value, found), default=np.inf)

    beta = [shell_min(center[None])]
    for seeds, u in _halton_shells(n + 1, samples_per_shell, grid_n - 1):
        normals = _ndtri(np.clip(u[:, :n], _NDTRI_CLIP, 1.0 - _NDTRI_CLIP))
        # each shell's (count, n) normals are the transpose of a C-ordered
        # block, as scipy lays them out: the row norms then sum in its order
        for s, j in enumerate(seeds):
            beta.append(shell_min(_ball_points(center, grid[j], normals[s].T,
                                               u[s, n:].T)))
    return BetaProfile(grid, beta, "sampled")


def rho_at(profile, t):
    """Linear interpolation of the running integral at radius t."""
    if not (0.0 <= t <= profile.t_max):
        raise ValueError("t outside the profile grid")
    return float(np.interp(t, profile.grid, profile.rho))


def hadamard_verdict(profile, analytic_divergent=False):
    """Classify a profile against the divergent-integral requirement.

    "diverges_analytic" only for analytic profiles the caller tags as
    divergent; "fails" when beta hits zero and stays there; otherwise the
    verdict reports the trend only, since samples never certify divergence.
    """
    beta_end = profile.beta[-1]
    if profile.mode == "analytic" and analytic_divergent and beta_end > 0:
        return "diverges_analytic"
    if beta_end == 0.0:
        return "fails"
    if beta_end >= 0.01 * max(profile.beta[0], 1e-300):
        return "inconclusive_growing"
    return "inconclusive_flat"


def ball_inclusion_test(model, provider, x0, delta, profile, samples=50,
                        rng=None):
    """Empirical check of B(f(x0), rho(delta)) <= f(B(x0, delta)).

    Targets are drawn uniformly in the guaranteed ball shrunk by the factor
    1 - BALL_INCLUSION_MARGIN, a block of them at a time before the block's
    inversions, and handed to the path-lifting inverter; a trial passes
    when a solution lands inside the source ball with residual below
    BALL_INCLUSION_TOL.  Returns the pass fraction; inverter hard failures
    count as test failures.  The source ball is open, so delta must be > 0.
    """
    if not (delta > 0):
        raise ValueError("require delta > 0")
    x0 = as_vector(x0)
    rng = np.random.default_rng(rng)
    rho = rho_at(profile, delta) * (1.0 - BALL_INCLUSION_MARGIN)
    y0 = evaluate(model, x0)
    passed = 0
    for block in _blocks(samples, y0.size):
        for y in _uniform_ball(rng, y0, rho, block.stop - block.start):
            trace = path_lift_invert(model, provider, x0, y,
                                     tol=BALL_INCLUSION_TOL, rng=rng)
            if (trace.status == "converged"
                    and trace.final_residual <= BALL_INCLUSION_TOL
                    and np.linalg.norm(trace.final_x - x0) < delta):
                passed += 1
    return passed / samples


def write_profile_csv(profile, path):
    """Export a profile as CSV with header t,beta,rho, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,beta,rho\n")
        for t, b, r in zip(profile.grid, profile.beta, profile.rho):
            fh.write(f"{t:.12g},{b:.12g},{r:.12g}\n")
