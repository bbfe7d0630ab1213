"""Hadamard integral profile, ball-inclusion verification, compact preimages.

The integral profile beta(t) lower-bounds the regularity index on balls of
growing radius; its running integral rho bounds the radius of guaranteed
image balls.  Divergence of the improper integral is never claimed from
samples: the analytic-bound hook is the only certified path, since any
finite computation is consistent with both convergence and divergence.
"""

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .indices import regularity_index
from .invert import path_lift_invert
from .linalg import as_vector
from .maps import _uniform_ball, evaluate

__all__ = [
    "BetaProfile",
    "beta_profile",
    "rho_at",
    "hadamard_verdict",
    "ball_inclusion_test",
    "compact_preimage_regularity",
    "write_profile_csv",
    "PreimageError",
]

DEFAULT_GRID_N = 128
DEFAULT_SHELL_SAMPLES = 64
BALL_INCLUSION_MARGIN = 0.02


class PreimageError(RuntimeError):
    """Inversion failed for a target; carries the offending point."""

    def __init__(self, target, trace):
        super().__init__(f"inversion failed (status {trace.status}) "
                         f"for target {np.asarray(target)}")
        self.target = np.asarray(target, dtype=float)
        self.trace = trace


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


def _halton_ball(n_dim, count, radius, center, seed=0):
    """Low-discrepancy points in the closed ball B(center, radius)."""
    sampler = qmc.Halton(d=n_dim + 1, scramble=True, seed=seed)
    u = sampler.random(count)
    directions = ndtri(np.clip(u[:, :n_dim], 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * u[:, n_dim:] ** (1.0 / n_dim)
    return center + directions / norms * radii


def beta_profile(model, provider, center, t_max, grid_n=DEFAULT_GRID_N,
                 samples_per_shell=DEFAULT_SHELL_SAMPLES, analytic_beta=None,
                 net=1e-3, rng=None):
    """Profile of inf over B(center, t) of the regularity index.

    With an analytic bound the profile is exact on the grid (mode
    "analytic").  Otherwise each grid ball is probed at fixed-seed
    low-discrepancy points and the running minimum of sampled regularity
    indices is taken (mode "sampled").
    """
    if not (t_max > 0 and grid_n >= 2):
        raise ValueError("require t_max > 0 and grid_n >= 2")
    center = as_vector(center)
    grid = np.linspace(0.0, t_max, grid_n)
    if analytic_beta is not None:
        return BetaProfile(grid, [analytic_beta(t) for t in grid], "analytic")
    beta = np.empty(grid_n)
    beta[0] = regularity_index(model, provider, center, net=net, rng=rng).alpha
    running = beta[0]
    for j in range(1, grid_n):
        points = _halton_ball(center.size, samples_per_shell, grid[j], center,
                              seed=j)
        for z in points:
            running = min(running,
                          regularity_index(model, provider, z, net=net,
                                           rng=rng).alpha)
        beta[j] = running
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
    if profile.mode == "analytic" and analytic_divergent and beta_end >= 0:
        if beta_end > 0:
            return "diverges_analytic"
    if beta_end == 0.0:
        return "fails"
    if beta_end >= 0.01 * max(profile.beta[0], 1e-300):
        return "inconclusive_growing"
    return "inconclusive_flat"


def ball_inclusion_test(model, provider, x0, delta, profile, samples=50,
                        margin=BALL_INCLUSION_MARGIN, tol=1e-8, steps=16,
                        rng=None):
    """Empirical check of B(f(x0), rho(delta)) <= f(B(x0, delta)).

    Targets are drawn uniformly in the slightly shrunken guaranteed ball
    and handed to the path-lifting inverter; a trial passes when a solution
    lands inside the source ball with residual below tol.  Returns the pass
    fraction; inverter hard failures count as test failures.
    """
    x0 = as_vector(x0)
    rng = np.random.default_rng(rng)
    rho = rho_at(profile, delta) * (1.0 - margin)
    y0 = evaluate(model, x0)
    passed = 0
    for _ in range(samples):
        y = y0 + _uniform_ball(rng, y0.size) * rho
        trace = path_lift_invert(model, provider, x0, y, steps=steps, tol=tol,
                                 rng=rng)
        if (trace.status == "converged"
                and trace.final_residual <= tol
                and np.linalg.norm(trace.final_x - x0) < delta):
            passed += 1
    return passed / samples


def compact_preimage_regularity(model, provider, targets, x0=None, tol=1e-8,
                                steps=16, net=1e-3, rng=None):
    """inf of regularity indices over the preimage of a finite target set.

    Each target is inverted by path lifting from x0 (default: origin); a
    failed inversion raises PreimageError naming the offending target.
    """
    rng = np.random.default_rng(rng)
    if x0 is None:
        x0 = np.zeros(model.dim_in)
    worst = np.inf
    for y in targets:
        trace = path_lift_invert(model, provider, x0, y, steps=steps, tol=tol,
                                 rng=rng)
        if trace.status != "converged":
            raise PreimageError(y, trace)
        report = regularity_index(model, provider, trace.final_x, rng=rng)
        worst = min(worst, report.alpha)
    return worst


def write_profile_csv(profile, path):
    """Export a profile as CSV with header t,beta,rho, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("t,beta,rho\n")
        for t, b, r in zip(profile.grid, profile.beta, profile.rho):
            fh.write(f"{t:.12g},{b:.12g},{r:.12g}\n")
