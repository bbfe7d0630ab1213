"""Hadamard integral profile and ball-inclusion verification.

The integral profile beta(t) lower-bounds the regularity index on balls of
growing radius; its running integral rho bounds the radius of guaranteed
image balls.  The analytic profile is certified by the sum rule; a sampled
one is not.  Divergence of the improper integral is never computed, since
any finite computation is consistent with both convergence and divergence:
it is the model's declared ``beta_divergent``.

A sampled profile probes grid shell j at points of its own generator,
``np.random.default_rng(j)``: one standard_normal draw of n + 2 values per
point gives the direction (the first n) and the radial uniform
exp(-(g_n**2 + g_{n+1}**2) / 2), which is U(0, 1] since half a chi-square
variable with two degrees of freedom is Exp(1).  So the points do not
depend on ``rng``, and a shell's first c points are the same for every
count >= c.  The draws depend only on (n, grid_n, count), so their unit
directions and radial scales are made once per process for each such
triple and cached read-only; the grid radii and the center are applied on
every call, by the operations of ``maps._ball_points``.  A profile whose
draws would exceed MAX_PROFILE_DRAWS entries is refused before anything
is drawn.  The center and all the shells' points, in that order, form one
array, and their sets are built and bounded by ``indices._set_values``,
the pass the regularity index takes too: one ``build_sets`` call and one
``_stack_bounds`` pass per ``_blocks`` block of whole points, which costs
one SVD when the derivative is constant (a broadcast view).  Each shell's
minimum is then read off the values reshaped shell by shell.

The running integral rho is the trapezoid rule on the grid; rho_lower is
the lower Riemann sum on right endpoints, which under-estimates the
integral of a nonincreasing beta.
"""

import functools

import numpy as np

from .indices import DEFAULT_NET, _set_values
from .invert import path_lift_invert
from .linalg import as_vector, singular_values
from .maps import (_ball_directions, _blocks, _check_point, _uniform_ball,
                   evaluate)

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
# entries (128 MiB of floats) of the largest sampled profile's shell draws,
# (1 + (grid_n - 1) * samples_per_shell) x (n + 2); the draw cache keeps at
# most four draw arrays
MAX_PROFILE_DRAWS = 1 << 24


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
        steps = np.diff(grid)
        self.rho = np.concatenate(
            [[0.0], np.cumsum(steps * (self.beta[1:] + self.beta[:-1]) / 2.0)])
        self.rho_lower = np.concatenate([[0.0], np.cumsum(steps * self.beta[1:])])
        self.mode = mode

    @property
    def t_max(self):
        return float(self.grid[-1])


def beta_profile(model, provider, center, t_max, grid_n=DEFAULT_GRID_N,
                 samples_per_shell=DEFAULT_SHELL_SAMPLES, analytic=False,
                 rng=None):
    """Profile of inf over B(center, t) of the regularity index.

    With analytic=True it is the sum-rule bound (mode "analytic") from one
    ``smooth_part``, SVD and ``lip_part`` call, whatever the provider; a
    model without a constant sum pair raises ValueError.  Otherwise each
    grid ball is probed at samples_per_shell fixed-seed points (the center
    alone at t = 0) and the running minimum of the regularity indices
    there, by the USC shortcut, is taken (mode "sampled").  The sets of
    all the points are built and bounded by ``indices._set_values``, one
    ``build_sets`` call and one stack pass per ``_blocks`` block of whole
    points; rng feeds only the provider.  Clarke draws follow point order,
    so the stream equals one ``build_sets`` call per shell unless a vertex
    is redrawn: a block redraws after the first draws of all its points,
    which may span several shells.  A sampled profile whose shell draws
    would exceed MAX_PROFILE_DRAWS entries raises ValueError before
    anything is drawn.
    """
    if not (t_max > 0 and grid_n >= 2 and samples_per_shell >= 1):
        raise ValueError("require t_max > 0, grid_n >= 2 and "
                         "samples_per_shell >= 1")
    center = _check_point(model, center)
    grid = np.linspace(0.0, t_max, grid_n)
    if analytic:
        # the sum rule for f = g + h with g' constant (a stride-0 view):
        # sigma_min(g') - lip_part(center, t), less the Weyl margin
        # n * eps * sigma_max(g') for rounding; 0 for a non-square g'
        g = model.smooth_part and model.smooth_part(center[None])
        if g is None or g.strides[0] != 0 or model.lip_part is None:
            raise ValueError(f"{model.name}: no analytic profile bound")
        n, beta = center.size, np.zeros(grid_n)
        if model.dim_out == n:
            s = singular_values(g[0])
            lip = model.lip_part(np.broadcast_to(center, (grid_n, n)), grid)
            beta = s[-1] - n * np.finfo(float).eps * s[0] - lip
        return BetaProfile(grid, beta, "analytic")
    _check_draws(center.size, grid_n, samples_per_shell)
    rng = np.random.default_rng(rng)
    points = _profile_points(center, grid, samples_per_shell)
    values, _, _ = _set_values(model, provider, points, DEFAULT_NET, rng)
    # each shell's minimum; BetaProfile takes the running minimum
    shells = values[1:].reshape(grid_n - 1, samples_per_shell).min(axis=1)
    return BetaProfile(grid, np.concatenate([values[:1], shells]), "sampled")


def _check_draws(n, grid_n, count):
    # refuse a sampled profile whose shell draws outgrow MAX_PROFILE_DRAWS
    entries = (1 + (int(grid_n) - 1) * int(count)) * (int(n) + 2)
    if entries > MAX_PROFILE_DRAWS:
        raise ValueError(f"a profile of {grid_n} grid points and "
                         f"{count} samples per shell in dimension {n} needs "
                         f"{entries} draws, more than {MAX_PROFILE_DRAWS}")


def _profile_points(center, grid, count):
    # the center, then count points of shell j = 1, 2, ..., by the
    # operations of _ball_points on the cached directions; row 0 (a dummy
    # draw at radius 0) is then overwritten by the center
    units, scale = _shell_draws(center.size, len(grid), count)
    radii = np.repeat(grid, [1] + [count] * (len(grid) - 1))[:, None]
    points = units * (radii * scale)
    points += center
    points[0] = center
    return points


@functools.lru_cache(maxsize=4)
def _shell_draws(n, grid_n, count):
    # the unit directions and radial scales (_ball_directions) of every
    # profile point, read-only, built once per (n, grid_n, count) from the
    # draws: a dummy row of ones, then count rows for shell j = 1, 2, ...
    # from one draw of default_rng(j) each, filling one array in place; its
    # first n columns are the normals, the last two give the radial uniform
    g = np.ones((1 + (grid_n - 1) * count, n + 2))
    for j in range(1, grid_n):
        shell = g[1 + (j - 1) * count:1 + j * count]
        np.random.default_rng(j).standard_normal(out=shell)
    radial = np.exp(-(g[:, n:n + 1] ** 2 + g[:, n + 1:] ** 2) / 2.0)
    units, scale = _ball_directions(g[:, :n], radial)
    units.flags.writeable = False
    scale.flags.writeable = False
    return units, scale


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
    if samples < 1:
        raise ValueError("samples must be >= 1")
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
    """Export a profile as CSV with header t,beta,rho, 17 significant digits,
    so that float() of each field gives back its double to the bit."""
    with open(path, "w", newline="") as fh:
        fh.write("t,beta,rho\n")
        for t, b, r in zip(profile.grid, profile.beta, profile.rho):
            fh.write(f"{t:.17g},{b:.17g},{r:.17g}\n")
