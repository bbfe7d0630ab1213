"""Executable structural checks: mean value inclusion, optimality, chain rule.

The mean value check samples a segment where its derivative can change: a
map that declares its kinks and is piecewise-affine between them is sampled
once per sign piece, any other map on a uniform grid (Clarke, Optimization
and Nonsmooth Analysis, 1983, Prop. 2.6.5, for the inclusion it tests).
"""

import numpy as np

from .linalg import _row_dots, as_vector, dist_to_hull, spectral_norm
from .maps import MapModel, evaluate, evaluate_batch
from .pseudojac import PseudoJacobianSet, build_set, build_sets, validity_check

__all__ = ["mvt_check", "optimality_check", "chain_rule_check"]


def mvt_check(model, provider, u, v, segment_samples=64, tol=1e-6, rng=None):
    """Check f(v) - f(u) against the hull of segment derivative actions.

    The hull is built from {T (v-u) : T vertex of the provider set at z} for
    z at the points ``_segment_times`` picks on [u, v], inflated by (max
    provider radius) times ||v - u||; one ``build_sets`` call builds the
    sets of all of them.  segment_samples is the size of the uniform grid
    that a map which does not declare itself piecewise-affine is sampled
    on.  The hull projection stops within min(1e-10, tol / 10) of the
    true distance, so its slack cannot fail an inclusion that holds.
    Returns (distance, pass).
    """
    if segment_samples < 2:
        raise ValueError("segment_samples must be >= 2")
    u = as_vector(u)
    v = as_vector(v)
    direction = v - u
    # the ends first: their checks refuse a bad segment before any set is
    # built, and the kink crossings need ends of the map's dimension
    gap = evaluate(model, v) - evaluate(model, u)
    ts = _segment_times(model, u, v, segment_samples)
    vertices, radii = build_sets(model, u + ts[:, None] * direction, provider,
                                 rng=rng)
    dist = dist_to_hull(gap, (vertices @ direction).reshape(-1, gap.size),
                        float(radii.max()) * np.linalg.norm(direction),
                        gap_tol=min(1e-10, tol / 10))
    return dist, dist <= tol


def _segment_times(model, u, v, samples):
    """The parameters t in [0, 1] of the points u + t (v - u) that
    ``mvt_check`` builds sets at.

    Kink coordinate j of the model changes sign at t_j = u_j / (u_j - v_j)
    when u_j and v_j have opposite signs; the distinct t_j cut [0, 1] into
    sign pieces.  The derivative of a piecewise-affine map is constant on
    each piece, so the piece midpoints alone give the exact hull.  Any
    other map is sampled on the uniform grid of ``samples`` points, and
    when the segment crosses a kink the piece midpoints follow it: the
    grid's sets keep their draws, and the distance can only fall.  A model
    whose kinks are unknown takes the grid.
    """
    grid = np.linspace(0.0, 1.0, samples)
    if model.kinks is None:
        return grid
    a, b = u[model.kinks], v[model.kinks]
    cross = np.sign(a) * np.sign(b) < 0.0
    if not (model.piecewise_affine or cross.any()):
        return grid
    a, b = a[cross], b[cross]
    edges = np.unique(np.concatenate([[0.0, 1.0], a / (a - b)]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids if model.piecewise_affine else np.concatenate([grid, mids])


def optimality_check(scalar_model, provider, x0, tol=1e-6, rng=None):
    """Check 0 against the hull of the provider set at a candidate extremum.

    The provider set of a scalar map consists of 1 x n operators, viewed as
    row vectors; the operator-ball radius coincides with the Euclidean one.
    Returns (distance, pass).
    """
    if scalar_model.dim_out != 1:
        raise ValueError("optimality check needs a scalar map")
    x0 = as_vector(x0)
    jset = build_set(scalar_model, x0, provider, rng=rng)
    dist = dist_to_hull(np.zeros(scalar_model.dim_in), jset.vertices[:, 0],
                        jset.radius)
    return dist, dist <= tol


def compose_with_smooth_outer(outer_deriv, inner_set):
    """Pseudo-Jacobian of g o f from a smooth outer derivative at f(x).

    Each inner vertex is composed with the outer derivative; the ball
    radius is scaled by its spectral norm (a sound over-approximation).
    """
    outer = np.asarray(outer_deriv, dtype=float)
    return PseudoJacobianSet(outer @ inner_set.vertices,
                             spectral_norm(outer) * inner_set.radius)


def chain_rule_check(model_f, model_g, provider_f, x, trials=1000, tol=1e-3,
                     rng=None, counterexample=False):
    """Validity of the composed set g'(f(x)) o Jf(x) for g o f at x.

    The outer map must expose a derivative oracle, which is called on the
    one row f(x), and the inner map a ``dir_deriv`` oracle; the composed
    map's is g'(f(x)) f'(x; v), for the C^1 outer map, with g'(f(x)) taken
    once for every direction at x.  Returns the validity-check pass rate of
    the composed map against the composed set, and with
    ``counterexample=True`` the pair (rate, counterexample) of
    ``validity_check``.
    """
    if model_f.dim_out != model_g.dim_in:
        raise ValueError("composition dimensions are incompatible")
    if model_g.deriv is None:
        raise ValueError(f"{model_g.name}: outer map needs a derivative oracle")
    if model_f.dir_deriv is None:
        raise ValueError(f"{model_f.name}: inner map needs a dir_deriv oracle")
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    fx = evaluate(model_f, x)
    inner = build_set(model_f, x, provider_f, rng=rng)
    composed_set = compose_with_smooth_outer(model_g.deriv(fx[None])[0], inner)

    def dir_deriv(zs, ws):
        # one outer derivative per row of zs, each row's entries one dot
        outer = model_g.deriv(evaluate_batch(model_f, zs))
        return _row_dots(outer, model_f.dir_deriv(zs, ws)[:, None, :])

    composed_map = MapModel(
        f"{model_g.name}.{model_f.name}", model_f.dim_in, model_g.dim_out,
        lambda zs: evaluate_batch(model_g, evaluate_batch(model_f, zs)),
        dir_deriv=dir_deriv, domain_halfwidth=model_f.domain_halfwidth,
    )
    return validity_check(composed_map, x, composed_set, trials=trials,
                          tol=tol, rng=rng, counterexample=counterexample)
