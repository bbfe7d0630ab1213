"""Executable structural checks: mean value inclusion, optimality, chain rule."""

import numpy as np

from .linalg import as_vector, dist_to_hull, spectral_norm
from .maps import MapModel, evaluate, evaluate_batch
from .pseudojac import PseudoJacobianSet, build_set, validity_check

__all__ = ["mvt_check", "optimality_check", "chain_rule_check"]


def mvt_check(model, provider, u, v, segment_samples=64, tol=1e-6, rng=None,
              gap_tol=1e-10):
    """Check f(v) - f(u) against the hull of segment derivative actions.

    The hull is built from {T (v-u) : T vertex of the provider set at z} for
    z on a uniform grid of [u, v], inflated by (max provider radius) times
    ||v - u||.  Returns (distance, pass).
    """
    if segment_samples < 2:
        raise ValueError("segment_samples must be >= 2")
    u = as_vector(u)
    v = as_vector(v)
    rng = np.random.default_rng(rng)
    direction = v - u
    points = []
    max_radius = 0.0
    for t in np.linspace(0.0, 1.0, segment_samples):
        jset = build_set(model, u + t * direction, provider, rng=rng)
        max_radius = max(max_radius, jset.radius)
        points.append(jset.vertices @ direction)
    gap = evaluate(model, v) - evaluate(model, u)
    dist = dist_to_hull(gap, np.concatenate(points),
                        max_radius * np.linalg.norm(direction), gap_tol=gap_tol)
    return dist, dist <= tol


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
                     rng=None, t0=1e-3):
    """Validity of the composed set g'(f(x)) o Jf(x) for g o f at x.

    The outer map must expose a derivative oracle.  Returns the
    validity-check pass rate of the composed map against the composed set.
    """
    if model_f.dim_out != model_g.dim_in:
        raise ValueError("composition dimensions are incompatible")
    if model_g.deriv is None:
        raise ValueError(f"{model_g.name}: outer map needs a derivative oracle")
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    fx = evaluate(model_f, x)
    inner = build_set(model_f, x, provider_f, rng=rng)
    composed_set = compose_with_smooth_outer(model_g.deriv(fx), inner)
    composed_map = MapModel(
        f"{model_g.name}.{model_f.name}", model_f.dim_in, model_g.dim_out,
        lambda z: evaluate(model_g, evaluate(model_f, z)),
        fn_batch=lambda zs: evaluate_batch(model_g, evaluate_batch(model_f, zs)),
        domain_halfwidth=model_f.domain_halfwidth,
    )
    return validity_check(composed_map, x, composed_set, trials=trials,
                          tol=tol, rng=rng, t0=t0)
