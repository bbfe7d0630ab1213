"""Construction and calculus of pseudo-Jacobian sets.

A set is represented as co(vertices) + radius * closed-unit-ball in operator
spectral norm; every construction used here (singleton, Lipschitz ball, sum
rule, finite generalized-derivative sample) is exactly of this form, and the
support function of such a set is closed-form.

``support_function`` accepts one pair (ystar, v) or stacks ystar (..., m)
and v (..., n) with one common leading shape, and evaluates all pairs with
one einsum over the stacked vertices.  ``validity_check`` runs its trials
in blocks: one draw of all (ystar, v) pairs, one ``evaluate_batch`` call
for all Dini points and two ``support_function`` calls per block.
"""

import numpy as np

from .linalg import _row_norms, as_vector
from .maps import (MAX_BATCH_ENTRIES, DomainError, _central_differences,
                   _check_point, evaluate, evaluate_batch,
                   local_lipschitz_estimate, numeric_jacobian)

__all__ = [
    "PseudoJacobianSet",
    "ProviderSpec",
    "parse_provider",
    "build_set",
    "exact_singleton",
    "lipschitz_ball",
    "sum_rule",
    "sampled_clarke",
    "support_function",
    "pj_combine",
    "validity_check",
]

MAX_REDRAWS = 16


class PseudoJacobianSet:
    """co(vertices) + radius * unit ball of m x n operators, immutable.

    ``vertices`` is one read-only float array of shape (k, m, n).
    """

    __slots__ = ("vertices", "radius")

    def __init__(self, vertices, radius=0.0):
        try:
            vs = np.array(vertices, dtype=float)
        except ValueError:
            raise ValueError("all vertices must share one shape") from None
        if vs.shape[:1] == (0,):
            raise ValueError("vertex list must be nonempty")
        if vs.ndim != 3 or 0 in vs.shape:
            raise ValueError(f"expected nonempty m x n vertices, got shape {vs.shape}")
        if not np.all(np.isfinite(vs)):
            raise ValueError("matrix entries must be finite")
        if not (radius >= 0.0):
            raise ValueError("radius must be >= 0")
        vs.setflags(write=False)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "radius", float(radius))

    def __setattr__(self, *_):
        raise AttributeError("PseudoJacobianSet is immutable")

    @property
    def shape(self):
        return self.vertices.shape[1:]


class ProviderSpec:
    """Parsed provider selection: kind plus kind-specific parameters."""

    KINDS = ("exact", "ball", "sum", "clarke")

    def __init__(self, kind, delta=1e-4, m=32, eps=0.0, lip_radius=1e-2,
                 lip_samples=2000):
        if kind not in self.KINDS:
            raise ValueError(f"unknown provider kind {kind!r}")
        if not (delta > 0 and m >= 1 and eps >= 0):
            raise ValueError("require delta > 0, m >= 1, eps >= 0")
        if not (lip_radius >= 0 and lip_samples >= 2):
            raise ValueError("require lip_radius >= 0 and lip_samples >= 2")
        self.kind = kind
        self.delta = float(delta)
        self.m = int(m)
        self.eps = float(eps)
        self.lip_radius = float(lip_radius)
        self.lip_samples = int(lip_samples)

    def __repr__(self):
        return f"ProviderSpec({self.kind!r})"


def parse_provider(text):
    """Parse "exact" | "ball:r=<f>,m=<i>" | "sum" | "clarke:delta=<f>,m=<i>,eps=<f>"."""
    head, _, rest = text.partition(":")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if head == "ball" and key == "r":
                kwargs["lip_radius"] = float(val)
            elif head == "ball" and key == "m":
                kwargs["lip_samples"] = int(val)
            elif head == "clarke" and key in ("delta", "eps"):
                kwargs[key] = float(val)
            elif head == "clarke" and key == "m":
                kwargs["m"] = int(val)
            else:
                raise ValueError(f"bad provider parameter {item!r} for {head!r}")
    return ProviderSpec(head, **kwargs)


def exact_singleton(model, x):
    """Singleton set {f'(x)} at a differentiability point.

    x gets ``evaluate``'s checks (dimension, domain box) before any
    derivative oracle sees it.
    """
    x = _check_point(model, x)
    if model.deriv is not None:
        jac = model.deriv(x)
    elif model.smooth_part is not None and model.lip_part is None:
        jac = model.smooth_part(x)
    else:
        jac = numeric_jacobian(model, x)
    return PseudoJacobianSet([jac], 0.0)


def lipschitz_ball(model, x, spec, rng=None):
    """Zero-centered operator ball of radius Lip f(x) (estimated)."""
    x = as_vector(x)
    lip = local_lipschitz_estimate(model, x, spec.lip_radius,
                                   samples=spec.lip_samples, rng=rng)
    zero = np.zeros((model.dim_out, model.dim_in))
    return PseudoJacobianSet([zero], lip)


def sum_rule(model, x, spec=None):
    """{g'(x)} + Lip h(x) * ball for a decomposition f = g + h.

    x gets ``evaluate``'s checks (dimension, domain box) before any
    derivative oracle sees it.
    """
    if model.smooth_part is None or model.lip_part is None:
        raise ValueError(f"{model.name}: sum provider needs smooth_part and lip_part")
    x = _check_point(model, x)
    r = spec.lip_radius if spec is not None else 1e-2
    return PseudoJacobianSet([model.smooth_part(x)],
                             float(model.lip_part(x, r)))


def sampled_clarke(model, x, spec, rng=None):
    """Finite sample of Jacobians at nearby differentiability points.

    Vertices are central-difference Jacobians at spec.m points drawn
    uniformly in B(x, spec.delta); points where differentiation fails are
    re-drawn together, at most MAX_REDRAWS times.  The slack spec.eps
    inflates the set to account for the delta-ball closure.
    """
    x = as_vector(x)
    if x.size != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, got {x.size}")
    rng = np.random.default_rng(rng)
    step = spec.delta * 1e-4

    def jacobians_at_new_points(count):
        # count points uniform in B(x, delta): all normals, then all uniforms
        d = rng.standard_normal((count, x.size))
        nrm = np.linalg.norm(d, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        radii = spec.delta * rng.uniform(size=(count, 1)) ** (1.0 / x.size)
        zs = x + d / nrm * radii
        if np.max(np.abs(zs)) > model.domain_halfwidth:
            raise DomainError(f"{model.name}: point outside domain box")
        return _central_differences(model, zs, step)

    jacs = jacobians_at_new_points(spec.m)
    for _ in range(MAX_REDRAWS):
        bad = ~np.all(np.isfinite(jacs), axis=(1, 2))
        if not bad.any():
            break
        jacs[bad] = jacobians_at_new_points(int(bad.sum()))
    if not np.all(np.isfinite(jacs)):
        raise FloatingPointError(f"{model.name}: non-finite finite-difference "
                                 f"Jacobian after {MAX_REDRAWS} redraws")
    return PseudoJacobianSet(jacs, spec.eps)


def build_set(model, x, spec, rng=None):
    """Dispatch a ProviderSpec to the matching constructor."""
    if spec.kind == "exact":
        return exact_singleton(model, x)
    if spec.kind == "ball":
        return lipschitz_ball(model, x, spec, rng=rng)
    if spec.kind == "sum":
        return sum_rule(model, x, spec)
    return sampled_clarke(model, x, spec, rng=rng)


def support_function(jset, ystar, v):
    """sup of <ystar, T v> over the set; exact for this representation.

    ystar (..., m) and v (..., n) may be stacks with one common leading
    shape; the result then has that shape, one value per pair.
    """
    ystar = np.atleast_1d(np.asarray(ystar, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if ystar.shape[:-1] != v.shape[:-1]:
        raise ValueError(f"ystar {ystar.shape} and v {v.shape} do not pair up")
    if not (np.all(np.isfinite(ystar)) and np.all(np.isfinite(v))):
        raise ValueError("vector entries must be finite")
    best = np.einsum("...i,kij,...j->...k", ystar, jset.vertices, v).max(axis=-1)
    return best + jset.radius * _row_norms(ystar) * _row_norms(v)


def pj_combine(alpha, j1, j2):
    """Set for alpha*f + g: all pairwise sums alpha*V1 + V2, radii combined.

    Vertices are ordered with the j1 index major.
    """
    if j1.shape != j2.shape:
        raise ValueError("operator shapes differ")
    vertices = alpha * j1.vertices[:, None] + j2.vertices[None, :]
    return PseudoJacobianSet(vertices.reshape(-1, *j1.shape),
                             abs(alpha) * j1.radius + j2.radius)


def validity_check(model, x, jset, trials=1000, tol=1e-3, rng=None,
                   t0=1e-3, rho=0.5, k=20):
    """Empirical check of the defining support-function inequality.

    Over random unit pairs (ystar, v), estimates the upper Dini derivative
    of ystar o f at x along v and checks it against the support function,
    jointly with the equivalent lower-bound form.  Returns the fraction of
    passing trials.  The Dini limsup is approximated by a finite max, which
    can only under-estimate it, so the check is sound in the failure
    direction.

    Each trial draws m + n standard normals (ystar first, then v, each
    normalized; an all-zero draw becomes the first basis vector) and takes
    the difference quotients of ``dini_derivatives``.  Trials run in blocks
    of at most MAX_BATCH_ENTRIES evaluated entries, so memory does not grow
    with ``trials``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (t0 > 0 and 0 < rho < 1 and k >= 2):
        raise ValueError("require t0 > 0, rho in (0,1), k >= 2")
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    m, n = model.dim_out, model.dim_in
    fx = evaluate(model, x)
    ts = [t0]
    for _ in range(k - 1):
        ts.append(ts[-1] * rho)
    ts = np.array(ts)
    block = max(MAX_BATCH_ENTRIES // (k * max(m, n)), 1)
    passed = 0
    for start in range(0, trials, block):
        count = min(block, trials - start)
        draws = rng.standard_normal((count, m + n))
        ystar, v = _unit_rows(draws[:, :m]), _unit_rows(draws[:, m:])
        zs = x + ts[:, None] * v[:, None, :]
        fz = evaluate_batch(model, zs.reshape(-1, n)).reshape(count, k, m)
        # one BLAS dot per point, as ystar @ evaluate(model, z) computes it:
        # the quotients then match a loop over points to the bit
        phi = (fz[:, :, None, :] @ ystar[:, None, :, None])[:, :, 0, 0]
        base = (ystar[:, None, :] @ fx[:, None])[:, 0, 0]
        quots = (phi - base[:, None]) / ts
        sup = support_function(jset, ystar, v)
        inf = -support_function(jset, -ystar, v)
        ok = (quots.max(axis=1) <= sup + tol) & (quots.min(axis=1) >= inf - tol)
        passed += int(np.count_nonzero(ok))
    return passed / trials


def _unit_rows(d):
    nrm = _row_norms(d)
    zero = nrm == 0.0
    d[zero, 0], nrm[zero] = 1.0, 1.0
    return d / nrm[:, None]
