"""Construction and calculus of pseudo-Jacobian sets.

A set is represented as co(vertices) + radius * closed-unit-ball in operator
spectral norm; every construction used here (singleton, Lipschitz ball, sum
rule, finite generalized-derivative sample) is exactly of this form, and the
support function of such a set is closed-form.

``build_sets`` builds the sets of P points as one read-only (P, k, m, n)
vertex stack and P radii; it is the one construction path, and
``build_set`` is its one-row case.  Every oracle of a map takes rows.  The
derivative oracles are called once per ``_blocks`` block of the P points,
not once per point, and a constant derivative may come back as a broadcast
view that the stack keeps uncopied.  The Clarke provider sends all P * m
sample points to the value oracle ``fn_batch`` at once, and the Lipschitz
ball samples each point on its own.

``support_function`` accepts one pair (ystar, v) or stacks ystar (..., m)
and v (..., n) with one common leading shape, and evaluates all pairs with
one matrix product: the (k, m * n) vertices against the (m * n, P) outer
products ystar (x) v.  A set of radius 0 adds no ball term.
``validity_check`` runs its trials in blocks: one draw of all (ystar, v)
pairs and one such product per block, whose largest and smallest actions
per pair give the upper and lower support bounds.  A map with a
``dir_deriv`` oracle gives each block's directional derivatives in one
call, one row per trial, from the directions in column-major layout.  A
map without one takes one ``evaluate_batch`` call for all Dini points of
the block.  Either path's work is laid out step-major, so that the long
axis, count or DINI_STEPS * count entries, comes last.  The Dini points
are built as an (n, DINI_STEPS, count) array and reach the oracle as its
Fortran-ordered (DINI_STEPS * count, n) view, and the values reshape to
(DINI_STEPS, count, m) without a copy.  The vertex actions are a (k,
count) array and the quotients a (DINI_STEPS, count) one, so every
extremum runs along the count; max and min do not round, so this layout
keeps their bits.
Every dot over a row (the dots with ystar, and ``_row_norms``) is one
``linalg._row_dots`` call, which gives each row the bits of one BLAS dot
on a C row, as a loop over single points takes it: a one-entry row is its
product plus 0.0, rows of at most 3 entries with a positive stride are
dotted in place, and other strided rows are copied to C rows first.  So
the quotients keep their bits.  The support bounds are exact up to one
matrix product's rounding.  An action rounds at most mn + 1 times: once
for an entry of the outer product, once for its product with a vertex
entry and mn - 1 times in the sum.  So it is off by at most
gamma_{mn+1} * sum |ystar_i V_ij v_j| <= gamma_{mn+m} * sum
|ystar_i V_ij v_j| (Higham, Accuracy and Stability of Numerical
Algorithms, 3.1), far below the tolerance of the verdicts.
"""

import numpy as np

from .linalg import _row_dots, _row_norms, as_vector
from .maps import (DomainError, _blocks, _central_differences, _check_point,
                   _check_rows, _numeric_jacobians, _row_error,
                   _uniform_balls, _unit_rows, evaluate, evaluate_batch,
                   local_lipschitz_estimate)

__all__ = [
    "PseudoJacobianSet",
    "ProviderSpec",
    "parse_provider",
    "build_sets",
    "build_set",
    "support_function",
    "validity_check",
]

MAX_REDRAWS = 16
# validity_check's Dini quotients: steps t0 * DINI_RATIO^j for j < DINI_STEPS
DINI_RATIO = 0.5
DINI_STEPS = 20
# validity_check's rounding margin of an exact-path gap, in units of
# u * m * n * (1 + max ||V_i||_F + radius) * (1 + ||f'(x; v)||)
COUNTEREXAMPLE_ULPS = 32


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

    @classmethod
    def _frozen(cls, vertices, radius):
        # a set on a checked, read-only (k, m, n) array, neither copied nor
        # checked again: one set of a build_sets stack
        jset = object.__new__(cls)
        object.__setattr__(jset, "vertices", vertices)
        object.__setattr__(jset, "radius", float(radius))
        return jset

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
        if not (0 < delta < np.inf and m >= 1 and 0 <= eps < np.inf):
            raise ValueError("require finite delta > 0, m >= 1 and finite "
                             "eps >= 0")
        if not (0 <= lip_radius < np.inf and lip_samples >= 2):
            raise ValueError("require finite lip_radius >= 0 and "
                             "lip_samples >= 2")
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
    kwargs, seen = {}, set()
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in seen:
                raise ValueError(f"provider parameter {key!r} given twice")
            seen.add(key)
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


def build_sets(model, points, spec, rng=None):
    """The provider's set at each row of a (P, dim_in) array of points.

    Returns (vertices, radii): one read-only float array of shape
    (P, k, m, n) and P radii, set i being co(vertices[i]) + radii[i] * ball.
    The provider kinds:

    - "exact": {f'(x)}, the ``deriv`` oracle, or a central-difference
      Jacobian for a model without one;
    - "sum": {g'(x)} + Lip h(x) * ball for a decomposition f = g + h, the
      ``smooth_part`` and ``lip_part`` oracles;
    - "ball": the zero-centered ball of radius Lip f(x), estimated by
      ``local_lipschitz_estimate`` on a ball of radius spec.lip_radius,
      point by point;
    - "clarke": central-difference Jacobians at spec.m points drawn
      uniformly in B(x, spec.delta), inflated by the slack spec.eps for
      the delta-ball closure.  Each point's draws come from rng in point
      order, so a stack equals P ``build_set`` calls; the oracle sees all
      P * spec.m points at once, in the blocks of ``_central_differences``.
      Vertices where differentiation fails are redrawn after all first
      draws, point by point, at most MAX_REDRAWS rounds; only a redraw
      makes the stream differ from P ``build_set`` calls.

    Every point gets ``evaluate``'s checks (dimension, finiteness, domain
    box); the points before the first bad one are built, and then the error
    that building the points in order would raise first is raised.
    """
    xs, stop = _check_rows(model, points)
    if spec.kind == "exact":
        vertices, radii = _exact_rows(model, xs[:stop])
    elif spec.kind == "sum":
        vertices, radii = _sum_rows(model, xs[:stop], spec)
    elif spec.kind == "ball":
        rng = np.random.default_rng(rng)
        radii = np.array([local_lipschitz_estimate(
            model, x, spec.lip_radius, samples=spec.lip_samples, rng=rng)
            for x in xs[:stop]])
        vertices = np.zeros((stop, 1, model.dim_out, model.dim_in))
    else:
        vertices, radii = _clarke_rows(model, xs[:stop], spec,
                                       np.random.default_rng(rng))
    if stop < len(xs):
        raise _row_error(model, xs[stop])
    vertices.setflags(write=False)
    return vertices, radii


def build_set(model, x, spec, rng=None):
    """The provider's set at x, one ``PseudoJacobianSet``: the one-row case
    of ``build_sets``."""
    xs = np.asarray(x, dtype=float).reshape(1, -1)
    vertices, radii = build_sets(model, xs, spec, rng=rng)
    return PseudoJacobianSet._frozen(vertices[0], radii[0])


def _in_blocks(model, oracle, xs):
    # a row oracle at the rows of xs, one call per block of _blocks(P, m * n)
    # (one call with no rows for P = 0)
    blocks = _blocks(len(xs), model.dim_out * model.dim_in) or [slice(0, 0)]
    parts = [np.asarray(oracle(xs[block]), dtype=float) for block in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _singletons(model, mats):
    # (P, 1, m, n) stack of P finite operators, each m x n; a view of mats
    shape = (len(mats), model.dim_out, model.dim_in)
    if mats.shape != shape:
        raise ValueError(f"{model.name}: expected {shape[1]} x {shape[2]} "
                         f"operators, got shape {mats.shape[1:]}")
    # a stack with stride 0 on its row axis holds one operator, checked once;
    # the method form skips np.all's dispatch (this runs once per build_set)
    checked = mats[:1] if mats.strides[0] == 0 else mats
    if not np.isfinite(checked).all():
        raise ValueError("matrix entries must be finite")
    return mats[:, None]


def _exact_rows(model, xs):
    if model.deriv is not None:
        jacs = _in_blocks(model, model.deriv, xs)
    else:
        jacs = _numeric_jacobians(model, xs)
    return _singletons(model, jacs), np.zeros(len(xs))


def _sum_rows(model, xs, spec):
    if model.smooth_part is None or model.lip_part is None:
        raise ValueError(f"{model.name}: sum provider needs smooth_part and lip_part")
    jacs = _in_blocks(model, model.smooth_part, xs)
    radii = _in_blocks(model, lambda z: model.lip_part(z, spec.lip_radius), xs)
    if radii.shape != (len(xs),):
        raise ValueError(f"{model.name}: expected {len(xs)} radii, got shape "
                         f"{radii.shape}")
    if not (radii >= 0.0).all():
        raise ValueError("radius must be >= 0")
    return _singletons(model, jacs), radii


def _clarke_rows(model, xs, spec, rng):
    count, n = xs.shape
    step = spec.delta * 1e-4
    zs = _uniform_balls(rng, xs, spec.delta, np.full(count, spec.m))
    jacs = _clarke_jacobians(model, zs, step).reshape(count, spec.m,
                                                      model.dim_out, n)
    # one reduction when every vertex is finite, as almost always
    if np.isfinite(jacs).all():
        return jacs, np.full(count, spec.eps)
    bad = ~np.isfinite(jacs).all(axis=(2, 3))
    for _ in range(MAX_REDRAWS):
        # boolean indexing walks bad point by point, as the draws do
        redraw = bad.any(axis=1)
        jacs[bad] = _clarke_jacobians(
            model, _uniform_balls(rng, xs[redraw], spec.delta,
                                  bad[redraw].sum(axis=1)), step)
        bad = ~np.isfinite(jacs).all(axis=(2, 3))
        if not bad.any():
            return jacs, np.full(count, spec.eps)
    raise FloatingPointError(f"{model.name}: non-finite finite-difference "
                             f"Jacobian after {MAX_REDRAWS} redraws")


def _clarke_jacobians(model, zs, step):
    # central-difference Jacobians at the ball points zs, which may leave
    # the domain box by up to delta: the one check they need
    if np.abs(zs).max(initial=0.0) > model.domain_halfwidth:
        raise DomainError(f"{model.name}: point outside domain box")
    return _central_differences(model, zs, step)


def support_function(jset, ystar, v):
    """sup of <ystar, T v> over the set; exact for this representation up to
    the rounding of one matrix product.

    ystar (..., m) and v (..., n) may be stacks with one common leading
    shape; the result then has that shape, one value per pair.  BLAS takes
    one pair by a matrix-vector product and many by a matrix-matrix one, so
    a single pair's value may differ in the last bit from the same pair's
    value inside a stack.
    """
    return _support_bounds(jset, ystar, v)[0]


def _support_bounds(jset, ystar, v):
    # (sup, inf) of <ystar, T v> over the set: max + ball and min - ball of
    # the vertex actions, laid out set-major as (k, P) so that max and min
    # run along the long axis.  Rounding is sign-symmetric, so these equal
    # support_function(jset, ystar, v) and -support_function(jset, -ystar, v)
    # (a zero may differ in sign)
    ystar = np.atleast_1d(np.asarray(ystar, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    k, m, n = jset.vertices.shape
    if (ystar.shape[:-1] != v.shape[:-1]
            or (ystar.shape[-1], v.shape[-1]) != (m, n)):
        raise ValueError(f"ystar {ystar.shape} and v {v.shape} do not pair up "
                         f"with {m} x {n} operators")
    if not (np.isfinite(ystar).all() and np.isfinite(v).all()):
        raise ValueError("vector entries must be finite")
    lead = ystar.shape[:-1]
    ys, vs = ystar.reshape(-1, m), v.reshape(-1, n)
    actions = _vertex_actions(jset.vertices, ys, vs).reshape((k,) + lead)
    sup, inf = actions.max(axis=0), actions.min(axis=0)
    if jset.radius == 0.0:
        return sup, inf
    ball = _ball_terms(jset.radius, ys, vs).reshape(lead)
    return sup + ball, inf - ball


def _vertex_actions(vertices, ys, vs):
    # the (k, P) actions <ys[p], V_i vs[p]>: one (k, m * n) @ (m * n, P)
    # GEMM against the outer products ys[p] (x) vs[p].  Where an outer
    # product overflows, which unit vectors never do, the actions are taken
    # by the (k * m, n) @ (n, P) product and a sum over m instead
    k, m, n = vertices.shape
    try:
        with np.errstate(over="raise"):
            outer = np.multiply(ys.T[:, None, :], vs.T[None, :, :],
                                out=np.empty((m, n, len(vs))))
    except FloatingPointError:
        actions = (vertices.reshape(k * m, n) @ vs.T).reshape(k, m, len(vs))
        actions *= ys.T
        return actions.sum(axis=1)
    return vertices.reshape(k, m * n) @ outer.reshape(m * n, len(vs))


def _ball_terms(radius, ys, vs):
    # radius * ||ys[p]|| * ||vs[p]||.  Where that product is not finite (a
    # norm overflowed while the other underflowed, and 0 * inf is NaN), it
    # is taken again from the rows scaled by their largest entry; ordinary
    # pairs keep the bits of the plain product
    with np.errstate(over="ignore", invalid="ignore"):
        ball = radius * _row_norms(ys) * _row_norms(vs)
        bad = ~np.isfinite(ball)
        if bad.any():
            ys, vs = ys[bad], vs[bad]
            sy, sv = np.abs(ys).max(axis=1), np.abs(vs).max(axis=1)
            sy[sy == 0.0], sv[sv == 0.0] = 1.0, 1.0
            ball[bad] = radius * (sy * sv) * (_row_norms(ys / sy[:, None])
                                              * _row_norms(vs / sv[:, None]))
    return ball


def _dini_steps(t0):
    # t0 * DINI_RATIO^j for j < DINI_STEPS, each by one more multiplication
    if not (t0 > 0):
        raise ValueError("require t0 > 0")
    return np.cumprod(np.r_[float(t0), np.full(DINI_STEPS - 1, DINI_RATIO)])


def validity_check(model, x, jset, trials=1000, tol=1e-3, rng=None, t0=1e-3,
                   counterexample=False):
    """Empirical check of the defining support-function inequality.

    Over random unit pairs (ystar, v), checks the upper Dini derivative of
    ystar o f at x along v against the support function of the set,
    jointly with the equivalent lower-bound form.  Returns the fraction of
    passing trials, and with ``counterexample=True`` the pair (rate,
    counterexample).  The derivative is taken on one of two paths:

    - Exact, for a model with a ``dir_deriv`` oracle (every catalog map).
      f is directionally differentiable, so both Dini derivatives equal
      <ystar, f'(x; v)>: one oracle row per trial, tested against sup + tol
      and inf - tol.  A trial's gap is the larger of value - sup and
      inf - value.  Its rounding is bounded by the margin
      COUNTEREXAMPLE_ULPS * u * m * n * (1 + max_i ||V_i||_F + radius) *
      (1 + ||f'(x; v)||), with u the unit roundoff: this covers the support
      bound (Higham, Accuracy and Stability of Numerical Algorithms, 3.1),
      the dot with ystar, and an oracle row that rounds by a few units of
      roundoff relative to 1 + ||f'(x; v)||, as the elementwise theta and
      abs-shift rows do.  A C^1 row f'(x) v rounds relative to
      ||f'(x)||_F instead, which the margin covers where the set's
      vertices are as large.  A trial that fails by more than its margin
      proves that the inequality fails, and ``counterexample`` is the
      worst such trial as a dict: ``ystar``, ``v``, ``gap`` and
      ``margin``, written in the upper form <ystar, f'(x; v)> - sup = gap
      (a lower-form failure is the upper form of -ystar, and negation does
      not round).  It is None when no trial fails by more than its margin.
    - Difference quotients, for a model without the oracle (a map built by
      hand, or a composition with one).  The Dini limsup is approximated
      by the largest of the quotients at the steps t0 * DINI_RATIO^j,
      j < DINI_STEPS, which bounds it from neither side: a quotient at
      step t differs from the directional derivative by a curvature term
      of order t (t / 2 * <ystar, f''(x)[v, v]> for a C^2 map), largest at
      t0.  So a trial can fail where the inequality holds, once that term
      exceeds tol, and pass where it fails by less than the term; the pass
      rate is an estimate, not a bound in either direction, and
      ``counterexample`` is always None.

    Each trial draws m + n standard normals (ystar first, then v, each
    normalized; an all-zero draw becomes the first basis vector); both
    paths draw the same pairs.  Trials run in blocks of at most
    MAX_BATCH_ENTRIES entries, so memory does not grow with ``trials``: a
    trial holds m * n entries of its outer product ystar (x) v, k * m of
    vertex actions where an outer product overflows, and on the quotient
    path DINI_STEPS * max(m, n) of Dini points and values.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ts = _dini_steps(t0)
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    m, n = model.dim_out, model.dim_in
    exact = model.dir_deriv is not None
    if exact:
        x = _check_point(model, x)
        per_trial = max(len(jset.vertices) * m, m * n)
    else:
        fx = evaluate(model, x)
        per_trial = max(DINI_STEPS * max(m, n), len(jset.vertices) * m, m * n)
    passed, worst = 0, None
    for block in _blocks(trials, per_trial):
        count = block.stop - block.start
        draws = rng.standard_normal((count, m + n))
        ystar, v = _unit_rows(draws[:, :m]), _unit_rows(draws[:, m:])
        sup, inf = _support_bounds(jset, ystar, v)
        if exact:
            ds = _directional_derivatives(model, x, v)
            upper = lower = _row_dots(ds, ystar)
        else:
            quots = _dini_quotients(model, x, fx, ystar, v, ts)
            upper, lower = quots.max(axis=0), quots.min(axis=0)
        ok = (upper <= sup + tol) & (lower >= inf - tol)
        passed += int(np.count_nonzero(ok))
        if exact and counterexample and not ok.all():
            worst = _worst_failure(jset, ystar, v, ds, upper - sup,
                                   inf - lower, ~ok, worst)
    return (passed / trials, worst) if counterexample else passed / trials


def _directional_derivatives(model, x, v):
    # the (count, m) rows f'(x; v[p]): one dir_deriv call, x shared by every
    # direction, checked as evaluate_batch checks values.  The directions go
    # in column-major layout, so that an oracle's elementwise work runs
    # along the count; a row dot of at most 3 strided entries keeps its bits
    ds = np.asarray(model.dir_deriv(x[None], np.asfortranarray(v)),
                    dtype=float)
    if ds.shape != (len(v), model.dim_out):
        raise ValueError(f"{model.name}: dir_deriv returned shape {ds.shape}")
    if not np.isfinite(ds).all():
        raise ValueError("vector entries must be finite")
    return ds


def _worst_failure(jset, ystar, v, ds, over, under, failed, worst):
    # the failed trial of largest gap among those beyond their rounding
    # margin, as validity_check's counterexample dict, if it beats worst
    k, m, n = jset.vertices.shape
    gaps = np.maximum(over, under)
    scale = 1.0 + _row_norms(jset.vertices.reshape(k, -1)).max() + jset.radius
    margins = (COUNTEREXAMPLE_ULPS * np.finfo(float).eps / 2 * m * n * scale
               * (1.0 + _row_norms(ds)))
    proven = np.flatnonzero(failed & (gaps > margins))
    if len(proven) == 0:
        return worst
    p = proven[np.argmax(gaps[proven])]
    if worst is not None and gaps[p] <= worst["gap"]:
        return worst
    sign = 1.0 if over[p] >= under[p] else -1.0
    return {"ystar": (sign * ystar[p]).tolist(), "v": v[p].tolist(),
            "gap": float(gaps[p]), "margin": float(margins[p])}


def _dini_quotients(model, x, fx, ystar, v, ts):
    # (len(ts), count) quotients (<ystar, f(x + t v)> - <ystar, f(x)>) / t,
    # to the bit those of a loop over the points.  zs[i, j, p] is
    # x_i + ts[j] * v[p, i], by the two operations of x + t * v; the oracle
    # takes its Fortran-ordered (len(ts) * count, n) view, and its values
    # reshape to (len(ts), count, m) without a copy
    (count, n), steps = v.shape, len(ts)
    zs = np.multiply(ts[:, None], v.T[:, None, :], out=np.empty((n, steps, count)))
    zs += x[:, None, None]
    fz = evaluate_batch(model, zs.reshape(n, -1).T).reshape(steps, count, -1)
    quots = _row_dots(fz, ystar)
    quots -= _row_dots(ystar, fx)
    quots /= ts[:, None]
    return quots
