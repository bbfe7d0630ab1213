"""Map catalog, evaluation, numeric differentiation and Lipschitz estimation.

Catalog identifiers: "identity", "linear:<matrix-file>", "theta-a:<n>:<c>",
"theta-b:<n>", "theta-c:<n>", "exp1d", "complexsq", "abs-shift".

A map has one value oracle, ``fn_batch``, and it takes rows: a (P, dim_in)
array of points gives a (P, dim_out) array of values, and a single point is
the P = 1 case.  ``evaluate`` takes one point, through the oracle's one-row
view ``model.fn``; ``evaluate_batch`` takes a (k, dim_in) array of points,
makes one ``fn_batch`` call and applies ``evaluate``'s checks to every row.
The derivative oracles ``deriv``, ``smooth_part`` and ``lip_part`` take rows
as well: P points give P operators or P radii in one call, and
``dir_deriv`` gives P one-sided directional derivatives, at P points or at
one point shared by P directions.  Every catalog map has the form
f(x) = g(x) + S theta(|x|): a smooth part g, a switch S that selects
coordinates and a scalar theta, Griewank's abs-normal form with coordinate
switching variables.  Each family declares this record once, and
``_abs_normal_map`` derives every oracle from it, ``dir_deriv`` included
(g'(x) v, plus theta' times the one-sided derivative of |s|,
``_abs_along``), and the ``kinks`` and ``piecewise_affine`` declarations
that the mean value check cuts a segment by.  One table, ``_CATALOG``,
gives each identifier head its field counts, its constructor and its line
in ``catalog_ids``.
Batched kernels keep each working array under ``MAX_BATCH_ENTRIES`` float
entries and process larger jobs in the blocks ``_blocks`` cuts.  Every ball
point comes from one transform, ``_ball_points``, fed by ``_uniform_balls``
(for each center in turn all its count x n normals, then all its count
uniforms; ``_uniform_ball`` is its one-center case) or by the Hadamard
profile, whose grid shell j takes its normals and radial uniforms from one
draw of ``default_rng(j)`` and which caches their ``_ball_directions``.
The ball transform and the central-difference stencils run their
broadcast passes down the columns of a tall block (``linalg._tall``),
with the bits of the passes along the rows.
"""

import warnings

import numpy as np

from .linalg import _row_dots, _row_norms, _tall, as_matrix, as_vector

__all__ = [
    "MapModel",
    "evaluate",
    "evaluate_batch",
    "numeric_jacobian",
    "local_lipschitz_estimate",
    "theta_map",
    "theta_back_substitute",
    "identity_map",
    "linear_map",
    "make_map",
    "catalog_ids",
]

DEFAULT_DOMAIN_HALFWIDTH = 1e6
# entries (16 MiB of floats) in one working array of a batched kernel
MAX_BATCH_ENTRIES = 1 << 21


class DomainError(ValueError):
    """Evaluation point outside the declared domain box."""


class MapModel:
    """Evaluation oracle for a continuous map R^n -> R^m.

    Parameters
    ----------
    name : str
        Catalog identifier (echoed in reports).
    dim_in, dim_out : int
    fn_batch : callable
        The map's one value oracle, deterministic and of rows: (P, dim_in)
        array -> (P, dim_out) array, row i the value at row i.  A single
        point is the P = 1 case; ``model.fn``, x -> fn_batch(x[None])[0],
        is its one-row view.  ``fn`` is a closure over the oracle passed
        in, not a method that looks ``self.fn_batch`` up, so code that
        wraps both attributes by name (the benchmark's tracer does) sees a
        single-point call as one ``fn`` call, with no ``fn_batch`` call
        nested in it.
    deriv : callable, optional
        Full derivative oracle of rows, (P, dim_in) array -> (P, dim_out,
        dim_in) array, operator i the derivative at row i; valid wherever
        the map is differentiable (almost everywhere for the catalog maps).
        A constant derivative may be returned as a read-only
        ``np.broadcast_to`` view: stride 0 on the row axis declares one
        operator for every row, which is copied nowhere and checked and
        bounded once.  Any other layout is checked and bounded as P
        separate operators.
    dir_deriv : callable, optional
        One-sided directional derivative oracle of rows, (xs, vs) -> (P,
        dim_out) array, row p the limit f'(x_p; v_p) of (f(x_p + t v_p) -
        f(x_p)) / t as t decreases to 0, for P directions vs (P, dim_in)
        and xs either P points (P, dim_in) or one point (1, dim_in) that
        every direction shares.  For a directionally differentiable map
        (every catalog map, kinks included), ``pseudojac.validity_check``
        tests the support-function inequality with it exactly instead of
        by difference quotients.
    smooth_part : callable, optional
        Derivative oracle of rows, as ``deriv`` (a broadcast view included),
        of the smooth summand g in a decomposition f = g + h; a constant
        one gives ``hadamard.beta_profile`` its analytic profile.
    lip_part : callable, optional
        (xs, r) -> (P,) array, entry i an upper bound on the local Lipschitz
        constant of h on B(xs[i], r_i), for a (P, dim_in) array xs and r a
        scalar (r_i = r) or a (P,) array of radii.
    inverse : callable, optional
        Exact inverse oracle y -> x (closed form; used as a test oracle).
    beta_divergent : bool
        Declared: whether the analytic profile's integral diverges.
    rows_match : bool
        Declared: whether the multi-row ``fn_batch`` gives each row the bits
        of its one-row call.  False by default; every catalog map but
        ``linear`` declares it (a many-row gemm may round differently from
        a one-row one).  Path lifting evaluates the nodes it predicts in
        one call only for a map that declares it.
    kinks : sequence of int, optional
        Declared: the coordinates j off whose hyperplanes x_j = 0 the map is
        smooth (an abs-normal form's switching coordinates).  None, the
        default, means unknown; empty means smooth everywhere.
        ``properties.mvt_check`` cuts a segment where it crosses them.
    piecewise_affine : bool
        Declared: whether the map is affine on each sign piece of its
        ``kinks``, so that its derivative is constant between two kink
        crossings of a segment.  Read only when ``kinks`` is declared;
        False by default.
    """

    def __init__(self, name, dim_in, dim_out, fn_batch, deriv=None,
                 dir_deriv=None, smooth_part=None, lip_part=None, inverse=None,
                 beta_divergent=False, rows_match=False, kinks=None,
                 piecewise_affine=False,
                 domain_halfwidth=DEFAULT_DOMAIN_HALFWIDTH):
        self.name = name
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.fn = lambda x: fn_batch(x[None])[0]
        self.fn_batch = fn_batch
        self.deriv = deriv
        self.dir_deriv = dir_deriv
        self.smooth_part = smooth_part
        self.lip_part = lip_part
        self.inverse = inverse
        self.beta_divergent = beta_divergent
        self.rows_match = rows_match
        self.kinks = kinks
        self.piecewise_affine = piecewise_affine
        self.domain_halfwidth = float(domain_halfwidth)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"MapModel({self.name!r}, {self.dim_in}->{self.dim_out})"


def _check_point(model, x):
    """x as a vector, checked against the model before any oracle sees it.

    Raises ValueError for a bad shape, a non-finite entry or a wrong
    dimension and DomainError for a point outside the domain box, checked
    in that order.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        x = as_vector(x)  # a scalar becomes a vector; any other shape raises
    # one reduction for a finite point in the box, as almost always (a NaN
    # fails the comparison too); otherwise the checks in their order
    if not np.abs(x).max() <= model.domain_halfwidth:
        as_vector(x)  # raises for a non-finite entry
        if x.size == model.dim_in:
            raise DomainError(f"{model.name}: point outside domain box")
    if x.size != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, got {x.size}")
    return x


def evaluate(model, x):
    """Evaluate f(x), enforcing dimensions and the domain box."""
    x = _check_point(model, x)
    y = as_vector(model.fn(x))
    if y.size != model.dim_out:
        raise ValueError(f"{model.name}: oracle returned dim {y.size}")
    return y


def _check_rows(model, xs):
    """xs as a (k, dim_in) float array and the number of its leading rows
    that pass ``_check_point``'s checks.

    Raises ValueError at once for a wrong shape.  A caller processes the
    good rows first and then raises ``_row_error`` of the first bad row, so
    that the error is the one a loop over the rows would raise first.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, "
                         f"got shape {xs.shape}")
    # one reduction when every row passes; a NaN fails the comparison too
    if np.abs(xs).max(initial=0.0) <= model.domain_halfwidth:
        return xs, len(xs)
    return xs, int(np.argmin(np.abs(xs).max(axis=1) <= model.domain_halfwidth))


def _row_error(model, x):
    # the error _check_point raises for a row that _check_rows stopped at
    if not np.isfinite(x).all():
        return ValueError("vector entries must be finite")
    return DomainError(f"{model.name}: point outside domain box")


def evaluate_batch(model, xs):
    """Evaluate f at each row of a (k, dim_in) array; returns (k, dim_out).

    Every row gets ``evaluate``'s checks, and the error raised is the one
    that evaluating the rows in order would raise first: ValueError for a
    wrong dimension or a non-finite input or output, DomainError for a
    point outside the domain box.  Only the rows before the first bad input
    reach the oracle.
    """
    xs, stop = _check_rows(model, xs)
    ys = _oracle_rows(model, xs[:stop])
    if ys.shape != (stop, model.dim_out):
        raise ValueError(f"{model.name}: oracle returned shape {ys.shape}")
    if not np.all(np.isfinite(ys)):
        raise ValueError("vector entries must be finite")
    if stop < len(xs):
        raise _row_error(model, xs[stop])
    return ys


def _oracle_rows(model, zs):
    # f at each row of zs, one fn_batch call; no call for no rows
    if len(zs) == 0:
        return np.empty((0, model.dim_out))
    return np.asarray(model.fn_batch(zs), dtype=float)


def numeric_jacobian(model, x):
    """Central-difference Jacobian, entrywise error O(step^2) for C^2 maps,
    at step 1e-6 * (1 + ||x||).

    Only meaningful where the map is differentiable; the catalog maps are
    piecewise smooth, so randomly perturbed probe points are differentiable
    almost surely.
    """
    return _numeric_jacobians(model, _check_point(model, x)[None])[0]


def _numeric_jacobians(model, xs):
    # numeric_jacobian at each row of xs, rows already checked; raises
    # FloatingPointError if any entry is not finite
    jacs = _central_differences(model, xs, 1e-6 * (1.0 + _row_norms(xs)))
    if not np.isfinite(jacs).all():
        raise FloatingPointError(f"{model.name}: non-finite finite-difference Jacobian")
    return jacs


def _central_differences(model, zs, step):
    """Central-difference Jacobians at each row of zs, shape (k, m, n).

    step is one step for every row, or an array of k steps, one per row.
    The 2 * n stencil points of each row go to the oracle in two batch
    calls per block of ``_blocks(k, n * max(m, n))`` rows, as C rows, row
    j of point i's stencil z_i +- h e_j.  Points are not validated, and
    non-finite entries are passed through.

    Each stencil is one pass z + (eye(n) * h) and one z - (eye(n) * h) over
    a (rows, n, n) block, so the entries off the diagonal are z + 0.0 (a
    -0.0 becomes +0.0) and z - 0.0.  A tall block (``linalg._tall``) runs
    each pass along its long axis, the rows, instead of n entries at a
    time; each entry takes the same one operation, so no value moves.
    """
    k, n = zs.shape
    # row j of cols[i] is column j of Jacobian i, as the stencil yields it;
    # the result keeps this layout, since a matmul can round differently on
    # the other one
    cols = np.empty((k, n, model.dim_out))
    for block in _blocks(k, n * max(n, model.dim_out)):
        z = zs[block, None, :]
        h = step[block, None, None] if isinstance(step, np.ndarray) else step
        stencil = np.eye(n) * h
        if _tall(z.shape):
            shape = (len(z), n, n)
            plus = np.add(z, stencil, out=np.empty(shape), order="F")
            minus = np.subtract(z, stencil, out=np.empty(shape), order="F")
        else:
            plus, minus = z + stencil, z - stencil
        fp = _oracle_rows(model, plus.reshape(-1, n))
        fm = _oracle_rows(model, minus.reshape(-1, n))
        np.divide((fp - fm).reshape(len(z), n, -1), 2.0 * h, out=cols[block])
    return cols.transpose(0, 2, 1)


def local_lipschitz_estimate(model, x, r, samples=1000, rng=None):
    """Sampled lower estimate of the local Lipschitz constant on B(x, r).

    Pairs are drawn uniformly in the ball; in addition, axis-aligned
    near-coincident pairs (gap 1e-7) are probed at max(samples // 10, 2)
    uniform points to catch kink directions.  Both are drawn in blocks,
    one ``evaluate_batch`` call per block.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    best = 0.0
    for dx, df in _pair_norms(model, x, r, samples, rng):
        far = dx >= 1e-12
        best = max(best, np.max(df[far] / dx[far], initial=0.0))
    gap, n = 1e-7, x.size
    steps = gap * np.eye(n + 1, n, -1)  # a zero row, then gap * e_j
    probes = max(samples // 10, 2)
    for block in _blocks(probes, (n + 1) * max(n, model.dim_out)):
        bases = _uniform_ball(rng, x, r, block.stop - block.start)
        stencil = (bases[:, None, :] + steps).reshape(-1, n)
        fs = evaluate_batch(model, stencil).reshape(len(bases), n + 1, -1)
        best = max(best, float(_row_norms(fs[:, 1:] - fs[:, :1]).max()) / gap)
    return best


def _pair_norms(model, center, radius, pairs, rng):
    # (||x1 - x2||, ||f(x1) - f(x2)||) for pairs uniform in B(center,
    # radius), a block at a time: all x1, all x2, one evaluate_batch call
    for block in _blocks(pairs, 2 * max(center.size, model.dim_out)):
        count = block.stop - block.start
        x1 = _uniform_ball(rng, center, radius, count)
        x2 = _uniform_ball(rng, center, radius, count)
        fs = evaluate_batch(model, np.vstack([x1, x2]))
        yield _row_norms(x1 - x2), _row_norms(fs[:count] - fs[count:])


def _blocks(total, entries_per_item):
    # slices of range(total), MAX_BATCH_ENTRIES // entries_per_item long
    size = max(MAX_BATCH_ENTRIES // entries_per_item, 1)
    return [slice(start, min(start + size, total))
            for start in range(0, total, size)]


def _unit_rows(d):
    # rows of unit length, each d / np.linalg.norm(d) to the bit; an
    # all-zero row becomes the first basis vector (d is modified)
    nrm = _row_norms(d)
    zero = nrm == 0.0
    d[zero, 0], nrm[zero] = 1.0, 1.0
    return d / nrm[:, None]


def _ball_points(center, radius, normals, uniforms):
    """Points of B(center, radius): row i of normals (count, n), normalized
    (a zero row stays zero), at distance radius * uniforms[i, 0] ** (1 / n).

    center is one point or count of them, radius a scalar or a (count, 1)
    column.  A tall block (``linalg._tall``) scales its rows down its
    columns; each entry takes the same one multiplication either way.
    """
    # in place: one array of the points' size, whatever the count
    points, scale = _ball_directions(normals, uniforms)
    scale *= radius
    if _tall(points.shape):
        np.multiply(points, scale, out=points, order="F")
    else:
        points *= scale
    points += center
    return points


def _ball_directions(normals, uniforms):
    """_ball_points' unit rows (a new array, in the layout of normals) and
    radial scales, which depend on the draws alone.

    The norms are np.linalg.norm(normals, axis=1)'s operations,
    sqrt(add.reduce(normals * normals)), without its dispatch.  A tall
    block (``linalg._tall``) keeps its squares column by column, so that
    the reduce adds whole columns in turn along the long axis: below 8
    entries NumPy reduces a row by that same sequential sum (8 or more take
    its pairwise sum, and no tall block has them).  Its division by the
    norms runs down the columns; each entry is one division either way.
    """
    count, n = normals.shape
    tall = _tall(normals.shape)
    squares = (np.multiply(normals, normals, out=np.empty((n, count)).T,
                           order="F") if tall else normals * normals)
    norms = np.add.reduce(squares, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    units = (np.divide(normals, norms, out=np.empty_like(normals), order="F")
             if tall else normals / norms)
    return units, uniforms ** (1.0 / n)


def _uniform_ball(rng, center, radius, count):
    """count points uniform in B(center, radius), the one-center case of
    ``_uniform_balls``."""
    return _uniform_balls(rng, center[None], radius, np.full(1, count))


def _uniform_balls(rng, centers, radius, counts):
    """counts[i] points uniform in B(centers[i], radius) for each row i of
    centers, counts an integer array.

    Row by row, in order, rng gives counts[i] x n normals, then counts[i]
    uniforms, each filling its rows of one preallocated array; one
    ``_ball_points`` transform then maps all the draws.
    """
    total = int(counts.sum())
    normals = np.empty((total, centers.shape[1]))
    uniforms = np.empty((total, 1))
    start = 0
    for count in counts.tolist():
        stop = start + count
        rng.standard_normal(out=normals[start:stop])
        # uniform(0, 1) is 0 + 1 * random(): the same draws to the bit
        rng.random(out=uniforms[start:stop])
        start = stop
    # one center broadcasts over its rows; more are repeated row by row
    if len(centers) > 1:
        centers = centers.repeat(counts, axis=0)
    return _ball_points(centers, radius, normals, uniforms)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _abs_along(s, w):
    # the one-sided derivative of |s| along w: sign(s) * w, and |w| at s = 0
    return np.where(s == 0.0, np.abs(w), np.sign(s) * w)


def _constant_rows(a):
    # the derivative oracle of rows of a map whose derivative is a
    # everywhere: a read-only stride-0 view, copied nowhere, bounded once
    m, n = a.shape
    return lambda xs: np.broadcast_to(a, (len(xs), m, n))


def _abs_normal_map(name, n, m, g=None, dg=None, theta=None, shift=0,
                    affine=False, **declared):
    """The MapModel of f(x) = g(x) + S theta(|x|), every oracle derived from
    this one record of its structure.

    g is the smooth part's value oracle of rows and dg its derivative
    oracle of rows; left out, they are the identity's on R^n.  A theta
    gives the map a switch S, which adds theta(|x_{i+shift}|) to row
    i < n - shift; a switch needs g the identity.  theta is a number c, for
    theta(t) = c t, or a pair (theta, theta') of functions of t >= 0 with
    theta' nonnegative and nondecreasing.  The record gives

    - ``fn_batch``: g(x), plus theta(|x_j|) in row j - shift;
    - ``deriv``: g'(x), plus theta'(|x_j|) sign(x_j) at (j - shift, j);
    - ``dir_deriv``: g'(x) v, plus theta'(|x_j|) times the one-sided
      derivative of |x_j| along v_j in row j - shift;
    - ``smooth_part``: g';
    - ``lip_part``: ||S||_2 theta'(||x|| + r), the steepest slope of
      theta(|.|) on B(x, r) (|c| for a number c), and 0 without a switch.
      ||S||_2 is 1 when S has a 1 (it has at most one in each row and
      column), and 0 when n = shift, where S is empty and f is g;
    - ``kinks``: the columns of S, range(shift, n), and none without a
      switch;
    - ``piecewise_affine``: whether theta is a number and g affine, which
      ``affine`` declares (the identity's g is).

    The keywords ``declared`` go to MapModel as they are.
    """
    if g is None:
        g, dg = (lambda xs: xs.copy(order="K")), _constant_rows(np.eye(n))
        affine = True
    declared.update(kinks=range(shift, n) if theta is not None else range(0),
                    piecewise_affine=affine and not isinstance(theta, tuple))
    if theta is None:
        # deriv(x) v: entry i the dot of row i of deriv(x) with v, one BLAS
        # dot's bits however many rows
        return MapModel(
            name, n, m, g, deriv=dg, smooth_part=dg,
            dir_deriv=lambda xs, vs: _row_dots(dg(xs), vs[:, None, :]),
            lip_part=lambda xs, r: np.zeros(len(xs)), **declared)
    if isinstance(theta, tuple):
        theta, dtheta = theta
        lip_part = lambda xs, r: dtheta(_row_norms(xs) + r)
    else:
        c = theta
        theta, dtheta = (lambda t: c * t), (lambda t: c)
        lip_part = lambda xs, r: np.full(len(xs), abs(c))
    if n == shift:
        lip_part = lambda xs, r: np.zeros(len(xs))  # ||S||_2 = 0
    # the rows that S adds to and its columns, the switching coordinates
    rows, cols = slice(0, n - shift), slice(shift, None)

    def fn_batch(xs):
        # g(x) = x in the layout of xs: elementwise work then runs along the
        # long axis
        ys = xs.copy(order="K")
        ys[:, rows] += theta(np.abs(xs[:, cols]))
        return ys

    def deriv(xs):
        # g'(x) = I; a slope off the diagonal is written, not added to 0.0,
        # so that its zero sign stays
        jac = np.zeros((len(xs), n * n))
        jac[:, ::n + 1] = 1.0
        s = xs[:, cols]
        slopes = dtheta(np.abs(s)) * np.sign(s)
        jac[:, shift::n + 1] = slopes if shift else 1.0 + slopes
        return jac.reshape(-1, n, n)

    def dir_deriv(xs, vs):
        # g'(x) v = v, in the layout of vs
        s, ds = xs[:, cols], vs.copy(order="K")
        ds[:, rows] += dtheta(np.abs(s)) * _abs_along(s, vs[:, cols])
        return ds

    return MapModel(name, n, m, fn_batch, deriv=deriv, dir_deriv=dir_deriv,
                    smooth_part=dg, lip_part=lip_part, **declared)


def _theta_c(t):
    return t - np.log1p(t)


def theta_back_substitute(kind, n, y, c=None):
    """Exact inverse of a theta map by back-substitution.

    x_n = y_n and x_i = y_i - theta(|x_{i+1}|) going backwards; the last
    coordinate passes through unperturbed by the truncation convention.
    """
    theta = {"a": lambda t: c * t, "b": lambda t: t, "c": _theta_c}[kind]
    y = as_vector(y)
    x = np.empty_like(y)
    x[-1] = y[-1]
    for i in range(n - 2, -1, -1):
        x[i] = y[i] - theta(abs(x[i + 1]))
    return x


def theta_map(kind, n, c=None):
    """Truncated coordinate-shift perturbation of the identity on R^n.

    (f(x))_i = x_i + theta(|x_{i+1}|) for i < n and (f(x))_n = x_n, with
    theta(t) = c*t (kind "a"), t (kind "b") or t - log(1+t) (kind "c").
    """
    if kind not in ("a", "b", "c"):
        raise ValueError(f"unknown theta kind {kind!r}")
    if n < 1:
        raise ValueError(f"theta map dimension must be >= 1, got {n}")
    if kind == "a":
        if c is None or not np.isfinite(c):
            raise ValueError("theta-a requires a finite coefficient c")
        c = float(c)
        theta, divergent, name = c, abs(c) < 1.0, f"theta-a:{n}:{c:g}"
    elif kind == "b":
        theta, divergent, name = 1.0, False, f"theta-b:{n}"
    else:
        # theta' = t / (1 + t) is increasing
        theta = (_theta_c, lambda t: t / (1.0 + t))
        divergent, name = True, f"theta-c:{n}"
    return _abs_normal_map(
        name, n, n, theta=theta, shift=1, beta_divergent=divergent,
        inverse=lambda y: theta_back_substitute(kind, n, y, c),
        rows_match=True)


def identity_map(n=3):
    if n < 1:
        raise ValueError(f"identity map dimension must be >= 1, got {n}")
    return _abs_normal_map("identity", n, n, inverse=lambda y: y.copy(),
                           beta_divergent=True, rows_match=True)


def linear_map(a, name=None):
    a = as_matrix(a)
    m, n = a.shape
    inverse = None
    if m == n and abs(np.linalg.det(a)) > 0:
        ainv = np.linalg.inv(a)
        inverse = lambda y: ainv @ y
    return _abs_normal_map(name or "linear", n, m, lambda xs: xs @ a.T,
                           _constant_rows(a), affine=True, inverse=inverse,
                           beta_divergent=inverse is not None)


def exp1d_map():
    return _abs_normal_map("exp1d", 1, 1, np.exp,
                           lambda xs: np.exp(xs).reshape(-1, 1, 1),
                           rows_match=True, domain_halfwidth=700.0)


def complexsq_map():
    def g(xs):
        return np.column_stack([xs[:, 0] ** 2 - xs[:, 1] ** 2,
                                2.0 * xs[:, 0] * xs[:, 1]])

    def dg(xs):
        # [[2 x_0, -2 x_1], [2 x_1, 2 x_0]] at each row
        a, b = 2.0 * xs[:, 0], 2.0 * xs[:, 1]
        return np.stack([a, -b, b, a], axis=1).reshape(-1, 2, 2)

    return _abs_normal_map("complexsq", 2, 2, g, dg, rows_match=True)


def abs_shift_map():
    # scalar f(x) = x + 0.5|x|, smooth part the identity
    return _abs_normal_map(
        "abs-shift", 1, 1, theta=0.5, beta_divergent=True, rows_match=True,
        inverse=lambda y: np.where(y >= 0, y / 1.5, y / 0.5))


def _linear_file(path):
    # the linear map of a whitespace matrix file, named by its identifier
    map_id = f"linear:{path}"
    try:
        with warnings.catch_warnings():
            # an empty file is refused below as an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            a = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ValueError(f"bad map identifier {map_id!r}: {exc}") from exc
    return linear_map(a, name=map_id)


# catalog head -> (the numbers of ":"-separated fields it takes, the
# constructor of those fields, its line in the listing)
_CATALOG = {
    "identity": ((0, 1), lambda *n: identity_map(*map(int, n)),
                 ("identity", "n -> n (default n=3)")),
    "linear": ((1,), _linear_file, ("linear:<matrix-file>",
                                    "n -> m from a whitespace matrix file")),
    "theta-a": ((2,), lambda n, c: theta_map("a", int(n), float(c)),
                ("theta-a:<n>:<c>", "n -> n, theta(t) = c*t")),
    "theta-b": ((1,), lambda n: theta_map("b", int(n)),
                ("theta-b:<n>", "n -> n, theta(t) = t")),
    "theta-c": ((1,), lambda n: theta_map("c", int(n)),
                ("theta-c:<n>", "n -> n, theta(t) = t - log(1+t)")),
    "exp1d": ((0,), exp1d_map, ("exp1d", "1 -> 1, exp")),
    "complexsq": ((0,), complexsq_map, ("complexsq", "2 -> 2, complex square")),
    "abs-shift": ((0,), abs_shift_map, ("abs-shift", "1 -> 1, x + 0.5|x|")),
}


def make_map(map_id):
    """Resolve a catalog identifier string, every field used, to a MapModel."""
    head, *fields = map_id.split(":")
    if head not in _CATALOG:
        raise ValueError(f"unknown map identifier {map_id!r}")
    counts, build, _ = _CATALOG[head]
    if len(fields) not in counts:
        raise ValueError(f"bad map identifier {map_id!r}: wrong field count")
    return build(*fields)


def catalog_ids():
    """Stable listing of catalog identifiers with dimensions."""
    return [line for _, _, line in _CATALOG.values()]
