"""Map catalog, evaluation, numeric differentiation and Lipschitz estimation.

Catalog identifiers: "identity", "linear:<matrix-file>", "theta-a:<n>:<c>",
"theta-b:<n>", "theta-c:<n>", "exp1d", "complexsq", "abs-shift".

``evaluate`` takes one point; ``evaluate_batch`` takes a (k, dim_in) array
of points, makes one ``fn_batch`` call (or, for a model without one, one
``fn`` call per row) and applies ``evaluate``'s checks to every row.
Batched kernels keep each working array under ``MAX_BATCH_ENTRIES`` float
entries and process larger jobs in blocks.
"""

import numpy as np

from .linalg import as_matrix, as_vector, conorm

__all__ = [
    "MapModel",
    "evaluate",
    "evaluate_batch",
    "numeric_jacobian",
    "local_lipschitz_estimate",
    "dini_derivatives",
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
    fn : callable
        Deterministic evaluation oracle, 1-d array -> 1-d array.
    fn_batch : callable, optional
        Vectorized oracle, (k, dim_in) array -> (k, dim_out) array, row i
        equal to fn of row i.  Purely a fast path for sampling loops.
    deriv : callable, optional
        Full derivative oracle x -> (m, n) array, valid wherever the map is
        differentiable (almost everywhere for the catalog maps).
    smooth_part : callable, optional
        Derivative oracle of the smooth summand g in a decomposition
        f = g + h.
    lip_part : callable, optional
        (x, r) -> upper bound on the local Lipschitz constant of h on B(x, r).
    inverse : callable, optional
        Exact inverse oracle y -> x (closed form; used as a test oracle).
    analytic_beta : callable, optional
        Certified lower bound t -> inf of the regularity index on the ball
        of radius t around the origin.
    beta_divergent : bool
        Whether the analytic profile has a divergent improper integral.
    usc : bool
        Declares the associated pseudo-Jacobian mapping upper semicontinuous.
    """

    def __init__(self, name, dim_in, dim_out, fn, fn_batch=None, deriv=None,
                 smooth_part=None, lip_part=None, inverse=None,
                 analytic_beta=None, beta_divergent=False, usc=True,
                 domain_halfwidth=DEFAULT_DOMAIN_HALFWIDTH):
        self.name = name
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self.fn = fn
        self.fn_batch = fn_batch
        self.deriv = deriv
        self.smooth_part = smooth_part
        self.lip_part = lip_part
        self.inverse = inverse
        self.analytic_beta = analytic_beta
        self.beta_divergent = beta_divergent
        self.usc = bool(usc)
        self.domain_halfwidth = float(domain_halfwidth)

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"MapModel({self.name!r}, {self.dim_in}->{self.dim_out})"


def _check_point(model, x):
    """x as a vector, checked against the model before any oracle sees it.

    Raises ValueError for a wrong dimension or a non-finite entry and
    DomainError for a point outside the domain box.
    """
    x = as_vector(x)
    if x.size != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, got {x.size}")
    # the method form skips np.max's dispatch: this runs once per set built
    if np.abs(x).max() > model.domain_halfwidth:
        raise DomainError(f"{model.name}: point outside domain box")
    return x


def evaluate(model, x):
    """Evaluate f(x), enforcing dimensions and the domain box."""
    x = _check_point(model, x)
    y = as_vector(model.fn(x))
    if y.size != model.dim_out:
        raise ValueError(f"{model.name}: oracle returned dim {y.size}")
    return y


def evaluate_batch(model, xs):
    """Evaluate f at each row of a (k, dim_in) array; returns (k, dim_out).

    Every row gets ``evaluate``'s checks, and the error raised is the one
    that evaluating the rows in order would raise first: ValueError for a
    wrong dimension or a non-finite input or output, DomainError for a
    point outside the domain box.  Only the rows before the first bad input
    reach the oracle.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, "
                         f"got shape {xs.shape}")
    bad = ~np.all(np.abs(xs) <= model.domain_halfwidth, axis=1)
    stop = int(np.argmax(bad)) if bad.any() else len(xs)
    ys = _oracle_rows(model, xs[:stop])
    if ys.shape != (stop, model.dim_out):
        raise ValueError(f"{model.name}: oracle returned shape {ys.shape}")
    if not np.all(np.isfinite(ys)) or not np.all(np.isfinite(xs[stop:stop + 1])):
        raise ValueError("vector entries must be finite")
    if stop < len(xs):
        raise DomainError(f"{model.name}: point outside domain box")
    return ys


def _oracle_rows(model, zs):
    # f at each row of zs: one fn_batch call, or fn row by row without one
    if len(zs) == 0:
        return np.empty((0, model.dim_out))
    if model.fn_batch is not None:
        return np.asarray(model.fn_batch(zs), dtype=float)
    return np.array([np.asarray(model.fn(z), dtype=float).reshape(-1)
                     for z in zs])


def numeric_jacobian(model, x, step=None):
    """Central-difference Jacobian, entrywise error O(step^2) for C^2 maps.

    Only meaningful where the map is differentiable; the catalog maps are
    piecewise smooth, so randomly perturbed probe points are differentiable
    almost surely.
    """
    x = _check_point(model, x)
    if step is None:
        step = 1e-6 * (1.0 + np.linalg.norm(x))
    jac = _central_differences(model, x[None, :], step)[0]
    if not np.all(np.isfinite(jac)):
        raise FloatingPointError(f"{model.name}: non-finite finite-difference Jacobian")
    return jac


def _central_differences(model, zs, step):
    """Central-difference Jacobians at each row of zs, shape (k, m, n).

    All 2 * k * n stencil points go to the oracle in two batch calls; a
    model without ``fn_batch`` is evaluated row by row through ``fn``.
    Points are not validated, and non-finite entries are passed through.
    """
    k, n = zs.shape
    stencil = np.eye(n) * step
    plus = (zs[:, None, :] + stencil).reshape(k * n, n)
    minus = (zs[:, None, :] - stencil).reshape(k * n, n)
    fp = _oracle_rows(model, plus)
    fm = _oracle_rows(model, minus)
    return (fp - fm).reshape(k, n, -1).transpose(0, 2, 1) / (2.0 * step)


def local_lipschitz_estimate(model, x, r, samples=1000, rng=None):
    """Sampled lower estimate of the local Lipschitz constant on B(x, r).

    Pairs are drawn uniformly in the ball; in addition, axis-aligned
    near-coincident pairs (gap 1e-7) are probed to catch kink directions.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    best = 0.0
    for _ in range(samples):
        u = x + _uniform_ball(rng, x.size) * r
        v = x + _uniform_ball(rng, x.size) * r
        du = np.linalg.norm(u - v)
        if du < 1e-12:
            continue
        q = np.linalg.norm(evaluate(model, u) - evaluate(model, v)) / du
        best = max(best, q)
    gap = 1e-7
    for _ in range(max(samples // 10, 2)):
        u = x + _uniform_ball(rng, x.size) * r
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = gap
            q = np.linalg.norm(evaluate(model, u + e) - evaluate(model, u)) / gap
            best = max(best, q)
    return best


def dini_derivatives(phi, x, v, t0=1e-2, rho=0.5, k=20):
    """Upper and lower right-hand Dini derivative estimates of a scalar map.

    Difference quotients (phi(x + t v) - phi(x)) / t are evaluated on the
    geometric grid t0 * rho^j, j = 0..k-1; the max estimates the limsup and
    the min the liminf.
    """
    if not (t0 > 0 and 0 < rho < 1 and k >= 2):
        raise ValueError("require t0 > 0, rho in (0,1), k >= 2")
    x = as_vector(x)
    v = as_vector(v)
    base = float(phi(x))
    quots = []
    t = t0
    for _ in range(k):
        quots.append((float(phi(x + t * v)) - base) / t)
        t *= rho
    return max(quots), min(quots)


def _uniform_ball(rng, n):
    """One point drawn uniformly in the closed unit ball of R^n.

    Draws n standard normals, then one uniform, from rng.
    """
    d = rng.standard_normal(n)
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        d[0] = 1.0
        nrm = 1.0
    return d / nrm * rng.uniform() ** (1.0 / n)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_THETA = {
    "a": (lambda t, c: c * t, lambda t, c: c),
    "b": (lambda t, c: t, lambda t, c: 1.0),
    "c": (lambda t, c: t - np.log1p(t), lambda t, c: t / (1.0 + t)),
}


def theta_back_substitute(kind, n, y, c=None):
    """Exact inverse of a theta map by back-substitution.

    x_n = y_n and x_i = y_i - theta(|x_{i+1}|) going backwards; the last
    coordinate passes through unperturbed by the truncation convention.
    """
    theta, _ = _THETA[kind]
    y = as_vector(y)
    x = np.empty_like(y)
    x[-1] = y[-1]
    for i in range(n - 2, -1, -1):
        x[i] = y[i] - theta(abs(x[i + 1]), c)
    return x


def theta_map(kind, n, c=None):
    """Truncated coordinate-shift perturbation of the identity on R^n.

    (f(x))_i = x_i + theta(|x_{i+1}|) for i < n and (f(x))_n = x_n, with
    theta(t) = c*t (kind "a"), t (kind "b") or t - log(1+t) (kind "c").
    """
    if kind not in _THETA:
        raise ValueError(f"unknown theta kind {kind!r}")
    if kind == "a":
        if c is None or not np.isfinite(c):
            raise ValueError("theta-a requires a finite coefficient c")
        c = float(c)
    theta, dtheta = _THETA[kind]

    def fn(x):
        y = x.copy()
        y[:-1] += theta(np.abs(x[1:]), c)
        return y

    def fn_batch(xs):
        ys = xs.copy()
        ys[:, :-1] += theta(np.abs(xs[:, 1:]), c)
        return ys

    def deriv(x):
        jac = np.eye(n)
        s = x[1:]
        jac[np.arange(n - 1), np.arange(1, n)] = dtheta(np.abs(s), c) * np.sign(s)
        return jac

    def smooth_part(x):
        return np.eye(n)

    if kind == "a":
        lip_part = lambda x, r: abs(c)
        analytic_beta = lambda t: max(1.0 - abs(c), 0.0)
        divergent = abs(c) < 1.0
        name = f"theta-a:{n}:{c:g}"
    elif kind == "b":
        lip_part = lambda x, r: 1.0
        analytic_beta = lambda t: 0.0
        divergent = False
        name = f"theta-b:{n}"
    else:
        # h is s/(1+s)-Lipschitz on the ball of radius s; bound at B(x, r)
        # via s = ||x|| + r since theta' is increasing.
        def lip_part(x, r):
            s = np.linalg.norm(x) + r
            return s / (1.0 + s)

        analytic_beta = lambda t: 1.0 / (1.0 + t)
        divergent = True
        name = f"theta-c:{n}"

    return MapModel(
        name, n, n, fn, fn_batch=fn_batch, deriv=deriv, smooth_part=smooth_part,
        lip_part=lip_part,
        inverse=lambda y: theta_back_substitute(kind, n, y, c),
        analytic_beta=analytic_beta, beta_divergent=divergent,
    )


def identity_map(n=3):
    eye = np.eye(n)
    return MapModel(
        "identity", n, n, lambda x: x.copy(), fn_batch=lambda xs: xs.copy(),
        deriv=lambda x: eye.copy(), smooth_part=lambda x: eye.copy(),
        lip_part=lambda x, r: 0.0, inverse=lambda y: y.copy(),
        analytic_beta=lambda t: 1.0, beta_divergent=True,
    )


def linear_map(a, name=None):
    a = as_matrix(a)
    m, n = a.shape
    inverse = None
    if m == n and abs(np.linalg.det(a)) > 0:
        ainv = np.linalg.inv(a)
        inverse = lambda y: ainv @ y
        sigma_min = conorm(a)
    else:
        sigma_min = 0.0
    return MapModel(
        name or "linear", n, m, lambda x: a @ x, fn_batch=lambda xs: xs @ a.T,
        deriv=lambda x: a.copy(), smooth_part=lambda x: a.copy(),
        lip_part=lambda x, r: 0.0, inverse=inverse,
        analytic_beta=lambda t: sigma_min, beta_divergent=sigma_min > 0,
    )


def exp1d_map():
    return MapModel(
        "exp1d", 1, 1, lambda x: np.exp(x), fn_batch=np.exp,
        deriv=lambda x: np.exp(x).reshape(1, 1),
        smooth_part=lambda x: np.exp(x).reshape(1, 1),
        lip_part=lambda x, r: 0.0,
        domain_halfwidth=700.0,
    )


def complexsq_map():
    def fn(x):
        return np.array([x[0] ** 2 - x[1] ** 2, 2.0 * x[0] * x[1]])

    def fn_batch(xs):
        return np.column_stack([xs[:, 0] ** 2 - xs[:, 1] ** 2,
                                2.0 * xs[:, 0] * xs[:, 1]])

    def deriv(x):
        return np.array([[2.0 * x[0], -2.0 * x[1]], [2.0 * x[1], 2.0 * x[0]]])

    return MapModel("complexsq", 2, 2, fn, fn_batch=fn_batch, deriv=deriv,
                    smooth_part=deriv, lip_part=lambda x, r: 0.0)


def abs_shift_map(c=0.5):
    # scalar f(x) = x + c*|x|, smooth part the identity
    def fn(x):
        return x + c * np.abs(x)

    def inverse(y):
        return np.where(y >= 0, y / (1.0 + c), y / (1.0 - c))

    return MapModel(
        "abs-shift", 1, 1, fn, fn_batch=fn,
        deriv=lambda x: np.array([[1.0 + c * np.sign(x[0])]]),
        smooth_part=lambda x: np.eye(1),
        lip_part=lambda x, r: c,
        inverse=inverse,
        analytic_beta=lambda t: 1.0 - c, beta_divergent=c < 1.0,
    )


def make_map(map_id):
    """Resolve a catalog identifier string to a MapModel."""
    parts = map_id.split(":")
    head = parts[0]
    try:
        if head == "identity":
            return identity_map(int(parts[1])) if len(parts) > 1 else identity_map()
        if head == "linear":
            if len(parts) != 2:
                raise ValueError("linear:<matrix-file>")
            return linear_map(np.loadtxt(parts[1], ndmin=2), name=map_id)
        if head == "theta-a":
            return theta_map("a", int(parts[1]), float(parts[2]))
        if head == "theta-b":
            return theta_map("b", int(parts[1]))
        if head == "theta-c":
            return theta_map("c", int(parts[1]))
        if head == "exp1d":
            return exp1d_map()
        if head == "complexsq":
            return complexsq_map()
        if head == "abs-shift":
            return abs_shift_map()
    except (IndexError, OSError) as exc:
        raise ValueError(f"bad map identifier {map_id!r}: {exc}") from exc
    raise ValueError(f"unknown map identifier {map_id!r}")


def catalog_ids():
    """Stable listing of catalog identifiers with dimensions."""
    return [
        ("identity", "n -> n (default n=3)"),
        ("linear:<matrix-file>", "n -> m from a whitespace matrix file"),
        ("theta-a:<n>:<c>", "n -> n, theta(t) = c*t"),
        ("theta-b:<n>", "n -> n, theta(t) = t"),
        ("theta-c:<n>", "n -> n, theta(t) = t - log(1+t)"),
        ("exp1d", "1 -> 1, exp"),
        ("complexsq", "2 -> 2, complex square"),
        ("abs-shift", "1 -> 1, x + 0.5|x|"),
    ]
