"""Independent reference routines for the tests.

``jacobi_singular_values`` is a one-sided Jacobi SVD, written separately
from the LAPACK routine the package uses; one-sided Jacobi computes small
singular values to high relative accuracy (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992), so agreement with it is a real check.  The
loop references evaluate set operations one vertex at a time, and
``loop_validity_check`` runs the validity check's quotient path one trial
at a time, and ``loop_exact_validity`` its exact path.
``without_dir_deriv`` copies a model without its ``dir_deriv`` oracle, so
that ``validity_check`` takes difference quotients of the same values.
``without_kinks`` copies a model with its kinks unknown, so that
``mvt_check`` samples it on its uniform grid.
``exact_vertex_actions`` computes each vertex action <ystar, V v> in
rational arithmetic, with the magnitude sum that bounds its rounding.
``frank_wolfe_project`` projects onto a convex hull by away-step
Frank-Wolfe, an algorithm independent of the package's active-set method;
its duality gap gives a certified lower bound on the distance.
``dini_derivatives`` takes a scalar map's difference quotients one point
at a time, stepping t by repeated multiplication.
``inline_ball_points`` is the ball sampler the Clarke provider used before
the package had one ball transform, written out as it was; the package's
draws are checked against it to the bit.
``loop_build_set`` is the per-point set constructors the package used
before ``build_sets``, written out as they were; a stack must equal these
one point at a time, to the bit.  ``reference_check_point`` is the point
check they made, in its order: ``as_vector``, then the dimension, then the
domain box.
``reference_newton_element`` is the inverters' choice of Newton operator
as the package made it before its construction path was trimmed: the
co-norms of all ``build_set`` vertices, then the first largest.
``reference_newton_direction`` and ``reference_descent_directions`` are
the inverters' solve rules as the package wrote them before Newton and
Ekeland shared one: Newton's least-squares step for a co-norm of at most
1e-12, else a solve of a square T with least squares when it fails or
overflows; Ekeland's solve for a square vertex of co-norm above 1e-12,
else least squares.  A singleton set has no co-norm in either: Ekeland
takes Newton's singleton step.
``loop_beta_profile`` computes a sampled Hadamard profile one set at a
time: ``loop_build_set`` at each probe point in generator order, then
``set_conorm_bounds``; the batched profile must equal it to the bit.
``full_mesh_hull_bounds`` is the certified hull bound as the package took
it before it pruned its mesh: every point of the barycentric mesh, listed
one composition at a time, decomposed in chunks of ``_blocks``; the pruned
bound must equal it to the bit.  ``full_mesh_conorms`` gives the co-norm
at every mesh point.  ``loop_stack_bounds`` bounds a stack of sets one set
at a time: exactly, by the full mesh or by ``sampled_hull_bounds``, the
minimum over the vertices and a fixed-seed Dirichlet sample.
``theta_jacobian`` and ``complexsq_jacobian`` write the catalog's
derivatives out entry by entry.
``chain_suite_map`` builds the composed map of the chain suite as
``check chain`` and ``chain_rule_check`` build it.
``reference_format_record`` is a separate copy of the report serialiser;
the CLI's reports must equal it to the byte.
``reference_central_differences``, ``reference_ball_points`` and
``reference_project_to_hull`` are the stencil, ball transform and hull
projection as the package wrote them before their broadcast passes ran
down the columns of a tall block: every pass along the rows.  The
kernels must equal them to the bit, zero signs included.
``reference_catalog_map`` and ``reference_linear_map`` are the catalog
maps as the package wrote them before it derived their oracles from one
structure record: each family's ``deriv``, ``dir_deriv``,
``smooth_part`` and ``lip_part`` written out by hand, except a theta
map's ``lip_part`` at n = 1, which is 0 there: the map is the identity.
The derived oracles must equal them to the bit, zero signs and layouts
included.
"""

import copy
import functools
import json
import math
from fractions import Fraction

import numpy as np

from pjinv.indices import set_conorm_bounds
from pjinv.invert import (CORRECTOR_ITERS, ITERATE_NORM_LIMIT,
                          MIN_HOMOTOPY_STEP, InversionTrace, _misfit, _trial,
                          semismooth_newton)
from pjinv.linalg import (_corral, _off_affine, _row_dots, _row_norms,
                          as_matrix, as_vector, conorm, spectral_norm)
from pjinv.maps import (DomainError, MapModel, _blocks, _oracle_rows,
                        _uniform_ball, evaluate, evaluate_batch,
                        local_lipschitz_estimate, numeric_jacobian)
from pjinv.pseudojac import (MAX_REDRAWS, PseudoJacobianSet, build_set,
                             support_function)


def jacobi_singular_values(a, rel_tol=1e-13, max_sweeps=64):
    """Singular values in nonincreasing order by one-sided Jacobi rotations.

    Columns of (a transposed copy of) the matrix are orthogonalized by plane
    rotations until every off-diagonal inner product is below ``rel_tol``
    relative to the column norms; the singular values are the final column
    norms.  Raises RuntimeError when ``max_sweeps`` sweeps do not converge.
    """
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    w = a.copy() if m >= n else a.T.copy()
    k = w.shape[1]
    if k == 1:
        return np.array([np.linalg.norm(w[:, 0])])
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(k - 1):
            for q in range(p + 1, k):
                app = w[:, p] @ w[:, p]
                aqq = w[:, q] @ w[:, q]
                apq = w[:, p] @ w[:, q]
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= rel_tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                zeta = (aqq - app) / (2.0 * apq)
                # hypot keeps 1 + zeta^2 from overflowing for huge zeta
                t = 1.0 if zeta == 0.0 else \
                    np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
        if off <= rel_tol:
            break
    else:
        raise RuntimeError(f"Jacobi SVD did not converge in {max_sweeps} sweeps")
    sv = np.sqrt(np.einsum("ij,ij->j", w, w))
    return np.sort(sv)[::-1]


def frank_wolfe_project(p, vertices, gap_tol=1e-10, max_iter=50000):
    """Euclidean projection of a point onto the convex hull of vertices.

    Uses Frank-Wolfe with away steps (linearly convergent on polytopes).
    The duality gap certifies a lower bound sqrt(max(0, dist^2 - 2*gap))
    on the true distance; iteration stops once the current distance is
    within ``gap_tol`` of that certified bound, so the returned distance
    is accurate to ``gap_tol`` even for nearly degenerate hulls (where a
    raw duality-gap threshold certifies far less).
    Vertex-selection ties are broken by lowest index.

    Returns
    -------
    (ndarray, float)
        The projection point and its distance to ``p``.
    """
    p = as_vector(p)
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    k = v.shape[0]
    if v.shape[1] != p.size:
        raise ValueError("point and hull vertices have different dimensions")
    lam = np.zeros(k)
    lam[0] = 1.0
    x = v[0].copy()
    for _ in range(max_iter):
        g = x - p
        scores = v @ g
        s = int(np.argmin(scores))  # argmin returns the lowest tied index
        gap = g @ x - scores[s]
        dist2 = g @ g
        lb2 = dist2 - 2.0 * gap
        certified_lb = np.sqrt(lb2) if lb2 > 0.0 else 0.0
        if np.sqrt(dist2) - certified_lb <= gap_tol:
            break
        active = np.flatnonzero(lam > 0)
        a = int(active[np.argmax(scores[active])])
        if g @ x - scores[s] >= scores[a] - g @ x:
            d = v[s] - x
            gamma_max = 1.0
            step_kind = "fw"
        else:
            d = x - v[a]
            if lam[a] >= 1.0:
                d = v[s] - x
                gamma_max = 1.0
                step_kind = "fw"
            else:
                gamma_max = lam[a] / (1.0 - lam[a])
                step_kind = "away"
        dd = d @ d
        if dd <= 0.0:
            break
        gamma = min(max(-(g @ d) / dd, 0.0), gamma_max)
        if gamma <= 0.0:
            break
        if step_kind == "fw":
            lam *= 1.0 - gamma
            lam[s] += gamma
        else:
            lam *= 1.0 + gamma
            lam[a] -= gamma
        x = lam @ v
    return x, float(np.linalg.norm(x - p))


def jacobi_conorm(a):
    """Co-norm by the Jacobi oracle: zero for a wide matrix."""
    a = np.asarray(a, dtype=float)
    if a.shape[1] > a.shape[0]:
        return 0.0
    return float(jacobi_singular_values(a)[-1])


def loop_support_function(vertices, radius, ystar, v):
    """max over vertices of <ystar, V v>, plus radius * |ystar| * |v|."""
    best = max(float(ystar @ (vert @ v)) for vert in vertices)
    return best + radius * np.linalg.norm(ystar) * np.linalg.norm(v)


def exact_vertex_actions(vertices, ystar, v):
    """Each vertex action <ystar, V v> and its magnitude sum
    sum_ij |ystar_i| |V_ij| |v_j|, exactly as ``Fraction``s: one list of
    (action, magnitude) pairs per vertex."""
    ys = [Fraction(float(y)) for y in ystar]
    xs = [Fraction(float(x)) for x in v]
    out = []
    for vert in vertices:
        terms = [ys[i] * Fraction(float(vert[i, j])) * xs[j]
                 for i in range(len(ys)) for j in range(len(xs))]
        out.append((sum(terms), sum(abs(t) for t in terms)))
    return out


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
    quots, t = [], float(t0)
    for _ in range(k):
        quots.append((float(phi(x + t * v)) - base) / t)
        t *= rho
    return max(quots), min(quots)


def loop_validity_check(model, x, jset, trials=1000, tol=1e-3, rng=None,
                        t0=1e-3, rho=0.5, k=20):
    """validity_check one trial at a time: (pass rate, upper, lower failures).

    Each trial draws a unit ystar, then a unit v, evaluates the k Dini
    points one ``evaluate`` call each through ``dini_derivatives``, and
    tests the upper form (upper Dini <= sup + tol) and the lower form
    (lower Dini >= inf - tol) with one ``support_function`` call each.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(rng)
    passed = upper_failed = lower_failed = 0
    for _ in range(trials):
        ystar = _unit(rng, model.dim_out)
        v = _unit(rng, model.dim_in)
        phi = lambda z: float(ystar @ evaluate(model, z))
        upper, lower = dini_derivatives(phi, x, v, t0=t0, rho=rho, k=k)
        upper_ok = upper <= support_function(jset, ystar, v) + tol
        lower_ok = lower >= -support_function(jset, -ystar, v) - tol
        passed += upper_ok and lower_ok
        upper_failed += not upper_ok
        lower_failed += not lower_ok
    return passed / trials, upper_failed, lower_failed


def loop_exact_validity(model, x, jset, trials=1000, tol=1e-3, rng=None):
    """validity_check's exact path one trial at a time: (pass rate, values).

    Each trial draws a unit ystar, then a unit v, takes f'(x; v) from one
    one-row ``dir_deriv`` call and its dot with ystar, and tests that value
    against ``support_function`` (upper form) and -support_function of
    -ystar (lower form); values lists the trials' <ystar, f'(x; v)>.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(rng)
    passed, values = 0, []
    for _ in range(trials):
        ystar = _unit(rng, model.dim_out)
        v = _unit(rng, model.dim_in)
        value = float(ystar @ model.dir_deriv(x[None], v[None])[0])
        passed += (value <= support_function(jset, ystar, v) + tol
                   and value >= -support_function(jset, -ystar, v) - tol)
        values.append(value)
    return passed / trials, values


def without_dir_deriv(model):
    """A copy of model with the same value oracle and no ``dir_deriv``."""
    bare = copy.copy(model)
    bare.dir_deriv = None
    return bare


def without_kinks(model):
    """A copy of model with the same oracles and no declared ``kinks``."""
    bare = copy.copy(model)
    bare.kinks = None
    return bare


def _unit(rng, n):
    d = rng.standard_normal(n)
    nrm = np.linalg.norm(d)
    while nrm == 0.0:
        d = rng.standard_normal(n)
        nrm = np.linalg.norm(d)
    return d / nrm


def inline_ball_points(rng, center, radius, count):
    """count points uniform in B(center, radius), as sampled_clarke drew them.

    All count x n standard normals first, then all count uniforms.
    """
    d = rng.standard_normal((count, center.size))
    nrm = np.linalg.norm(d, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    radii = radius * rng.uniform(size=(count, 1)) ** (1.0 / center.size)
    return center + d / nrm * radii


def reference_check_point(model, x):
    """x as a vector: ValueError for a bad shape, a non-finite entry or a
    wrong dimension, DomainError outside the box, checked in that order."""
    x = as_vector(x)
    if x.size != model.dim_in:
        raise ValueError(f"{model.name}: expected dim {model.dim_in}, got {x.size}")
    if np.max(np.abs(x)) > model.domain_halfwidth:
        raise DomainError(f"{model.name}: point outside domain box")
    return x


def loop_build_set(model, x, spec, rng=None):
    """The provider's set at one point, as the per-point constructors built it.

    exact: the checked point, then ``deriv`` on that one row or a
    central-difference Jacobian; ball: a sampled Lipschitz estimate around
    the unchecked point; sum: the decomposition check, the checked point,
    then ``smooth_part`` and ``lip_part`` on that one row; clarke: spec.m
    ball points and their Jacobians, the non-finite ones redrawn together
    right away, at most MAX_REDRAWS times.
    """
    if spec.kind == "exact":
        x = reference_check_point(model, x)
        jac = model.deriv(x[None])[0] if model.deriv is not None \
            else numeric_jacobian(model, x)
        return PseudoJacobianSet([jac], 0.0)
    if spec.kind == "ball":
        lip = local_lipschitz_estimate(model, x, spec.lip_radius,
                                       samples=spec.lip_samples, rng=rng)
        return PseudoJacobianSet([np.zeros((model.dim_out, model.dim_in))], lip)
    if spec.kind == "sum":
        if model.smooth_part is None or model.lip_part is None:
            raise ValueError(f"{model.name}: sum provider needs smooth_part and lip_part")
        x = reference_check_point(model, x)
        radius = model.lip_part(x[None], spec.lip_radius)[0]
        return PseudoJacobianSet([model.smooth_part(x[None])[0]], float(radius))
    x = reference_check_point(model, x)
    rng = np.random.default_rng(rng)
    step = spec.delta * 1e-4

    def jacobians_at_new_points(count):
        zs = _uniform_ball(rng, x, spec.delta, count)
        if np.max(np.abs(zs)) > model.domain_halfwidth:
            raise DomainError(f"{model.name}: point outside domain box")
        return loop_central_differences(model, zs, step)

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


def reference_newton_element(model, x, spec, rng):
    """(vertex, co-norm) of the first vertex of largest co-norm in the
    provider set at x; a singleton's one vertex and None, with no SVD."""
    jset = build_set(model, x, spec, rng=rng)
    if len(jset.vertices) == 1:
        return jset.vertices[0], None
    conorms = conorm(jset.vertices)
    best = int(np.argmax(conorms))
    return jset.vertices[best], float(conorms[best])


def reference_newton_direction(t_op, r, t_conorm=None):
    """(direction, used_pseudoinverse) of a Newton step on T with the
    co-norm t_conorm (None for a singleton set)."""
    if t_conorm is not None and t_conorm <= 1e-12:
        return np.linalg.lstsq(t_op, -r, rcond=None)[0], True
    if t_op.shape[0] == t_op.shape[1]:
        try:
            d = np.linalg.solve(t_op, -r)
            if np.isfinite(d).all():
                return d, False
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(t_op, -r, rcond=None)[0], True


def loop_path_lift(model, provider, x0, y_target, steps=16, tol=1e-10,
                   rng=None):
    """``path_lift_invert`` one node at a time, as it ran before its
    predictions were planned in runs: each node's secant prediction is
    evaluated alone by ``_trial`` before its corrector runs."""
    x = as_vector(x0).copy()
    y_target = as_vector(y_target)
    rng = np.random.default_rng(rng)
    y0 = fx = evaluate(model, x)
    t = 0.0
    dt = 1.0 / max(int(steps), 1)
    base_dt = dt
    t_grid = [0.0]
    iterates = [x]
    residuals = [0.0]
    used_pinv = False
    newton_steps = 0
    status = "max_iter"
    for _ in range(100000):
        if t >= 1.0:
            status = "converged"
            break
        step = min(dt, 1.0 - t)
        target = (1.0 - (t + step)) * y0 + (t + step) * y_target
        start, f_start = x, fx
        if len(iterates) > 1:
            guess = x + (step / (t - t_grid[-2])) * (x - iterates[-2])
            if not np.array_equal(guess, x):
                f_guess, _, miss = _trial(model, guess, target)
                if miss < _misfit(fx, target)[1]:
                    start, f_start = guess, f_guess
        corr = semismooth_newton(model, provider, target, start, tol=tol,
                                 max_iter=CORRECTOR_ITERS, rng=rng,
                                 fx0=f_start)
        used_pinv = used_pinv or corr.used_pseudoinverse
        newton_steps += len(corr.iterates) - 1
        if corr.status == "converged":
            x, fx = corr.final_x, corr.final_fx
            t += step
            t_grid.append(t)
            iterates.append(x)
            residuals.append(corr.final_residual)
            dt = min(dt * 2.0, base_dt)
            if np.linalg.norm(x) > ITERATE_NORM_LIMIT:
                status = "diverged"
                break
        elif corr.status == "overflow":
            status = "overflow"
            break
        else:
            if (corr.status == "diverged"
                    or np.linalg.norm(corr.final_x) > ITERATE_NORM_LIMIT):
                status = "diverged"
                break
            dt *= 0.5
            if dt < MIN_HOMOTOPY_STEP:
                status = "step_underflow"
                break
    return InversionTrace("path", t_grid, iterates, residuals, status,
                          used_pseudoinverse=used_pinv,
                          final_residual=_misfit(fx, y_target)[1],
                          newton_steps=newton_steps)


def reference_descent_directions(vertices, r):
    """Ekeland's Newton candidates, one per vertex of a (k, m, n) stack; a
    singleton's is Newton's, without a co-norm."""
    if len(vertices) == 1:
        return [reference_newton_direction(vertices[0], r)[0]]
    square = vertices.shape[1] == vertices.shape[2]
    solvable = (conorm(vertices) > 1e-12) & square
    return [np.linalg.solve(v, -r) if ok
            else np.linalg.lstsq(v, -r, rcond=None)[0]
            for v, ok in zip(vertices, solvable)]


def loop_central_differences(model, zs, step):
    """Central-difference Jacobians at each row of zs, shape (k, m, n), from
    two oracle calls, each Jacobian stored column by column."""
    k, n = zs.shape
    stencil = np.eye(n) * step
    plus = (zs[:, None, :] + stencil).reshape(k * n, n)
    minus = (zs[:, None, :] - stencil).reshape(k * n, n)
    fp = _oracle_rows(model, plus)
    fm = _oracle_rows(model, minus)
    return (fp - fm).reshape(k, n, -1).transpose(0, 2, 1) / (2.0 * step)


def loop_beta_profile(model, spec, center, t_max, grid_n, count, rng=None):
    """The sampled profile's beta values before the running minimum.

    The center, then for each grid shell j its count points from one draw
    of default_rng(j) (direction and radial uniform, as the profile draws
    them); at each point in that order the set of ``loop_build_set``, from
    one generator, and the index its ``set_conorm_bounds`` gives.  Returns
    the grid and the minimum over each shell.
    """
    rng = np.random.default_rng(rng)
    grid = np.linspace(0.0, t_max, grid_n)
    n = center.size

    def index(x):
        bounds = set_conorm_bounds(loop_build_set(model, x, spec, rng=rng))
        return bounds.lower if bounds.certified else bounds.upper

    beta = [index(center)]
    for j in range(1, grid_n):
        g = np.random.default_rng(j).standard_normal((count, n + 2))
        radial = np.exp(-(g[:, n:n + 1] ** 2 + g[:, n + 1:] ** 2) / 2.0)
        unit = g[:, :n] / np.linalg.norm(g[:, :n], axis=1, keepdims=True)
        points = center + unit * (grid[j] * radial ** (1.0 / n))
        beta.append(min(index(x) for x in points))
    return grid, np.array(beta)


def _compositions(k, total):
    # every c in N^k with sum(c) = total, in lexicographic order
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(k - 1, total - first):
            yield (first,) + rest


@functools.lru_cache(maxsize=4)
def _full_mesh(k, subdivisions):
    return np.array(list(_compositions(k, subdivisions)),
                    dtype=float) / subdivisions


def _first_minimum(weights, vertices):
    # the first minimal co-norm over the combinations weights @ vertices,
    # in row order, with its combination, one _blocks chunk at a time
    best = np.inf
    for block in _blocks(len(weights), vertices.shape[1] * vertices.shape[2]):
        combos = np.einsum("pk,kij->pij", weights[block], vertices)
        values = conorm(combos)
        i = int(np.argmin(values))
        if values[i] < best:  # keeps the first minimum in row order
            best, member = values[i], combos[i].copy()
    return best, member


def full_mesh_conorms(vertices, net):
    """The co-norm at every point of the barycentric mesh of size net, in
    mesh order, all decomposed."""
    weights = _full_mesh(len(vertices), max(math.ceil(1.0 / net), 1))
    return conorm(np.einsum("pk,kij->pij", weights, vertices))


def full_mesh_hull_bounds(vertices, radius, net):
    """(lower, upper, certified, member) of co(vertices) + radius * ball
    for a hull whose mesh at size net is within the certification budget:
    the minimum co-norm over every mesh point, whose first minimal point is
    the member, less radius for the upper bound and less net * diam +
    radius for the lower one, each clipped at 0."""
    subdivisions = max(math.ceil(1.0 / net), 1)
    best, member = _first_minimum(_full_mesh(len(vertices), subdivisions),
                                  vertices)
    pairs = np.triu_indices(len(vertices), 1)
    diam = float(np.max(spectral_norm(vertices[pairs[0]] - vertices[pairs[1]])))
    return (max(best - net * diam - radius, 0.0), max(best - radius, 0.0),
            True, member)


def sampled_hull_bounds(vertices, radius):
    """(lower, upper, certified, member) of co(vertices) + radius * ball
    for a hull over the certification budget: 0 and not certified, and
    the minimum co-norm over the vertices and 4,096 Dirichlet(1, ..., 1)
    points of ``default_rng(0)``, in that order, whose first minimal point
    is the member, less radius and clipped at 0."""
    k = len(vertices)
    weights = np.vstack([np.eye(k), np.random.default_rng(0).dirichlet(
        np.ones(k), size=4096)])
    best, member = _first_minimum(weights, vertices)
    return 0.0, max(best - radius, 0.0), False, member


def loop_stack_bounds(vertices, radii, net):
    """(lower, upper, certified, members) of each set of a (P, k, m, n)
    stack, one set at a time.  A set whose vertices are all equal is exact,
    max(conorm(V) - radius, 0) at its vertex; a hull of at most 4 vertices
    whose mesh of ceil(1 / net) subdivisions has at most 200,000 points
    takes ``full_mesh_hull_bounds``, and any other ``sampled_hull_bounds``.
    """
    bounds = []
    for vs, radius in zip(vertices, radii):
        k = len(vs)
        subdivisions = max(math.ceil(min(1.0 / net, 200_000)), 1)
        if (vs == vs[0]).all():
            value = max(conorm(vs[0]) - radius, 0.0)
            bounds.append((value, value, True, vs[0]))
        elif k <= 4 and math.comb(subdivisions + k - 1, k - 1) <= 200_000:
            bounds.append(full_mesh_hull_bounds(vs, radius, net))
        else:
            bounds.append(sampled_hull_bounds(vs, radius))
    return tuple(map(np.array, zip(*bounds)))


def theta_jacobian(kind, x, c=None):
    """Jacobian of theta_map(kind, x.size, c) at x, entry by entry: ones on
    the diagonal and theta'(|x_{i+1}|) * sign(x_{i+1}) at (i, i + 1), with
    theta' = c, 1 or t / (1 + t) for kinds "a", "b" and "c"."""
    n = x.size
    jac = np.eye(n)
    for i in range(n - 1):
        t = abs(x[i + 1])
        slope = {"a": c, "b": 1.0, "c": t / (1.0 + t)}[kind]
        jac[i, i + 1] = slope * np.sign(x[i + 1])
    return jac


def complexsq_jacobian(x):
    """Jacobian of z -> z^2 on R^2 = C at x: [[2a, -2b], [2b, 2a]]."""
    a, b = x
    return np.array([[2.0 * a, -2.0 * b], [2.0 * b, 2.0 * a]])


def chain_suite_map(inner):
    """dist-to-point o inner, y0 = inner(0) + 1, as ``check chain`` and
    ``chain_rule_check`` build it."""
    y0 = inner(np.zeros(inner.dim_in)) + 1.0
    outer = MapModel("dist-to-point", inner.dim_out, 1,
                     lambda ys: _row_norms(ys - y0)[:, None])
    return MapModel(
        "chain", inner.dim_in, 1,
        lambda zs: evaluate_batch(outer, evaluate_batch(inner, zs)),
        rows_match=inner.rows_match)


def counting(model):
    """The model with its fn and fn_batch wrapped; returns the call logs:
    the number of fn calls and the row count of each fn_batch call."""
    calls = {"fn": 0, "fn_batch": []}
    fn, fn_batch = model.fn, model.fn_batch

    def one(x):
        calls["fn"] += 1
        return fn(x)

    def batch(xs):
        calls["fn_batch"].append(len(xs))
        return fn_batch(xs)

    model.fn, model.fn_batch = one, batch
    return calls


def _reference_round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _reference_round_floats(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_reference_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_reference_round_floats(float(v)) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _reference_round_floats(float(obj))
    return obj


def reference_format_record(record):
    """Sorted keys, 12 significant digits, a non-finite float as null."""
    return json.dumps(_reference_round_floats(record), sort_keys=True,
                      allow_nan=False) + "\n"


def reference_central_differences(model, zs, step):
    """Central-difference Jacobians at each row of zs, shape (k, m, n), in
    the blocks of ``_blocks``: each stencil one broadcast pass along the
    rows, z + eye(n) * h and z - eye(n) * h."""
    k, n = zs.shape
    cols = np.empty((k, n, model.dim_out))
    for block in _blocks(k, n * max(n, model.dim_out)):
        z = zs[block, None, :]
        h = step[block, None, None] if isinstance(step, np.ndarray) else step
        stencil = np.eye(n) * h
        fp = _oracle_rows(model, (z + stencil).reshape(-1, n))
        fm = _oracle_rows(model, (z - stencil).reshape(-1, n))
        np.divide((fp - fm).reshape(len(z), n, -1), 2.0 * h, out=cols[block])
    return cols.transpose(0, 2, 1)


def reference_ball_points(center, radius, normals, uniforms):
    """Points of B(center, radius) from normals (count, n) and uniforms
    (count, 1), every pass along the rows."""
    norms = np.add.reduce(normals * normals, axis=1, keepdims=True)
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    points, scale = normals / norms, uniforms ** (1.0 / normals.shape[1])
    scale *= radius
    points *= scale
    points += center
    return points


def reference_project_to_hull(p, vertices, gap_tol=1e-10, max_iter=50000):
    """Wolfe's minimum-norm point of co(vertices) - p, as
    ``linalg.project_to_hull`` with w = vertices - p one pass along the
    rows; returns (point, distance)."""
    p = as_vector(p)
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    w = v - p
    active, lam = [0], np.ones(1)
    x = w[0]
    xx = x @ x
    for _ in range(max_iter):
        g = _off_affine(w[active], x)
        gg = g @ g
        scores = w @ g
        j = int(np.argmin(scores))
        lb2 = gg - 2.0 * (gg - scores[j])
        if np.sqrt(xx) - (np.sqrt(lb2) if lb2 > 0.0 else 0.0) <= gap_tol:
            break
        if j in active or len(active) > p.size:
            break
        new_active, new_lam = _corral(w, active + [j], np.append(lam, 0.0))
        new_x = new_lam @ w[new_active]
        new_xx = new_x @ new_x
        if not new_xx < xx:
            break
        active, lam, x, xx = new_active, new_lam, new_x, new_xx
    point = lam @ v[active]
    return point, float(np.linalg.norm(point - p))


# The catalog as the package wrote it before its oracles were derived from
# one structure record: every family's oracles written out by hand.

_REFERENCE_THETA = {
    "a": (lambda t, c: c * t, lambda t, c: c),
    "b": (lambda t, c: t, lambda t, c: 1.0),
    "c": (lambda t, c: t - np.log1p(t), lambda t, c: t / (1.0 + t)),
}


def _reference_abs_along(s, w):
    return np.where(s == 0.0, np.abs(w), np.sign(s) * w)


def _reference_derivative_along(deriv):
    return lambda xs, vs: _row_dots(deriv(xs), vs[:, None, :])


def reference_theta_back_substitute(kind, n, y, c=None):
    theta, _ = _REFERENCE_THETA[kind]
    y = as_vector(y)
    x = np.empty_like(y)
    x[-1] = y[-1]
    for i in range(n - 2, -1, -1):
        x[i] = y[i] - theta(abs(x[i + 1]), c)
    return x


def _reference_theta_map(kind, n, c=None):
    if kind == "a":
        c = float(c)
    theta, dtheta = _REFERENCE_THETA[kind]

    def fn_batch(xs):
        ys = xs.copy(order="K")
        ys[:, :-1] += theta(np.abs(xs[:, 1:]), c)
        return ys

    eye = np.eye(n)

    def deriv(xs):
        jac = np.zeros((len(xs), n * n))
        jac[:, ::n + 1] = 1.0
        s = xs[:, 1:]
        jac[:, 1::n + 1] = dtheta(np.abs(s), c) * np.sign(s)
        return jac.reshape(-1, n, n)

    def dir_deriv(xs, vs):
        s, ds = xs[:, 1:], vs.copy(order="K")
        ds[:, :-1] += dtheta(np.abs(s), c) * _reference_abs_along(s, vs[:, 1:])
        return ds

    def smooth_part(xs):
        return np.broadcast_to(eye, (len(xs), n, n))

    if kind == "a":
        lip_part = lambda xs, r: np.full(len(xs), abs(c))
        divergent = abs(c) < 1.0
        name = f"theta-a:{n}:{c:g}"
    elif kind == "b":
        lip_part = lambda xs, r: np.ones(len(xs))
        divergent = False
        name = f"theta-b:{n}"
    else:
        def lip_part(xs, r):
            s = _row_norms(xs) + r
            return s / (1.0 + s)

        divergent = True
        name = f"theta-c:{n}"
    if n == 1:
        # no switch: the identity on R, whose sum set has radius 0
        lip_part = lambda xs, r: np.zeros(len(xs))

    return MapModel(
        name, n, n, fn_batch, deriv=deriv, dir_deriv=dir_deriv,
        smooth_part=smooth_part, lip_part=lip_part, beta_divergent=divergent,
        inverse=lambda y: reference_theta_back_substitute(kind, n, y, c),
        rows_match=True,
    )


def _reference_identity_map(n=3):
    eye = np.eye(n)
    deriv = lambda xs: np.broadcast_to(eye, (len(xs), n, n))
    return MapModel(
        "identity", n, n, lambda xs: xs.copy(order="K"),
        deriv=deriv, dir_deriv=_reference_derivative_along(deriv),
        smooth_part=deriv, lip_part=lambda xs, r: np.zeros(len(xs)),
        inverse=lambda y: y.copy(), beta_divergent=True, rows_match=True,
    )


def reference_linear_map(a, name=None):
    """The ``linear:`` map of the matrix a, as the package wrote it before
    its oracles were derived from a structure record."""
    a = as_matrix(a)
    m, n = a.shape
    inverse = None
    if m == n and abs(np.linalg.det(a)) > 0:
        ainv = np.linalg.inv(a)
        inverse = lambda y: ainv @ y
    deriv = lambda xs: np.broadcast_to(a, (len(xs), m, n))
    return MapModel(
        name or "linear", n, m, lambda xs: xs @ a.T,
        deriv=deriv, dir_deriv=_reference_derivative_along(deriv),
        smooth_part=deriv, lip_part=lambda xs, r: np.zeros(len(xs)),
        inverse=inverse, beta_divergent=inverse is not None,
    )


def _reference_exp1d_map():
    deriv = lambda xs: np.exp(xs).reshape(-1, 1, 1)
    return MapModel(
        "exp1d", 1, 1, np.exp, deriv=deriv,
        dir_deriv=_reference_derivative_along(deriv), smooth_part=deriv,
        lip_part=lambda xs, r: np.zeros(len(xs)), rows_match=True,
        domain_halfwidth=700.0,
    )


def _reference_complexsq_map():
    def fn_batch(xs):
        return np.column_stack([xs[:, 0] ** 2 - xs[:, 1] ** 2,
                                2.0 * xs[:, 0] * xs[:, 1]])

    def deriv(xs):
        a, b = 2.0 * xs[:, 0], 2.0 * xs[:, 1]
        return np.stack([a, -b, b, a], axis=1).reshape(-1, 2, 2)

    return MapModel("complexsq", 2, 2, fn_batch, deriv=deriv,
                    dir_deriv=_reference_derivative_along(deriv),
                    smooth_part=deriv,
                    lip_part=lambda xs, r: np.zeros(len(xs)), rows_match=True)


def _reference_abs_shift_map(c=0.5):
    def fn_batch(xs):
        return xs + c * np.abs(xs)

    def inverse(y):
        return np.where(y >= 0, y / (1.0 + c), y / (1.0 - c))

    eye = np.eye(1)
    return MapModel(
        "abs-shift", 1, 1, fn_batch,
        deriv=lambda xs: (1.0 + c * np.sign(xs)).reshape(-1, 1, 1),
        dir_deriv=lambda xs, vs: vs + c * _reference_abs_along(xs, vs),
        smooth_part=lambda xs: np.broadcast_to(eye, (len(xs), 1, 1)),
        lip_part=lambda xs, r: np.full(len(xs), c),
        inverse=inverse, beta_divergent=c < 1.0, rows_match=True,
    )


def reference_catalog_map(map_id):
    """The catalog map of map_id (any identifier but ``linear:``, which
    ``reference_linear_map`` builds from its matrix), as the package wrote
    it before its oracles were derived from a structure record."""
    head, *fields = map_id.split(":")
    if head == "identity":
        return _reference_identity_map(*map(int, fields))
    if head == "theta-a":
        return _reference_theta_map("a", int(fields[0]), float(fields[1]))
    if head in ("theta-b", "theta-c"):
        return _reference_theta_map(head[-1], int(fields[0]))
    return {"exp1d": _reference_exp1d_map,
            "complexsq": _reference_complexsq_map,
            "abs-shift": _reference_abs_shift_map}[head]()
