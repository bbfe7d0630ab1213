"""Numerical inversion: semismooth Newton, segment path lifting, descent.

Path lifting follows a codomain line segment with Newton correctors; a step
underflow or iterate blow-up is recorded as *evidence* (not proof) that the
limiting path-lifting condition fails for the map.

Every inverter evaluates f once per point it visits: the value at an
accepted trial point is the next iterate's value.  ``semismooth_newton``
takes f(x0) as ``fx0`` when the caller has it and leaves the value at its
last iterate on the trace as ``final_fx``, so path lifting hands each
converged corrector's value to the next corrector.

A Newton step makes one ``build_set`` call and, unless the set is a
singleton, one ``conorm`` call: one SVD call for all its vertices.  Inputs
are checked where they enter: the targets and start points by the public
inverters, each point by ``evaluate`` and ``build_set``, the vertices by
``conorm``.  The steps between them check nothing again and copy no
iterate, since no array is changed in place.
"""

import math

import numpy as np

from .linalg import as_vector, conorm, dist_to_hull
from .maps import _pair_norms, _unit_rows, evaluate
from .pseudojac import build_set

__all__ = [
    "InversionTrace",
    "semismooth_newton",
    "path_lift_invert",
    "ekeland_descent",
    "inverse_lipschitz_probe",
]

ITERATE_NORM_LIMIT = 1e8
MIN_HOMOTOPY_STEP = 1e-12
ARMIJO_FACTOR = 0.5
ARMIJO_DECREASE = 1e-4
MAX_HALVINGS = 40
CORRECTOR_ITERS = 50


class InversionTrace:
    """Record of one inversion run.

    status is one of "converged", "diverged", "step_underflow", "max_iter",
    "stationary" (descent stalled at a lambda-stationary point, reported
    with the dual witness distance) or "overflow" (the residual norm at the
    start point overflows, recorded as inf; path lifting stops with it when
    a corrector does, keeping the path lifted so far).

    final_fx is f at the last iterate when the run kept it (Newton runs
    do), else None; it is not part of the record.
    """

    def __init__(self, method, t_grid, iterates, residuals, status,
                 used_pseudoinverse=False, stationary_distance=None,
                 final_fx=None):
        if len(iterates) != len(residuals):
            raise ValueError("iterates and residuals must have equal length")
        self.method = method
        self.t_grid = list(t_grid)
        self.iterates = [np.asarray(z, dtype=float) for z in iterates]
        self.residuals = [float(r) for r in residuals]
        self.status = status
        self.used_pseudoinverse = bool(used_pseudoinverse)
        self.stationary_distance = stationary_distance
        self.final_fx = final_fx

    @property
    def final_x(self):
        return self.iterates[-1]

    @property
    def final_residual(self):
        return self.residuals[-1]

    def to_record(self):
        record = {
            "method": self.method,
            "status": self.status,
            "iterations": len(self.iterates) - 1,
            "final_x": [float(v) for v in self.final_x],
            "final_residual": self.final_residual,
            "t_grid": [float(t) for t in self.t_grid],
            "residuals": self.residuals,
            "used_pseudoinverse": self.used_pseudoinverse,
        }
        if self.method == "ekeland":
            # None when the descent never stalled
            record["stationary_distance"] = self.stationary_distance
        return record


def _norm(v):
    # np.linalg.norm of a 1-d float array, to the bit: it takes the square
    # root of v.dot(v) too, and warns as it does when that overflows
    return math.sqrt(v.dot(v))


def _newton_element(model, x, provider, rng):
    """(T, its co-norm) for the best-conditioned vertex T of the provider
    set at x; the co-norm is None for a singleton set.

    One ``build_set`` call, and one ``conorm`` call (one SVD call for all
    vertices) unless the set is a singleton.  Both check their inputs, so
    nothing is checked here.
    """
    vertices = build_set(model, x, provider, rng=rng).vertices
    if len(vertices) == 1:
        # a singleton is trivially the max-conorm vertex; skip the SVD and
        # let the solve itself detect (near-)singularity
        return vertices[0], None
    conorms = conorm(vertices)
    best = conorms.argmax()  # ties go to the first vertex
    return vertices[best], float(conorms[best])


def _newton_direction(t_op, r):
    """Solve T d = -r, falling back to least squares when T is unreliable.

    Returns (direction, used_pseudoinverse).
    """
    if t_op.shape[0] == t_op.shape[1]:
        try:
            d = np.linalg.solve(t_op, -r)
            if np.isfinite(d).all():
                return d, False
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(t_op, -r, rcond=None)[0], True


@np.errstate(over="ignore", invalid="ignore")
def _misfit(fx, y):
    """(f(x) - y, its norm); the norm is inf where it overflows, with no
    overflow warning."""
    r = fx - y
    return r, _norm(r)


def _trial(model, x, y):
    """(f(x), f(x) - y, its norm) at a trial point; the norm is inf where
    the point cannot be evaluated (ValueError) or the norm overflows."""
    try:
        fx = evaluate(model, x)
    except ValueError:
        return None, None, np.inf
    return (fx, *_misfit(fx, y))


def semismooth_newton(model, provider, y, x0, tol=1e-10, max_iter=100, rng=None,
                      fx0=None):
    """Damped Newton iteration on the residual ||f(x) - y||.

    The Newton operator is the provider-set vertex with maximal co-norm;
    when every vertex is near-singular a least-squares pseudo-inverse step
    is taken instead and flagged in the trace.  When the initial residual
    norm is not finite in floating point the run stops at once with status
    "overflow"; a trial point whose residual is not finite is rejected.

    fx0 is f(x0) when the caller already has it; it is evaluated
    otherwise.  f is evaluated once per trial point and no more: an
    accepted trial's value is the next iterate's, and the value at the
    last iterate is left on the trace as ``final_fx``.
    """
    y = as_vector(y)
    # the one copy: every later iterate is a new array that nothing mutates
    x = as_vector(x0).copy()
    rng = np.random.default_rng(rng)
    fx = evaluate(model, x) if fx0 is None else fx0
    r, residual = _misfit(fx, y)
    iterates, residuals = [x], [residual]
    if not math.isfinite(residual):
        return InversionTrace("newton", [1.0], iterates, residuals, "overflow",
                              final_fx=fx)
    used_pinv = False
    status = "max_iter"
    for _ in range(max_iter):
        if residual <= tol:
            status = "converged"
            break
        if _norm(x) > ITERATE_NORM_LIMIT:
            status = "diverged"
            break
        t_op, t_conorm = _newton_element(model, x, provider, rng)
        if t_conorm is not None and t_conorm <= 1e-12:
            d = np.linalg.lstsq(t_op, -r, rcond=None)[0]
            used_pinv = True
        else:
            d, pinv = _newton_direction(t_op, r)
            used_pinv = used_pinv or pinv
        s = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            trial_x = x + s * d
            trial_fx, trial_r, trial = _trial(model, trial_x, y)
            # residual is finite, so an inf or NaN trial fails this test
            if trial <= (1.0 - ARMIJO_DECREASE * s) * residual:
                accepted = True
                break
            s *= ARMIJO_FACTOR
        if not accepted:
            status = "step_underflow"
            break
        x, fx, r, residual = trial_x, trial_fx, trial_r, trial
        iterates.append(x)
        residuals.append(residual)
    else:
        if residual <= tol:
            status = "converged"
    return InversionTrace("newton", [1.0] * len(iterates), iterates, residuals,
                          status, used_pseudoinverse=used_pinv, final_fx=fx)


def path_lift_invert(model, provider, x0, y_target, steps=16, tol=1e-10,
                     rng=None):
    """Lift the codomain segment from f(x0) to y_target through f.

    Newton correctors of at most CORRECTOR_ITERS steps solve f(x) = p(t) on
    an adaptive grid of [0, 1] with step halving on corrector failure; a
    step below MIN_HOMOTOPY_STEP or an iterate above ITERATE_NORM_LIMIT
    terminates with the matching status.
    A corrector "overflow" ends the run with that status: the residual
    norm at the current point then overflows whatever the step.
    Each corrector starts from the value of f that the previous converged
    one ended with, so f is evaluated once per point.  The trace flags a
    pseudo-inverse step when any corrector took one, converged or not.
    """
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
    status = "max_iter"
    for _ in range(100000):
        if t >= 1.0:
            status = "converged"
            break
        step = min(dt, 1.0 - t)
        target = (1.0 - (t + step)) * y0 + (t + step) * y_target
        corr = semismooth_newton(model, provider, target, x, tol=tol,
                                 max_iter=CORRECTOR_ITERS, rng=rng, fx0=fx)
        used_pinv = used_pinv or corr.used_pseudoinverse
        if corr.status == "converged":
            x, fx = corr.final_x, corr.final_fx
            t += step
            t_grid.append(t)
            iterates.append(x)
            residuals.append(corr.final_residual)
            dt = min(dt * 2.0, base_dt)
            if _norm(x) > ITERATE_NORM_LIMIT:
                status = "diverged"
                break
        elif corr.status == "overflow":
            status = "overflow"
            break
        else:
            if corr.status == "diverged" or _norm(corr.final_x) > ITERATE_NORM_LIMIT:
                status = "diverged"
                break
            dt *= 0.5
            if dt < MIN_HOMOTOPY_STEP:
                status = "step_underflow"
                break
    return InversionTrace("path", t_grid, iterates, residuals, status,
                          used_pseudoinverse=used_pinv)


def ekeland_descent(model, provider, y, x0, lam=1e-3, eps=1e-3, tol=1e-8,
                    max_iter=500, rng=None):
    """Descent on phi(x) = ||f(x) - y|| with perturbed sufficient decrease.

    Every accepted move satisfies phi(new) < phi(x) - lam * ||new - x||.
    Candidate directions are Newton directions from each provider vertex
    followed by seeded random probes on stall.  When no candidate moves and
    the dual set {T* y_unit} + (radius + lam) * ball comes within eps of
    the origin, the run stops at a lambda-stationary point.  When the
    initial residual norm is not finite in floating point the run stops at
    once with status "overflow"; a trial point whose residual is not finite
    is rejected.  No comparison sees a NaN and no overflow warning is
    raised.
    """
    if not (lam > 0 and eps > 0):
        raise ValueError("require lam > 0 and eps > 0")
    y = as_vector(y)
    x = as_vector(x0).copy()
    rng = np.random.default_rng(rng)
    r, phi = _misfit(evaluate(model, x), y)
    iterates, residuals = [x], [phi]
    if not math.isfinite(phi):
        return InversionTrace("ekeland", [1.0], iterates, residuals, "overflow")
    status = "max_iter"
    stationary_distance = None
    for _ in range(max_iter):
        if phi <= tol:
            status = "converged"
            break
        jset = build_set(model, x, provider, rng=rng)
        moved = False
        square = jset.shape[0] == jset.shape[1]
        solvable = (conorm(jset.vertices) > 1e-12) & square
        candidates = [np.linalg.solve(v, -r) if ok
                      else np.linalg.lstsq(v, -r, rcond=None)[0]
                      for v, ok in zip(jset.vertices, solvable)]
        probes = rng.standard_normal((2 * model.dim_in, model.dim_in))
        candidates.extend(_unit_rows(probes) * max(phi, tol))
        for d in candidates:
            s = 1.0
            for _ in range(MAX_HALVINGS):
                trial_x = x + s * d
                _, trial_r, trial = _trial(model, trial_x, y)
                with np.errstate(over="ignore", invalid="ignore"):
                    step = _norm(trial_x - x)
                # phi is finite and trial, step are never NaN
                if trial < phi - lam * step:
                    x, r, phi = trial_x, trial_r, trial
                    moved = True
                    break
                s *= ARMIJO_FACTOR
            if moved:
                break
        if moved:
            iterates.append(x)
            residuals.append(phi)
            continue
        # stalled: test lambda-stationarity of the dual set
        ystar = r / phi
        stationary_distance = dist_to_hull(
            np.zeros(model.dim_in), ystar @ jset.vertices,
            jset.radius * _norm(ystar) + lam)
        if stationary_distance <= eps:
            status = "stationary"
        break
    else:
        if phi <= tol:
            status = "converged"
    return InversionTrace("ekeland", [1.0] * len(iterates), iterates, residuals,
                          status, stationary_distance=stationary_distance)


def inverse_lipschitz_probe(model, region_center, region_radius, pairs=1000,
                            rng=None):
    """Sampled lower estimate of the inverse Lipschitz constant.

    Max over pairs in B(center, radius) of ||x1 - x2|| / ||f(x1) - f(x2)||;
    pairs with coincident images are skipped.  Pairs are drawn and
    evaluated in blocks, one ``evaluate_batch`` call each.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    center = as_vector(region_center)
    rng = np.random.default_rng(rng)
    best = -np.inf
    for dx, df in _pair_norms(model, center, region_radius, pairs, rng):
        apart = df >= 1e-14
        best = max(best, np.max(dx[apart] / df[apart], initial=-np.inf))
    if best == -np.inf:
        raise ValueError("all sampled pairs had coincident images")
    return best
