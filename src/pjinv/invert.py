"""Numerical inversion: semismooth Newton, segment path lifting, descent.

Path lifting follows a codomain line segment with Newton correctors; a step
underflow or iterate blow-up is recorded as *evidence* (not proof) that the
limiting path-lifting condition fails for the map.
"""

import numpy as np

from .linalg import as_vector, conorm, dist_to_hull
from .maps import _uniform_ball, evaluate
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


class InversionTrace:
    """Record of one inversion run.

    status is one of "converged", "diverged", "step_underflow", "max_iter",
    "stationary" (descent stalled at a lambda-stationary point, reported
    with the dual witness distance) or "overflow" (Newton or descent could
    not start: the residual norm at x0 overflows, and is recorded as inf).
    """

    def __init__(self, method, t_grid, iterates, residuals, status,
                 used_pseudoinverse=False, stationary_distance=None):
        if len(iterates) != len(residuals):
            raise ValueError("iterates and residuals must have equal length")
        self.method = method
        self.t_grid = list(t_grid)
        self.iterates = [np.asarray(z, dtype=float) for z in iterates]
        self.residuals = [float(r) for r in residuals]
        self.status = status
        self.used_pseudoinverse = bool(used_pseudoinverse)
        self.stationary_distance = stationary_distance

    @property
    def final_x(self):
        return self.iterates[-1]

    @property
    def final_residual(self):
        return self.residuals[-1]

    def to_record(self):
        return {
            "method": self.method,
            "status": self.status,
            "iterations": len(self.iterates) - 1,
            "final_x": [float(v) for v in self.final_x],
            "final_residual": self.final_residual,
            "t_grid": [float(t) for t in self.t_grid],
            "residuals": self.residuals,
            "used_pseudoinverse": self.used_pseudoinverse,
        }


def _newton_element(model, x, provider, rng):
    """Best-conditioned vertex of the provider set, or a pseudo-inverse flag."""
    jset = build_set(model, x, provider, rng=rng)
    if len(jset.vertices) == 1:
        # a singleton is trivially the max-conorm vertex; skip the SVD and
        # let the solve itself detect (near-)singularity
        return jset.vertices[0], None, jset
    conorms = conorm(jset.vertices)
    best = int(np.argmax(conorms))  # ties go to the first vertex
    return jset.vertices[best], float(conorms[best]), jset


def _newton_direction(t_op, r):
    """Solve T d = -r, falling back to least squares when T is unreliable.

    Returns (direction, used_pseudoinverse).
    """
    if t_op.shape[0] == t_op.shape[1]:
        try:
            d = np.linalg.solve(t_op, -r)
            if np.all(np.isfinite(d)):
                return d, False
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(t_op, -r, rcond=None)[0], True


def _residual(model, x, y):
    """||f(x) - y||; inf where the norm overflows, with no overflow warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(evaluate(model, x) - y))


def semismooth_newton(model, provider, y, x0, tol=1e-10, max_iter=100, rng=None):
    """Damped Newton iteration on the residual ||f(x) - y||.

    The Newton operator is the provider-set vertex with maximal co-norm;
    when every vertex is near-singular a least-squares pseudo-inverse step
    is taken instead and flagged in the trace.  When the initial residual
    norm is not finite in floating point the run stops at once with status
    "overflow"; a trial point whose residual is not finite is rejected.
    """
    y = as_vector(y)
    x = as_vector(x0).copy()
    rng = np.random.default_rng(rng)
    residual = _residual(model, x, y)
    iterates, residuals = [x.copy()], [residual]
    if not np.isfinite(residual):
        return InversionTrace("newton", [1.0], iterates, residuals, "overflow")
    used_pinv = False
    status = "max_iter"
    for _ in range(max_iter):
        if residual <= tol:
            status = "converged"
            break
        if np.linalg.norm(x) > ITERATE_NORM_LIMIT:
            status = "diverged"
            break
        t_op, t_conorm, _ = _newton_element(model, x, provider, rng)
        r = evaluate(model, x) - y
        if t_conorm is not None and t_conorm <= 1e-12:
            d = np.linalg.lstsq(t_op, -r, rcond=None)[0]
            used_pinv = True
        else:
            d, pinv = _newton_direction(t_op, r)
            used_pinv = used_pinv or pinv
        s = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            try:
                trial = _residual(model, x + s * d, y)
            except ValueError:
                trial = np.inf
            # residual is finite, so an inf or NaN trial fails this test
            if trial <= (1.0 - ARMIJO_DECREASE * s) * residual:
                accepted = True
                break
            s *= ARMIJO_FACTOR
        if not accepted:
            status = "step_underflow"
            break
        x = x + s * d
        residual = trial
        iterates.append(x.copy())
        residuals.append(residual)
    else:
        if residual <= tol:
            status = "converged"
    return InversionTrace("newton", [1.0] * len(iterates), iterates, residuals,
                          status, used_pseudoinverse=used_pinv)


def path_lift_invert(model, provider, x0, y_target, steps=16, tol=1e-10,
                     rng=None, corrector_iters=50):
    """Lift the codomain segment from f(x0) to y_target through f.

    Newton correctors solve f(x) = p(t) on an adaptive grid of [0, 1] with
    step halving on corrector failure; a step below MIN_HOMOTOPY_STEP or an
    iterate above ITERATE_NORM_LIMIT terminates with the matching status.
    """
    x = as_vector(x0).copy()
    y_target = as_vector(y_target)
    rng = np.random.default_rng(rng)
    y0 = evaluate(model, x)
    t = 0.0
    dt = 1.0 / max(int(steps), 1)
    base_dt = dt
    t_grid = [0.0]
    iterates = [x.copy()]
    residuals = [0.0]
    status = "max_iter"
    for _ in range(100000):
        if t >= 1.0:
            status = "converged"
            break
        step = min(dt, 1.0 - t)
        target = (1.0 - (t + step)) * y0 + (t + step) * y_target
        corr = semismooth_newton(model, provider, target, x, tol=tol,
                                 max_iter=corrector_iters, rng=rng)
        if corr.status == "converged":
            x = corr.final_x
            t += step
            t_grid.append(t)
            iterates.append(x.copy())
            residuals.append(corr.final_residual)
            dt = min(dt * 2.0, base_dt)
            if np.linalg.norm(x) > ITERATE_NORM_LIMIT:
                status = "diverged"
                break
        else:
            if corr.status == "diverged" or np.linalg.norm(corr.final_x) > ITERATE_NORM_LIMIT:
                status = "diverged"
                break
            dt *= 0.5
            if dt < MIN_HOMOTOPY_STEP:
                status = "step_underflow"
                break
    return InversionTrace("path", t_grid, iterates, residuals, status)


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
    phi = _residual(model, x, y)
    iterates, residuals = [x.copy()], [phi]
    if not np.isfinite(phi):
        return InversionTrace("ekeland", [1.0], iterates, residuals, "overflow")
    status = "max_iter"
    stationary_distance = None
    for _ in range(max_iter):
        if phi <= tol:
            status = "converged"
            break
        jset = build_set(model, x, provider, rng=rng)
        r = evaluate(model, x) - y
        moved = False
        square = jset.shape[0] == jset.shape[1]
        solvable = (conorm(jset.vertices) > 1e-12) & square
        candidates = [np.linalg.solve(v, -r) if ok
                      else np.linalg.lstsq(v, -r, rcond=None)[0]
                      for v, ok in zip(jset.vertices, solvable)]
        for _ in range(2 * model.dim_in):
            d = rng.standard_normal(model.dim_in)
            candidates.append(d / np.linalg.norm(d) * max(phi, tol))
        for d in candidates:
            s = 1.0
            for _ in range(MAX_HALVINGS):
                trial_x = x + s * d
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        trial = np.linalg.norm(evaluate(model, trial_x) - y)
                    except ValueError:
                        trial = np.inf
                    step = np.linalg.norm(trial_x - x)
                # phi is finite and trial, step are never NaN
                if trial < phi - lam * step:
                    x, phi = trial_x, trial
                    moved = True
                    break
                s *= ARMIJO_FACTOR
            if moved:
                break
        if moved:
            iterates.append(x.copy())
            residuals.append(phi)
            continue
        # stalled: test lambda-stationarity of the dual set
        ystar = r / phi
        stationary_distance = dist_to_hull(
            np.zeros(model.dim_in), ystar @ jset.vertices,
            jset.radius * np.linalg.norm(ystar) + lam)
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
    pairs with coincident images are skipped.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    center = as_vector(region_center)
    rng = np.random.default_rng(rng)
    best = None
    for _ in range(pairs):
        x1 = center + _uniform_ball(rng, center.size) * region_radius
        x2 = center + _uniform_ball(rng, center.size) * region_radius
        df = np.linalg.norm(evaluate(model, x1) - evaluate(model, x2))
        if df < 1e-14:
            continue
        ratio = np.linalg.norm(x1 - x2) / df
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise ValueError("all sampled pairs had coincident images")
    return best

