"""Numerical inversion: semismooth Newton, segment path lifting, descent.

Path lifting follows a codomain line segment with Newton correctors; a step
underflow or iterate blow-up is recorded as *evidence* (not proof) that the
limiting path-lifting condition fails for the map.  Once two nodes are
accepted, each node starts from the secant extrapolation of the last two,
when f there is nearer the node's target than at the last node (one
evaluation, no set); otherwise, and at the first node, it starts from the
last node.  A start whose residual is at most tol is the node, with no
Newton step, so a lift's node residuals are at most tol, not near 0.

The predictions are planned a run at a time (``_plan``), each from the two
nodes before it as if every node of the run were accepted at its
prediction: a run's points are evaluated in one oracle call and both
misfit norms of its nodes taken in one pass.  The walk hands each node
to a corrector, from the start and with the value the one-node rule
gives; a corrector from a prediction that meets tol stops there with no
step.  At the first node that is not its prediction the rest of the run
is dropped.  A run takes every node left until a prediction is rejected,
and from then on one node more than the predictions kept since the last
rejected one, so a lift whose predictions keep missing tol predicts a
node at a time.  For a map that does not declare ``rows_match``
(``linear``: a many-row product may round differently from a one-row
one) every run is one node.  Every prediction, a run of one node
included, is checked, evaluated and measured by ``_plan``.

Every inverter evaluates f once per point it visits: the value at an
accepted trial point is the next iterate's value, and the points of a
planned run past its first rejected node are evaluated, dropped and never
evaluated again.  ``semismooth_newton`` takes f(x0) as ``fx0`` when the
caller has it and leaves the value at its last iterate on the trace as
``final_fx``, so path lifting hands each converged corrector's value to
the next corrector.

A Newton or Ekeland step makes one ``build_set`` call and, unless the
set is a singleton, one ``conorm`` call: one SVD call for all its
vertices.  Inputs are checked where they enter: the targets and start
points by the public inverters, each point by ``evaluate`` and
``build_set``, the vertices by ``conorm``.  The steps between them check
nothing again and copy no iterate, since no array is changed in place.

Newton and Ekeland share one solve rule and one halving search.
``_newton_direction`` solves T d = -r, and takes least squares instead
when T is not square, when its co-norm is at most 1e-12, or when the
solve fails or overflows.  ``_line_search`` tries the steps 1, 1/2,
1/4, ... in turn, against Newton's Armijo test or Ekeland's
lambda-decrease test.
"""

import math

import numpy as np

from .linalg import _row_norms, as_vector, conorm, dist_to_hull
from .maps import (MAX_BATCH_ENTRIES, _check_rows, _oracle_rows, _pair_norms,
                   _unit_rows, evaluate)
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
    do), else None; it is not part of the record.  final_residual is the
    residual to the run's own target at the last iterate: the last of
    residuals unless the caller gives it (path lifting, whose residuals
    are to the path's nodes).  newton_steps is the number of Newton steps
    that path lifting's correctors accepted, recorded for "path" runs
    only.  The trace keeps the lists it is given, without a copy.
    """

    def __init__(self, method, t_grid, iterates, residuals, status,
                 used_pseudoinverse=False, stationary_distance=None,
                 final_fx=None, final_residual=None, newton_steps=None):
        if len(iterates) != len(residuals):
            raise ValueError("iterates and residuals must have equal length")
        self.method = method
        self.t_grid = t_grid
        self.iterates = iterates
        self.residuals = residuals
        self.status = status
        self.used_pseudoinverse = bool(used_pseudoinverse)
        self.stationary_distance = stationary_distance
        self.final_fx = final_fx
        self.final_residual = (residuals[-1] if final_residual is None
                               else final_residual)
        self.newton_steps = newton_steps

    @property
    def final_x(self):
        return self.iterates[-1]

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
        elif self.method == "path":
            record["newton_steps"] = self.newton_steps
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


def _newton_direction(t_op, r, t_conorm=None):
    """Solve T d = -r; least squares when T is not square, when its given
    co-norm is at most 1e-12, or when the solve fails or overflows.

    Returns (direction, used_pseudoinverse).
    """
    if t_op.shape[0] == t_op.shape[1] and (t_conorm is None
                                           or t_conorm > 1e-12):
        try:
            d = np.linalg.solve(t_op, -r)
            if np.isfinite(d).all():
                return d, False
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(t_op, -r, rcond=None)[0], True


@np.errstate(over="ignore", invalid="ignore")
def _misfit(fx, y):
    """(fx - y, its norm); the norm is inf where it overflows, with no
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


def _line_search(model, x, d, y, accept):
    """The first trial x + s d, s = 1, 1/2, 1/4, ... (MAX_HALVINGS of them),
    whose residual norm passes accept(s, trial_x, norm), as (trial_x, its
    f, misfit and norm); None when no trial passes."""
    s = 1.0
    for _ in range(MAX_HALVINGS):
        trial_x = x + s * d
        trial_fx, trial_r, trial = _trial(model, trial_x, y)
        if accept(s, trial_x, trial):
            return trial_x, trial_fx, trial_r, trial
        s *= ARMIJO_FACTOR
    return None


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
        d, pinv = _newton_direction(t_op, r, t_conorm)
        used_pinv = used_pinv or pinv
        # residual is finite, so an inf or NaN trial fails this test
        step = _line_search(model, x, d, y, lambda s, _, trial:
                            trial <= (1.0 - ARMIJO_DECREASE * s) * residual)
        if step is None:
            status = "step_underflow"
            break
        x, fx, r, residual = step
        iterates.append(x)
        residuals.append(residual)
    else:
        if residual <= tol:
            status = "converged"
    return InversionTrace("newton", [1.0] * len(iterates), iterates, residuals,
                          status, used_pseudoinverse=used_pinv, final_fx=fx)


def _plan(model, iterates, t_grid, fx, dt, base_dt, y0, y_target, window):
    """The lift's next nodes, each as (target, guess, f(guess), the guess's
    misfit norm to the target, that of the node before it), as an iterator.

    Each node assumes that the ones before it in the plan were accepted at
    their guesses: the steps follow the walk's rule (dt doubles up to
    base_dt after each node, and t stops at 1), and each guess is the
    secant prediction of the two nodes before it.  A plan takes at most
    ``window`` nodes, and one node unless the map declares ``rows_match``.
    Its guesses, one or many, are checked and evaluated in one oracle
    call, and both norms of every node are taken in one pass.  The plan
    ends early at the first node whose guess is not evaluated: at the
    lift's first node and where the guess equals the node before it (a
    point not evaluated again), whose guess is None, and where the guess
    fails evaluate's input checks.  Such a node's value is None and its
    norms inf.  A guess whose value is not finite has a norm that is not
    finite (NaN where ``_trial`` gives inf), and the walk takes either as
    a rejected guess: the corrector starts from the last node.
    """
    times = t_grid[-2:]
    steps = []
    # the first node has no prediction to plan; the misfits of a plan of
    # window rows fill a (2, window, dim_out) array
    width = 2 * max(model.dim_in, model.dim_out)
    window = (min(window, MAX_BATCH_ENTRIES // width)
              if model.rows_match and len(iterates) > 1 else 1)
    while times[-1] < 1.0 and len(steps) < window:
        steps.append(min(dt, 1.0 - times[-1]))
        times.append(times[-1] + steps[-1])
        dt = min(dt * 2.0, base_dt)
    s = np.array(times[-len(steps):])[:, None]
    targets = (1.0 - s) * y0 + s * y_target
    if len(iterates) == 1:
        return iter([(targets[0], None, None, np.inf, np.inf)])
    # x + step / (t - t_prev) * (x - x_prev) in the rows after the last two
    # nodes, with the bits of that expression
    nodes = np.empty((len(steps) + 2, model.dim_in))
    nodes[0], nodes[1] = iterates[-2], iterates[-1]
    for k, step in enumerate(steps):
        guess = nodes[k + 2]
        np.subtract(nodes[k + 1], nodes[k], out=guess)
        guess *= step / (times[k + 1] - times[k])
        guess += nodes[k + 1]
    same = (nodes[2:] == nodes[1:-1]).all(axis=1).tolist()
    guesses = nodes[2:2 + (same.index(True) if True in same else len(same))]
    stop = _check_rows(model, guesses)[1]
    values = _oracle_rows(model, guesses[:stop])
    if values.shape != (stop, model.dim_out):
        raise ValueError(f"{model.name}: oracle returned shape {values.shape}")
    # the misfits of the guesses and of the nodes before them
    pair = np.empty((2, stop, model.dim_out))
    pair[0] = values
    pair[1, :1] = fx
    pair[1, 1:] = values[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        pair -= targets[:stop]
        misses, nears = _row_norms(pair).tolist()
    rows = list(zip(targets, guesses, values, misses, nears))
    if stop < len(steps):
        # the first guess that cannot be evaluated, or no guess
        guess = guesses[stop] if stop < len(guesses) else None
        rows.append((targets[stop], guess, None, np.inf, np.inf))
    return iter(rows)


def path_lift_invert(model, provider, x0, y_target, steps=16, tol=1e-10,
                     rng=None):
    """Lift the codomain segment from f(x0) to y_target through f.

    Newton correctors of at most CORRECTOR_ITERS steps solve f(x) = p(t) on
    an adaptive grid of [0, 1] with step halving on corrector failure; a
    step below MIN_HOMOTOPY_STEP or an iterate above ITERATE_NORM_LIMIT
    terminates with the matching status.
    A corrector "overflow" ends the run with that status: the residual
    norm at the current point then overflows whatever the step.

    From the second node on, the node at t + step is offered the secant
    prediction x + step / (t - t_prev) * (x - x_prev) of the last two
    nodes, unless it equals x.  f is evaluated there once, and the node
    starts from the prediction when its residual to p(t + step) is below
    that of the last node x, whose f is held; otherwise, and where the
    prediction leaves the domain box (an inf residual), it starts from x.
    The start goes to a corrector with f there, so f is evaluated once
    per point, and a prediction whose residual is at most tol is the
    node, with no Newton step.  ``_plan`` makes the predictions a run at
    a time, in one oracle call (see the module docstring); the walk takes
    a run's nodes in order and drops the rest of the run at the first
    node that is not its prediction.
    ``residuals`` holds each node's residual to p(t), at most tol but not
    near 0; ``newton_steps`` counts the Newton steps all correctors took.
    ``final_residual`` is ||f(final_x) - y_target|| from the value of f
    already held, so a lift that stops early reports its distance to the
    target.  The trace flags a pseudo-inverse step when any corrector took
    one, converged or not.
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
    newton_steps = 0
    status = "max_iter"
    plan = iter(())
    # predictions kept since the last rejected one; inf before
    # any is rejected
    run = math.inf
    for _ in range(100000):
        if t >= 1.0:
            status = "converged"
            break
        node = next(plan, None)
        if node is None:
            plan = _plan(model, iterates, t_grid, fx, dt, base_dt, y0,
                         y_target, run + 1)
            node = next(plan)
        target, guess, f_guess, miss, near = node
        if miss <= tol and miss < near:
            # the corrector stops at the guess with no step
            run += 1
        else:
            plan = iter(())  # the rest of the run assumed this guess
            if guess is not None:
                run = 0
        start, f_start = (guess, f_guess) if miss < near else (x, fx)
        corr = semismooth_newton(model, provider, target, start, tol=tol,
                                 max_iter=CORRECTOR_ITERS, rng=rng,
                                 fx0=f_start)
        used_pinv = used_pinv or corr.used_pseudoinverse
        newton_steps += len(corr.iterates) - 1
        if corr.status == "overflow":
            status = "overflow"
            break
        if corr.status != "converged":
            if (corr.status == "diverged"
                    or _norm(corr.final_x) > ITERATE_NORM_LIMIT):
                status = "diverged"
                break
            dt *= 0.5
            if dt < MIN_HOMOTOPY_STEP:
                status = "step_underflow"
                break
            continue
        x, fx = corr.final_x, corr.final_fx
        t += min(dt, 1.0 - t)
        t_grid.append(t)
        iterates.append(x)
        residuals.append(corr.final_residual)
        dt = min(dt * 2.0, base_dt)
        if _norm(x) > ITERATE_NORM_LIMIT:
            status = "diverged"
            break
    return InversionTrace("path", t_grid, iterates, residuals, status,
                          used_pseudoinverse=used_pinv,
                          final_residual=_misfit(fx, y_target)[1],
                          newton_steps=newton_steps)


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
        # a singleton takes no SVD: its solve detects singularity, as in
        # _newton_element
        conorms = conorm(jset.vertices) if len(jset.vertices) > 1 else [None]
        candidates = [_newton_direction(v, r, c)[0]
                      for v, c in zip(jset.vertices, conorms)]
        probes = rng.standard_normal((2 * model.dim_in, model.dim_in))
        candidates.extend(_unit_rows(probes) * max(phi, tol))
        # phi is finite and a trial's norm and step norm are never NaN
        searches = (_line_search(model, x, d, y, lambda _, z, trial:
                                 trial < phi - lam * _misfit(z, x)[1])
                    for d in candidates)
        step = next((s for s in searches if s is not None), None)
        if step is not None:
            x, _, r, phi = step
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
