"""Independent reference routines for the tests.

``jacobi_singular_values`` is a one-sided Jacobi SVD, written separately
from the LAPACK routine the package uses; one-sided Jacobi computes small
singular values to high relative accuracy (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992), so agreement with it is a real check.  The
loop references evaluate set operations one vertex at a time, and
``loop_validity_check`` runs the validity check one trial at a time.
``frank_wolfe_project`` projects onto a convex hull by away-step
Frank-Wolfe, an algorithm independent of the package's active-set method;
its duality gap gives a certified lower bound on the distance.
"""

import numpy as np

from pjinv.linalg import as_vector
from pjinv.maps import dini_derivatives, evaluate
from pjinv.pseudojac import support_function


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


def loop_pj_combine(alpha, vertices1, vertices2):
    """alpha * V1 + V2 over all pairs, the first set's index major."""
    return [alpha * a + b for a in vertices1 for b in vertices2]


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


def _unit(rng, n):
    d = rng.standard_normal(n)
    nrm = np.linalg.norm(d)
    while nrm == 0.0:
        d = rng.standard_normal(n)
        nrm = np.linalg.norm(d)
    return d / nrm
