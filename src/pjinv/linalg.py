"""Dense linear-operator machinery: singular values, co-norm, hull projection.

All norms are Euclidean.  Adjoints are plain transposes (self-duality), so
dual vectors are ordinary arrays.
"""

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "singular_values",
    "spectral_norm",
    "conorm",
    "surjectivity_index",
    "project_to_hull",
    "dist_to_hull",
]


def as_matrix(a):
    """Coerce to a 2-d float array and validate finiteness."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a nonempty 2-d array, got shape {a.shape}")
    return _as_stack(a)


def _as_stack(a):
    # a float array of shape (..., m, n), every matrix nonempty and finite
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise ValueError(f"expected nonempty matrices, got shape {a.shape}")
    # the method form skips np.all's dispatch, about half of this check's
    # cost on one small matrix
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(x):
    """Coerce to a 1-d float array and validate finiteness."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a nonempty 1-d array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("vector entries must be finite")
    return x


def _row_norms(a):
    # Euclidean norms over the last axis.  Each is the square root of one
    # BLAS dot on a contiguous row, as np.linalg.norm computes it for a
    # single vector, so a stack and its rows one at a time give the same
    # bits: strided rows are copied first (a dot on them rounds differently
    # once a row has 4 or more entries).
    a = np.asarray(a, dtype=float)
    if a.strides[-1] != a.itemsize:
        a = np.ascontiguousarray(a)
    return np.sqrt((a[..., None, :] @ a[..., :, None])[..., 0, 0])


def singular_values(a):
    """Singular values of a matrix, or of each matrix in a stack, by LAPACK.

    Parameters
    ----------
    a : array_like, shape (..., m, n)

    Returns
    -------
    ndarray, shape (..., min(m, n))
        Singular values in nonincreasing order.
    """
    return np.linalg.svd(_as_stack(a), compute_uv=False)


def spectral_norm(a):
    """Largest singular value; an array of them for a stack of matrices."""
    top = singular_values(a)[..., 0]
    return float(top) if top.ndim == 0 else top


def conorm(a):
    """Co-norm of a linear map: inf of ||Ax|| over unit vectors x.

    Equals the smallest singular value when the map has a trivial kernel;
    zero whenever the domain dimension exceeds the codomain dimension.  A
    stack of shape (..., m, n) gives an array of co-norms of shape (...).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim >= 2 and a.shape[-1] > a.shape[-2]:
        low = np.zeros(_as_stack(a).shape[:-2])
    else:
        # singular_values checks the stack: each path checks it once
        low = singular_values(a)[..., -1]
    return float(low) if low.ndim == 0 else low


def surjectivity_index(a):
    """Co-norm of the adjoint; positive iff the map is surjective.

    For an invertible square matrix this equals 1 / ||A^-1||.
    """
    return conorm(np.swapaxes(_as_stack(a), -1, -2))


def project_to_hull(p, vertices, gap_tol=1e-10, max_iter=50000):
    """Euclidean projection of a point onto the convex hull of vertices.

    Wolfe's minimum-norm-point method (P. Wolfe, "Finding the nearest point
    in a polytope", Math. Programming 11, 1976) on the shifted vertices
    w = vertices - p.  It starts at vertex 0 with an active set of that
    vertex alone; the active set never holds more than dim + 1 vertices.
    Each major step makes one linear oracle call w @ g over all vertices
    (ties go to the lowest index) and adds the minimiser to the active set;
    g is the current point x less its least-squares component along the
    active set's affine hull, which for the affine minimiser x is rounding
    only.  Minor cycles then move x to the affine minimiser of the active
    set, one small least-squares solve each, and drop vertices whose
    weight reaches zero until every weight is positive.  The run stops at
    the first of

    (a) the duality gap at g, gap = g.g - min(w @ g), certifies the lower
        bound sqrt(max(0, g.g - 2*gap)) on the true distance (for any g),
        and ||x|| is within ``gap_tol`` of it;
    (b) the oracle returns a vertex that is already active (or the active
        set already spans the space), or a major step fails to decrease
        ||x||^2 strictly: Wolfe's finite-termination test, which keeps
        rounding from cycling;
    (c) ``max_iter`` major steps.

    The returned point is a convex combination of vertices whichever stop
    ends the run, so its distance is attained: an upper bound on the true
    distance, up to rounding.

    Returns
    -------
    (ndarray, float)
        The projection point and its distance to ``p``.
    """
    p = as_vector(p)
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    if v.shape[1] != p.size:
        raise ValueError("point and hull vertices have different dimensions")
    w = v - p
    active, lam = [0], np.ones(1)
    x = w[0]
    xx = x @ x
    for _ in range(max_iter):
        g = _off_affine(w[active], x)
        gg = g @ g
        scores = w @ g
        j = int(np.argmin(scores))  # argmin returns the lowest tied index
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


def _off_affine(ws, x):
    # x less its least-squares component along the affine hull of ws.  For
    # the affine minimiser x of ws that component is rounding, about
    # eps * max|ws| from the cancellation in x = lam @ ws; where ||x|| is not
    # much larger, as on a sliver, it would decide the oracle's choice.
    if len(ws) == 1:
        return x
    d = (ws[1:] - ws[0]).T
    return x - d @ np.linalg.lstsq(d, x, rcond=None)[0]


def _corral(w, active, lam):
    # Wolfe's minor cycles: the convex weights lam over w[active] move to the
    # affine minimiser alpha of those vertices when every alpha is positive;
    # otherwise they move toward it until the first weight reaches zero, that
    # vertex (and any other at zero) leaves, and the cycle repeats.
    while True:
        ws = w[active]
        if len(active) == 1:
            alpha = np.ones(1)
        else:
            beta = np.linalg.lstsq((ws[1:] - ws[0]).T, -ws[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - beta.sum()], beta])
        if np.all(alpha > 0.0):
            return active, alpha
        neg = np.flatnonzero(alpha <= 0.0)
        # step length to each non-positive weight's zero; 0 for one at zero
        steps = np.divide(lam[neg], lam[neg] - alpha[neg],
                          out=np.zeros(neg.size), where=lam[neg] > 0.0)
        first = int(np.argmin(steps))
        lam = lam + steps[first] * (alpha - lam)
        lam[neg[first]] = 0.0
        keep = lam > 0.0
        active = [a for a, kept in zip(active, keep) if kept]
        lam = lam[keep]


def dist_to_hull(p, vertices, radius=0.0, gap_tol=1e-10):
    """Distance from a point to co(vertices) + radius * closed-unit-ball.

    Returns max(d - radius, 0) where d is the distance to the convex hull
    of the vertex list, a nonempty finite array of shape (k, dim).
    """
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    if v.shape[0] < 1 or not np.all(np.isfinite(v)):
        raise ValueError("hull vertices must be a nonempty finite array")
    if not (radius >= 0.0):
        raise ValueError("hull radius must be >= 0")
    _, d = project_to_hull(p, v, gap_tol=gap_tol)
    return max(d - radius, 0.0)
