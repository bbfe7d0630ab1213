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
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(x):
    """Coerce to a 1-d float array and validate finiteness."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"expected a nonempty 1-d array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _row_norms(a):
    # Euclidean norms over the last axis.  Each is the square root of one
    # BLAS dot, as np.linalg.norm computes it for a single vector, so a
    # stack and its rows one at a time give the same bits.
    a = np.asarray(a, dtype=float)
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
    a = _as_stack(a)
    if a.shape[-1] > a.shape[-2]:
        low = np.zeros(a.shape[:-2])
    else:
        low = singular_values(a)[..., -1]
    return float(low) if low.ndim == 0 else low


def surjectivity_index(a):
    """Co-norm of the adjoint; positive iff the map is surjective.

    For an invertible square matrix this equals 1 / ||A^-1||.
    """
    return conorm(np.swapaxes(_as_stack(a), -1, -2))


def project_to_hull(p, vertices, gap_tol=1e-10, max_iter=50000):
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
