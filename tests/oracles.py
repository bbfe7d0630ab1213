"""Independent reference routines for the tests.

``jacobi_singular_values`` is a one-sided Jacobi SVD, written separately
from the LAPACK routine the package uses; one-sided Jacobi computes small
singular values to high relative accuracy (Demmel and Veselic, SIAM J.
Matrix Anal. Appl. 13, 1992), so agreement with it is a real check.  The
loop references evaluate set operations one vertex at a time.
"""

import numpy as np


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
