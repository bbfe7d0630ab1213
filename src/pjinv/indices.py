"""Co-norm bounds over pseudo-Jacobian sets and the regularity index.

Certification rests on 1-Lipschitzness of the smallest singular value in
spectral norm: covering the vertex simplex with a barycentric mesh of size
``net`` bounds the co-norm over the whole hull from below by the mesh
minimum minus net * diam(vertices).
"""

import math

import numpy as np

from .linalg import as_vector, conorm, spectral_norm
from .maps import MAX_BATCH_ENTRIES, _uniform_ball
from .pseudojac import build_set

__all__ = [
    "ConormBounds",
    "RegularityReport",
    "set_conorm_bounds",
    "regularity_index",
]

# beyond this many mesh points (or vertices) the bound degrades to sampled
MAX_CERT_VERTICES = 4
MAX_MESH_POINTS = 200_000
DEFAULT_NET = 1e-3


class ConormBounds:
    """Lower (certified) and upper (sampled) bounds on the hull co-norm."""

    def __init__(self, lower, upper, certified, net_resolution, witness=None):
        if lower > upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")
        self.lower = float(lower)
        self.upper = float(upper)
        self.certified = bool(certified)
        self.net_resolution = float(net_resolution)
        self.witness = witness

    def __repr__(self):
        tag = "certified" if self.certified else "sampled"
        return f"ConormBounds([{self.lower:.6g}, {self.upper:.6g}], {tag})"


class RegularityReport:
    """Regularity index value with its bound kind and attaining witness."""

    def __init__(self, alpha, regular, bound_kind, witness, radius_used):
        self.alpha = float(alpha)
        self.regular = bool(regular)
        self.bound_kind = bound_kind
        self.witness = witness
        self.radius_used = float(radius_used)

    def __repr__(self):
        return (f"RegularityReport(alpha={self.alpha:.6g}, "
                f"regular={self.regular}, {self.bound_kind})")


def _singleton_bounds(v, radius, net):
    if radius > 0.0:
        # one SVD gives the co-norm (zero for a wide matrix) and the minimal
        # singular pair, along which a rank-one perturbation attains the
        # bound; the thin factors pair u_mat[:, -1] with sv[-1] for a tall v
        u_mat, sv, vt = np.linalg.svd(v, full_matrices=False)
        low = sv[-1] if v.shape[0] >= v.shape[1] else 0.0
        witness = v - radius * np.outer(u_mat[:, -1], vt[-1])
    else:
        low, witness = conorm(v), v
    value = max(low - radius, 0.0)
    return ConormBounds(value, value, True, net, witness=witness)


def _barycentric_mesh(k, subdivisions):
    """Weights c / subdivisions over all c in N^k with sum(c) = subdivisions.

    These are the stars-and-bars compositions, math.comb(subdivisions + k - 1,
    k - 1) rows in lexicographic order of c, built one coordinate at a time.
    """
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([subdivisions])
    for _ in range(k - 1):
        reps = left + 1
        rows = np.repeat(np.arange(left.size), reps)
        first = np.arange(rows.size) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.column_stack([counts[rows], first])
        left = left[rows] - first
    return np.column_stack([counts, left]) / subdivisions


def set_conorm_bounds(jset, net=DEFAULT_NET):
    """Bounds on inf of the co-norm over co(vertices) + radius * ball.

    Singleton sets, and sets whose vertices are all equal, are exact:
    conorm(V) - radius, attained by a rank-one perturbation aligned with the
    minimal singular pair.  Otherwise, when there are at most
    MAX_CERT_VERTICES vertices and the barycentric mesh of size <= net has
    at most MAX_MESH_POINTS points, the 1-Lipschitz bound certifies
    min_over_mesh - net * diam - radius.  At the default net 1e-3 only
    2-vertex hulls qualify (a 3-vertex mesh has 501,501 points); 3 vertices
    need net >= about 1.6e-3 and 4 vertices net >= about 9.6e-3.  Any other
    set gets a sampled, non-certified bound: the minimum over the vertices
    and 4,096 fixed-seed Dirichlet weights.  Mesh points and samples are
    evaluated in chunks of at most MAX_BATCH_ENTRIES matrix entries, one
    batched singular-value computation per chunk, plus one for diam when
    certifying.  The 1,001-point mesh of a 2-vertex set at the default net
    fits in one chunk for operators of up to 2,095 entries (45 x 45).
    """
    if not (net > 0):
        raise ValueError("net must be > 0")
    vertices = jset.vertices
    k = len(vertices)
    if np.all(vertices == vertices[0]):
        return _singleton_bounds(vertices[0], jset.radius, net)

    subdivisions = max(int(np.ceil(1.0 / net)), 1)
    certifiable = (k <= MAX_CERT_VERTICES
                   and math.comb(subdivisions + k - 1, k - 1) <= MAX_MESH_POINTS)
    if certifiable:
        weights = _barycentric_mesh(k, subdivisions)
    else:
        rng = np.random.default_rng(0)
        weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=4096)])
    chunk = max(MAX_BATCH_ENTRIES // (jset.shape[0] * jset.shape[1]), 1)
    best = np.inf
    for start in range(0, len(weights), chunk):
        combos = np.einsum("pk,kij->pij", weights[start:start + chunk], vertices)
        values = conorm(combos)
        i = int(np.argmin(values))
        if values[i] < best:  # keeps the first minimum in mesh order
            best, witness = values[i], combos[i].copy()
    upper = max(best - jset.radius, 0.0)
    if not certifiable:
        return ConormBounds(0.0, upper, False, net, witness=witness)
    pairs = np.triu_indices(k, 1)
    diam = float(np.max(spectral_norm(vertices[pairs[0]] - vertices[pairs[1]])))
    lower = max(best - net * diam - jset.radius, 0.0)
    return ConormBounds(lower, upper, True, net, witness=witness)


def regularity_index(model, provider, x, radii=None, net=DEFAULT_NET,
                     samples_per_radius=24, rng=None, use_usc_shortcut=None):
    """Regularity index of the provider's pseudo-Jacobian mapping at x.

    Under upper semicontinuity the index equals the at-point hull co-norm
    infimum, so a single set construction suffices.  Otherwise points are
    sampled in shrinking balls B(x, r) for r in ``radii``; the index is the
    max over r of the per-radius infima of certified lower bounds.

    The ``regular`` verdict additionally requires the certified bound to
    clear the numerical-singularity margin 10 * net.
    """
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    shortcut = model.usc if use_usc_shortcut is None else use_usc_shortcut

    if shortcut:
        bounds = set_conorm_bounds(build_set(model, x, provider, rng=rng), net=net)
        alpha = bounds.lower if bounds.certified else bounds.upper
        regular = bounds.certified and bounds.lower > 10.0 * net
        kind = "certified" if bounds.certified else "sampled"
        return RegularityReport(alpha, regular, kind, bounds.witness, 0.0)

    if radii is None:
        radii = [r * (1.0 + np.linalg.norm(x)) for r in (1.0, 0.1, 0.01)]
    if not radii:
        raise ValueError("radii must be nonempty")
    best_alpha = -np.inf
    best = None
    all_certified = True
    for r in radii:
        worst = np.inf
        worst_bounds = None
        points = [x] + [x + _uniform_ball(rng, x.size) * r
                        for _ in range(samples_per_radius)]
        for z in points:
            bounds = set_conorm_bounds(build_set(model, z, provider, rng=rng),
                                       net=net)
            all_certified = all_certified and bounds.certified
            val = bounds.lower if bounds.certified else bounds.upper
            if val < worst:
                worst = val
                worst_bounds = bounds
        if worst > best_alpha:
            best_alpha = worst
            best = (worst_bounds, r)
    bounds, r_used = best
    regular = all_certified and best_alpha > 10.0 * net
    kind = "certified" if all_certified else "sampled"
    return RegularityReport(max(best_alpha, 0.0), regular, kind,
                            bounds.witness, r_used)

