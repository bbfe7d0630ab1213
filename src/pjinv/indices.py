"""Co-norm bounds over pseudo-Jacobian sets and the regularity index.

Certification rests on 1-Lipschitzness of the smallest singular value in
spectral norm: covering the vertex simplex with a barycentric mesh of size
``net`` bounds the co-norm over the whole hull from below by the mesh
minimum minus net * diam(vertices).
"""

import math

import numpy as np

from .linalg import as_vector, conorm, spectral_norm
from .maps import _blocks, _uniform_ball
from .pseudojac import build_sets

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
# points drawn per shrinking ball when the USC shortcut is off
SAMPLES_PER_RADIUS = 24


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


def _singleton_bounds(vs, radii, net):
    """Bounds of the singleton sets {vs[i]} + radii[i] * ball, a list.

    Each is exact, conorm(V) - radius, attained by a rank-one perturbation
    aligned with the minimal singular pair.  One SVD call per block of
    ``_blocks`` gives the co-norms (zero for a wide matrix) and those pairs
    for the positive radii, and one ``conorm`` call per block the co-norms
    for the zero radii; an empty group makes no call.
    """
    low = np.zeros(len(vs))
    witness = vs.copy()
    size = vs.shape[1] * vs.shape[2]
    positive = np.flatnonzero(radii > 0.0)
    for block in _blocks(len(positive), size):
        i = positive[block]
        # the thin factors pair u[:, :, -1] with sv[:, -1] for a tall vs
        u, sv, vt = np.linalg.svd(vs[i], full_matrices=False)
        if vs.shape[1] >= vs.shape[2]:
            low[i] = sv[:, -1]
        witness[i] -= radii[i, None, None] * (u[:, :, -1:] * vt[:, -1:, :])
    zero = np.flatnonzero(radii == 0.0)
    for block in _blocks(len(zero), size):
        low[zero[block]] = conorm(vs[zero[block]])
    values = np.maximum(low - radii, 0.0)
    return [ConormBounds(value, value, True, net, witness=w)
            for value, w in zip(values, witness)]


def _stack_bounds(vertices, radii, net):
    """``set_conorm_bounds`` of each set co(vertices[i]) + radii[i] * ball
    of a (P, k, m, n) stack, as a list.

    The singleton sets (one vertex, or all vertices equal) share one
    ``_singleton_bounds`` call; every other set gets its own mesh or
    sampled bound.
    """
    if not (net > 0):
        raise ValueError("net must be > 0")
    single = np.all(vertices == vertices[:, :1], axis=(1, 2, 3))
    found = iter(_singleton_bounds(vertices[single, 0], radii[single], net))
    return [next(found) if one else _hull_bounds(v, r, net)
            for one, v, r in zip(single, vertices, radii)]


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
    return _stack_bounds(jset.vertices[None], np.array([jset.radius]), net)[0]


def _hull_bounds(vertices, radius, net):
    # set_conorm_bounds of co(vertices) + radius * ball, vertices not all equal
    k = len(vertices)
    subdivisions = max(int(np.ceil(1.0 / net)), 1)
    certifiable = (k <= MAX_CERT_VERTICES
                   and math.comb(subdivisions + k - 1, k - 1) <= MAX_MESH_POINTS)
    if certifiable:
        weights = _barycentric_mesh(k, subdivisions)
    else:
        rng = np.random.default_rng(0)
        weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=4096)])
    best = np.inf
    for block in _blocks(len(weights), vertices.shape[1] * vertices.shape[2]):
        combos = np.einsum("pk,kij->pij", weights[block], vertices)
        values = conorm(combos)
        i = int(np.argmin(values))
        if values[i] < best:  # keeps the first minimum in mesh order
            best, witness = values[i], combos[i].copy()
    upper = max(best - radius, 0.0)
    if not certifiable:
        return ConormBounds(0.0, upper, False, net, witness=witness)
    pairs = np.triu_indices(k, 1)
    diam = float(np.max(spectral_norm(vertices[pairs[0]] - vertices[pairs[1]])))
    lower = max(best - net * diam - radius, 0.0)
    return ConormBounds(lower, upper, True, net, witness=witness)


def regularity_index(model, provider, x, radii=None, net=DEFAULT_NET,
                     rng=None, use_usc_shortcut=True):
    """Regularity index of the provider's pseudo-Jacobian mapping at x.

    Under upper semicontinuity the index equals the at-point hull co-norm
    infimum, so ``use_usc_shortcut`` takes a single set construction.
    Without it, SAMPLES_PER_RADIUS points are sampled in shrinking balls
    B(x, r) for r in ``radii``; the index is the max over r of the
    per-radius infima of certified lower bounds.

    The ``regular`` verdict additionally requires the certified bound to
    clear the numerical-singularity margin 10 * net.
    """
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    if use_usc_shortcut:
        bounds = _point_bounds(model, provider, x[None], net, rng)[0]
        regular = bounds.certified and bounds.lower > 10.0 * net
        kind = "certified" if bounds.certified else "sampled"
        return RegularityReport(_bound_value(bounds), regular, kind,
                                bounds.witness, 0.0)

    if radii is None:
        radii = [r * (1.0 + np.linalg.norm(x)) for r in (1.0, 0.1, 0.01)]
    if not radii:
        raise ValueError("radii must be nonempty")
    # per radius the first minimal bound over x and its sampled points;
    # across radii the first maximal one
    per_radius, all_certified = [], True
    for r in radii:
        points = np.vstack([x, _uniform_ball(rng, x, r, SAMPLES_PER_RADIUS)])
        found = _point_bounds(model, provider, points, net, rng)
        all_certified = all_certified and all(b.certified for b in found)
        per_radius.append((min(found, key=_bound_value), r))
    bounds, r_used = max(per_radius, key=lambda pair: _bound_value(pair[0]))
    alpha = _bound_value(bounds)
    regular = all_certified and alpha > 10.0 * net
    kind = "certified" if all_certified else "sampled"
    return RegularityReport(max(alpha, 0.0), regular, kind, bounds.witness,
                            r_used)


def _point_bounds(model, provider, points, net, rng):
    """``set_conorm_bounds`` of the provider's set at each row of points.

    One ``build_sets`` call builds every set, and the singleton sets share
    one batched bound.  Under upper semicontinuity ``_bound_value`` of each
    is the regularity index at that point.
    """
    return _stack_bounds(*build_sets(model, points, provider, rng=rng), net)


def _bound_value(bounds):
    """The index a bound gives: its certified lower end, else its sampled
    upper end."""
    return bounds.lower if bounds.certified else bounds.upper
