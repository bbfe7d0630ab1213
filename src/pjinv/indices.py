"""Co-norm bounds over pseudo-Jacobian sets and the regularity index.

Certification rests on 1-Lipschitzness of the smallest singular value in
spectral norm: covering the vertex simplex with a barycentric mesh of size
``net`` bounds the co-norm over the whole hull from below by the mesh
minimum minus net * diam(vertices).

The mesh minimum is found in two levels.  Moving the weights from w' to w
moves the combination by sum_i (w_i - w'_i) V_i, and since those
differences sum to 0 its norm is at most ||w - w'||_1 * diam / 2.  So the
co-norms of a coarse sub-mesh (every s-th count, s = isqrt(subdivisions))
bound every other row from below through the corners of its coarse cell.
Only the rows whose bound, less a rounding margin of 1e-9 * (1 + the
largest vertex Frobenius norm), does not clear the coarse minimum are
decomposed.  The margin exceeds what einsum and LAPACK can round, so a
skipped row would have computed strictly above the mesh minimum, and a
row's value does not depend on the rows decomposed with it: the bound, the
upper bound and the witness (the first minimal row in mesh order) are
those of the full mesh to the bit.  The margin only decides how many rows
are decomposed.

``_stack_bounds`` bounds every set of a (P, k, m, n) stack in one pass that
returns values only: arrays of lower and upper bounds and certified flags.
Singleton sets take their co-norms from singular values alone.  A stack
with stride 0 on its row axis (a ``np.broadcast_to`` view of a constant
derivative) holds one operator in every row, so it takes one ``conorm``
call of that operator; any other stack takes one call per block.  A
witness is built only for a set that a report names: ``set_conorm_bounds``
of that one set, and the set that ``regularity_index`` chooses.
"""

import functools
import math

import numpy as np

from .linalg import as_vector, conorm, spectral_norm
from .maps import _blocks, _uniform_ball
from .pseudojac import PseudoJacobianSet, build_set, build_sets

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


def _singleton_values(vs, radii):
    """max(conorm(vs[i]) - radii[i], 0) for a (P, m, n) stack of operators:
    the exact bound of each singleton set {vs[i]} + radii[i] * ball, from
    singular values only.  A stack with stride 0 on its row axis is one
    operator and takes one ``conorm`` call of ``vs[:1]``, whose value every
    row shares (a matrix's singular values are the bits of its row in a
    batched call); any other stack takes one call per block of ``_blocks``.
    """
    if vs.strides[0] == 0:
        low = conorm(vs[:1])
    else:
        low = np.empty(len(vs))
        for block in _blocks(len(vs), vs.shape[1] * vs.shape[2]):
            low[block] = conorm(vs[block])
    return np.maximum(low - radii, 0.0)


def _singleton_witness(v, radius):
    # v less radius times the outer product of its minimal singular pair,
    # from one thin SVD: a member of {v} + radius * ball whose co-norm is
    # the bound (v itself when radius is 0)
    if radius == 0.0:
        return v.copy()
    u, _, vt = np.linalg.svd(v, full_matrices=False)
    return v - radius * (u[:, -1:] * vt[-1:, :])


def _stack_bounds(vertices, radii, net):
    """Bounds of each set co(vertices[i]) + radii[i] * ball of a (P, k, m, n)
    stack, as three arrays: lower, upper and certified.

    The singleton sets (one vertex, or all vertices equal) are exact and
    share one ``_singleton_values`` pass; a one-vertex stack goes there
    whole, without a copy.  Every other set gets its own mesh or sampled
    bound.  No witness is built: ``set_conorm_bounds`` builds the one of a
    single set.
    """
    if not (net > 0):
        raise ValueError("net must be > 0")
    count = len(vertices)
    if vertices.shape[1] == 1:
        lower = _singleton_values(vertices[:, 0], radii)
        return lower, lower, np.ones(count, dtype=bool)
    single = np.all(vertices == vertices[:, :1], axis=(1, 2, 3))
    lower, upper = np.empty(count), np.empty(count)
    certified = np.ones(count, dtype=bool)
    lower[single] = upper[single] = _singleton_values(vertices[single, 0],
                                                      radii[single])
    for i in np.flatnonzero(~single):
        lower[i], upper[i], certified[i], _ = _hull_bounds(vertices[i],
                                                           radii[i], net)
    return lower, upper, certified


def _compositions(k, subdivisions):
    """All c in N^k with sum(c) = subdivisions, as an int array.

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
    return np.column_stack([counts, left])


@functools.lru_cache(maxsize=8)
def _mesh(k, subdivisions):
    """The barycentric mesh of a k-vertex hull with its coarse index.

    Returns four read-only arrays, built once per (k, subdivisions):

    - ``weights`` (rows, k): c / subdivisions for every composition c;
    - ``coarse``: the rows whose first k - 1 counts are multiples of
      s = isqrt(subdivisions);
    - ``corner`` (rows, 2**(k - 1)): for each floor/ceil corner of a row's
      coarse cell (first k - 1 counts rounded down or up to multiples of s,
      the last one making up the sum), its position in ``coarse``.  A
      corner outside the simplex is replaced by the floor corner, which
      always lies inside;
    - ``steps`` (rows, 2**(k - 1)): ||c - c'||_1 from the row to that corner.

    The two tables hold at most MAX_MESH_POINTS * 2**(MAX_CERT_VERTICES - 1)
    entries each, fewer than the MAX_BATCH_ENTRIES of one block.
    """
    counts = _compositions(k, subdivisions)
    head = counts[:, :-1]
    s = math.isqrt(subdivisions)
    floor, rest = np.divmod(head, s)
    coarse = np.flatnonzero((rest == 0).all(axis=1))
    cell = np.zeros((subdivisions // s + 1,) * (k - 1), dtype=np.int32)
    cell[tuple(floor[coarse].T)] = np.arange(coarse.size)
    corner = np.empty((len(counts), 2 ** (k - 1)), dtype=np.int32)
    steps = np.empty_like(corner)
    for bits in range(2 ** (k - 1)):
        up = floor + (rest > 0) * (bits >> np.arange(k - 1) & 1)
        inside = s * up.sum(axis=1) <= subdivisions
        up = np.where(inside[:, None], up, floor)
        shift = head - s * up
        corner[:, bits] = cell[tuple(up.T)]
        steps[:, bits] = np.abs(shift).sum(axis=1) + np.abs(shift.sum(axis=1))
    tables = counts / subdivisions, coarse, corner, steps
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _pairs(k):
    # the index pairs i < j of k vertices, read-only: diam's differences
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=8)
def _samples(k):
    # the weights of a sampled bound: the k vertices, then 4,096 Dirichlet
    # points of a fixed seed
    rng = np.random.default_rng(0)
    weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=4096)])
    weights.flags.writeable = False
    return weights


def _combination_conorms(weights, vertices):
    # conorm(sum_i weights[p, i] * vertices[i]) for every row p, one batched
    # call per _blocks chunk; a row's value does not depend on its chunk
    values = np.empty(len(weights))
    for block in _blocks(len(weights), vertices.shape[1] * vertices.shape[2]):
        values[block] = conorm(np.einsum("pk,kij->pij", weights[block],
                                         vertices))
    return values


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
    and 4,096 fixed-seed Dirichlet weights.  A certified bound takes diam
    first, then the co-norms of the coarse sub-mesh, then those of the mesh
    rows the coarse minimum does not rule out (the module docstring gives
    the bound and its margin); the bits are those of the full mesh.  At the
    default net the 1,001-point mesh of a 2-vertex set has 33 coarse rows,
    and a Clarke set of a smooth map typically leaves a few dozen more.
    Samples, coarse rows and remaining rows are each evaluated in chunks of
    at most MAX_BATCH_ENTRIES matrix entries, one batched singular-value
    computation per chunk.  Meshes and samples are built once per vertex
    count and mesh size.

    The witness, a member of the set at which the bound is attained, is
    the minimal singular pair's rank-one perturbation for a singleton
    (one thin SVD) and the first minimal mesh or sample point otherwise.
    """
    vertices, radius = jset.vertices, jset.radius
    if (vertices == vertices[0]).all():
        value = _stack_bounds(vertices[:1][None], np.array([radius]), net)[0][0]
        return ConormBounds(value, value, True, net,
                            witness=_singleton_witness(vertices[0], radius))
    lower, upper, certified, witness = _hull_bounds(vertices, radius, net)
    return ConormBounds(lower, upper, certified, net, witness=witness)


def _hull_bounds(vertices, radius, net):
    # (lower, upper, certified, witness) of co(vertices) + radius * ball,
    # vertices not all equal
    if not (net > 0):
        raise ValueError("net must be > 0")
    k = len(vertices)
    # a mesh of MAX_MESH_POINTS subdivisions is over budget at every k >= 2;
    # clamping keeps the int of 1 / net finite for a subnormal net
    subdivisions = max(math.ceil(min(1.0 / net, MAX_MESH_POINTS)), 1)
    certifiable = (k <= MAX_CERT_VERTICES
                   and math.comb(subdivisions + k - 1, k - 1) <= MAX_MESH_POINTS)
    if certifiable:
        pairs = _pairs(k)
        diam = float(np.max(spectral_norm(vertices[pairs[0]]
                                          - vertices[pairs[1]])))
        weights, coarse, corner, steps = _mesh(k, subdivisions)
        coarse_values = _combination_conorms(weights[coarse], vertices)
        # each row's co-norm bound from its coarse corners (see the module
        # docstring); a row whose bound, less the margin, clears the coarse
        # minimum computes strictly above the mesh minimum and is skipped
        margin = 1e-9 * (1.0 + np.max(np.linalg.norm(vertices, axis=(1, 2))))
        bound = np.max(coarse_values[corner]
                       - steps * (diam / (2 * subdivisions)), axis=1)
        weights = weights[bound - margin <= coarse_values.min()]
    else:
        weights = _samples(k)
    values = _combination_conorms(weights, vertices)
    i = int(np.argmin(values))  # the first minimum in mesh order
    witness = np.einsum("pk,kij->pij", weights[i:i + 1], vertices)[0]
    upper = max(values[i] - radius, 0.0)
    if not certifiable:
        return 0.0, upper, False, witness
    return max(values[i] - net * diam - radius, 0.0), upper, True, witness


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
        bounds = set_conorm_bounds(build_set(model, x, provider, rng=rng), net)
        regular = bounds.certified and bounds.lower > 10.0 * net
        kind = "certified" if bounds.certified else "sampled"
        alpha = bounds.lower if bounds.certified else bounds.upper
        return RegularityReport(alpha, regular, kind, bounds.witness, 0.0)

    if radii is None:
        radii = [r * (1.0 + np.linalg.norm(x)) for r in (1.0, 0.1, 0.01)]
    if not radii:
        raise ValueError("radii must be nonempty")
    # per radius the first minimal value over x and its sampled points, with
    # its set; across radii the first maximal one
    per_radius, all_certified = [], True
    for r in radii:
        points = np.vstack([x, _uniform_ball(rng, x, r, SAMPLES_PER_RADIUS)])
        vertices, set_radii = build_sets(model, points, provider, rng=rng)
        lower, upper, certified = _stack_bounds(vertices, set_radii, net)
        values = np.where(certified, lower, upper)
        all_certified = all_certified and bool(certified.all())
        i = int(np.argmin(values))
        per_radius.append((values[i], r, vertices[i], set_radii[i]))
    alpha, r_used, chosen, chosen_radius = max(per_radius,
                                               key=lambda item: item[0])
    # the witness of the chosen set alone
    witness = set_conorm_bounds(
        PseudoJacobianSet._frozen(chosen, chosen_radius), net).witness
    regular = all_certified and alpha > 10.0 * net
    kind = "certified" if all_certified else "sampled"
    return RegularityReport(max(alpha, 0.0), regular, kind, witness, r_used)
