"""Co-norm bounds over pseudo-Jacobian sets and the regularity index.

Certification rests on 1-Lipschitzness of the smallest singular value in
spectral norm: covering the vertex simplex with a barycentric mesh of size
``net`` bounds the co-norm over the whole hull from below by the mesh
minimum minus net * diam(vertices).

The mesh minimum is found in three levels, after Piyavskii and Shubert's
Lipschitz bounding (B. O. Shubert, SIAM J. Numer. Anal. 9, 1972).  Moving
the weights from w' to w moves the combination by sum_i (w_i - w'_i) V_i,
and since those differences sum to 0 its norm is at most
||w - w'||_1 * diam / 2.  The levels take the rows whose first k - 1
counts are multiples of r**2, then of r, then all the rest, with r the
integer nearest subdivisions ** (1/3) (100, 10 and 1 at the default 1,000
subdivisions).  The first level is decomposed whole.  Each later level
bounds its rows from the floor/ceil corners of their cell on the previous
level's stride: low[corner] - ||c - c'||_1 * diam / (2 * subdivisions),
where low is a decomposed corner's co-norm or a pruned corner's own bound.
Only the rows whose bound, less a rounding margin of 1e-9 * (1 + the
largest vertex Frobenius norm), does not clear the running minimum are
decomposed.

The bound, the upper bound and the witness (the first minimal row in mesh
order) are those of the full mesh to the bit.  A pruned row's bound is a
chain of at most two Lipschitz steps down from a decomposed row of the
first level, since every corner of a second-level row is one.  Each link
can differ from exact arithmetic only by what einsum, LAPACK and the bound
itself round, and the two links together stay far below the margin.  So a
pruned row would have computed strictly above the running minimum, hence
above the mesh minimum; and a row's value does not depend on the rows
decomposed with it.  The margin only decides how many rows are
decomposed.

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

from . import linalg
from .linalg import as_vector, conorm
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
    if single.any():
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
    """The barycentric mesh of a k-vertex hull, cut into levels.

    Returns two things, built once per (k, subdivisions), whose arrays are
    read-only: ``weights`` (rows, k), c / subdivisions for every
    composition c in mesh order, and ``levels``, coarsest first.  The
    levels' strides are r**2, r and 1, with r the integer nearest
    subdivisions ** (1/3) and at least 2 (100, 10 and 1 at the default
    1,000 subdivisions); a stride of subdivisions or more makes no level.
    A row belongs to the first level whose stride divides its first k - 1
    counts, so the rows of the earlier levels are the points of the
    previous level's grid.  Each level is (rows, corner, steps):

    - ``rows``: the level's positions in mesh order;
    - ``corner`` (2**(k - 1), len(rows)): for each floor/ceil corner of a
      row's cell on the previous level's stride s (first k - 1 counts
      rounded down or up to multiples of s, the last one making up the
      sum), that corner's position in mesh order.  A corner outside the
      simplex is replaced by the floor corner, which always lies inside;
    - ``steps``, shaped like ``corner``: ||c - c'||_1 from the row to that
      corner.  The long axis comes last, so the maximum over the corners
      runs along it.

    The first level has None for corner and steps.  The tables hold at
    most MAX_MESH_POINTS * 2**(MAX_CERT_VERTICES - 1) entries each, fewer
    than the MAX_BATCH_ENTRIES of one block.
    """
    counts = _compositions(k, subdivisions)
    head = counts[:, :-1]
    r = max(round(subdivisions ** (1 / 3)), 2)
    strides = [s for s in (r * r, r) if s < subdivisions] + [1]
    grid = np.flatnonzero((head % strides[0] == 0).all(axis=1))
    levels = [(grid, None, None)]
    for s, fine in zip(strides, strides[1:]):
        on = np.flatnonzero((head % fine == 0).all(axis=1))
        rows = on[(head[on] % s != 0).any(axis=1)]
        floor, rest = np.divmod(head[rows], s)
        cell = np.zeros((subdivisions // s + 1,) * (k - 1), dtype=np.int32)
        cell[tuple((head[grid] // s).T)] = grid
        corner = np.empty((2 ** (k - 1), rows.size), dtype=np.int32)
        steps = np.empty_like(corner)
        for bits in range(2 ** (k - 1)):
            up = floor + (rest > 0) * (bits >> np.arange(k - 1) & 1)
            inside = s * up.sum(axis=1) <= subdivisions
            up = np.where(inside[:, None], up, floor)
            shift = head[rows] - s * up
            corner[bits] = cell[tuple(up.T)]
            steps[bits] = np.abs(shift).sum(axis=1) + np.abs(shift.sum(axis=1))
        levels.append((rows, corner, steps))
        grid = on
    weights = counts / subdivisions
    for table in (weights, *(a for level in levels for a in level
                             if a is not None)):
        table.flags.writeable = False
    return weights, tuple(levels)


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


def _combination_conorms(weights, vertices, lead=None):
    # (conorm(sum_i weights[p, i] * vertices[i]) for every row p, the
    # largest singular value of each matrix of lead), one batched call per
    # _blocks chunk with the lead stack ahead of the combinations; a wide
    # combination's co-norm is 0 and is not decomposed.  A matrix's
    # singular values do not depend on its chunk.
    lead = vertices[:0] if lead is None else lead
    m, n = vertices.shape[1:]
    count = len(lead) + (len(weights) if n <= m else 0)
    parts = [np.empty((0, min(m, n)))]
    for block in _blocks(count, m * n):
        rows = weights[max(block.start - len(lead), 0):
                       max(block.stop - len(lead), 0)]
        parts.append(linalg.singular_values(np.concatenate(
            [lead[block], np.einsum("pk,kij->pij", rows, vertices)])))
    values = np.concatenate(parts)
    if n > m:
        return np.zeros(len(weights)), values[:, 0]
    return values[len(lead):, -1], values[:len(lead), 0]


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
    and 4,096 fixed-seed Dirichlet weights.  A certified bound decomposes
    the vertex pair differences, which give diam, with the first level of
    the mesh in one batched call, then the rows of each later level that
    the running minimum does not rule out (the module docstring gives the
    levels, the bound and its margin); the bits are those of the full mesh.
    At the default net the 1,001-point mesh of a 2-vertex set has levels
    of 11, 90 and 900 rows, and a Clarke set of a smooth map typically
    leaves a few rows of each later level.  Samples and the rows of each
    level are evaluated in chunks of at most MAX_BATCH_ENTRIES matrix
    entries, one batched singular-value computation per chunk.  Meshes
    and samples are built once per vertex count and mesh size.

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
        weights, low, diam = _mesh_conorms(vertices, subdivisions)
    else:
        weights = _samples(k)
        low, _ = _combination_conorms(weights, vertices)
    i = int(np.argmin(low))  # the first minimum in mesh order
    witness = np.einsum("pk,kij->pij", weights[i:i + 1], vertices)[0]
    upper = max(low[i] - radius, 0.0)
    if not certifiable:
        return 0.0, upper, False, witness
    return max(low[i] - net * diam - radius, 0.0), upper, True, witness


def _mesh_conorms(vertices, subdivisions):
    """(weights, low, diam) of the barycentric mesh of the vertices.

    ``low`` holds each mesh row's co-norm where the row was decomposed and
    its Lipschitz bound where it was pruned.  A pruned row's bound, less
    the margin, cleared the running minimum, so the first minimum of
    ``low`` is the full mesh's (the module docstring gives the argument).
    """
    weights, ((first, _, _), *levels) = _mesh(len(vertices), subdivisions)
    pairs = _pairs(len(vertices))
    low = np.empty(len(weights))
    low[first], tops = _combination_conorms(
        weights[first], vertices, vertices[pairs[0]] - vertices[pairs[1]])
    diam = float(np.max(tops))
    best = low[first].min()
    scale = diam / (2 * subdivisions)
    margin = 1e-9 * (1.0 + np.max(np.linalg.norm(vertices, axis=(1, 2))))
    for rows, corner, steps in levels:
        bound = (low[corner] - steps * scale).max(axis=0)
        low[rows] = bound
        rows = rows[bound - margin <= best]
        low[rows], _ = _combination_conorms(weights[rows], vertices)
        best = low[rows].min(initial=best)
    return weights, low, diam


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
