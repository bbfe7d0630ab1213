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

The bound, the upper bound and the member (the first minimal row in mesh
order) are those of the full mesh to the bit.  A pruned row's bound is a
chain of at most two Lipschitz steps down from a decomposed row of the
first level, since every corner of a second-level row is one.  Each link
can differ from exact arithmetic only by what einsum, LAPACK and the bound
itself round, and the two links together stay far below the margin.  So a
pruned row would have computed strictly above the running minimum, hence
above the mesh minimum; and a row's value does not depend on the rows
decomposed with it.  The margin only decides how many rows are
decomposed.

``_stack_bounds`` is the one code that bounds a set.  It bounds every set
of a (P, k, m, n) stack in one pass that returns four arrays: lower and
upper bounds, certified flags and the members at which each co-norm
minimum is attained (a singleton's vertex, a hull's first minimal mesh or
sample point).  Singleton sets take their co-norms from singular values
alone.  A stack with stride 0 on its row axis (a ``np.broadcast_to`` view
of a constant derivative) holds one operator in every row, so it takes
one ``conorm`` call of that operator; any other stack takes one call per
block.  ``set_conorm_bounds`` is its one-set case.  ``_set_values`` builds
and bounds the sets at a stack of points, one ``build_sets`` call and one
pass per block, and keeps the radius and member of the first minimum; the
regularity index (at x alone under the USC shortcut, else at x and the
points of each shrinking ball) and the sampled Hadamard profile both call
it.  A witness is made only for the one set a report names, from its
member and radius r by one rule for every set (``_witness``): at r = 0 the
member itself, else the member less min(r, its smallest singular value)
times the outer product of its minimal singular pair, one thin SVD.  The
witness is then a member of the set whose co-norm is the set's upper
bound.
"""

import functools
import math

import numpy as np

from . import linalg
from .linalg import as_vector, conorm
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


def _stack_bounds(vertices, radii, net):
    """Bounds of each set co(vertices[i]) + radii[i] * ball of a (P, k, m, n)
    stack, as four arrays: lower, upper, certified and members.

    ``members[i]`` is the member of set i at which its co-norm minimum is
    attained, before the ball: a singleton's vertex, or a hull's first
    minimal mesh or sample point.  The singleton sets (one vertex, or all
    vertices equal) are exact and share one ``_singleton_values`` pass; a
    one-vertex stack goes there whole, without a copy.  Every other set
    gets its own mesh or sampled bound, ``_hull_bounds``.
    """
    if not (net > 0):
        raise ValueError("net must be > 0")
    count = len(vertices)
    if vertices.shape[1] == 1:
        lower = _singleton_values(vertices[:, 0], radii)
        return lower, lower, np.ones(count, dtype=bool), vertices[:, 0]
    single = (vertices == vertices[:, :1]).all(axis=(1, 2, 3))
    # the singletons' values in stack order, with no SVD call when none is
    exact = iter(_singleton_values(vertices[single, 0], radii[single])
                 if single.any() else ())
    bounds = [(value := next(exact), value, True, vs[0]) if one
              else _hull_bounds(vs, r, net)
              for vs, r, one in zip(vertices, radii, single)]
    return tuple(map(np.array, zip(*bounds)))


def _set_values(model, provider, points, net, rng):
    """The provider's sets at a (P, dim_in) stack of points, bounded.

    One ``build_sets`` call and one ``_stack_bounds`` pass per ``_blocks``
    block of whole points (a set is k operators of m x n entries, k the
    Clarke sample count and 1 for every other provider).  Returns three
    things: each point's value, its certified lower bound or else its
    sampled upper bound; whether every bound was certified; and the first
    minimal value with its set's radius and member, as (value, radius,
    member), from which ``_witness`` makes the witness.
    """
    k = provider.m if provider.kind == "clarke" else 1
    parts, firsts, certified_all = [], {}, True
    for block in _blocks(len(points), k * model.dim_out * model.dim_in):
        vertices, radii = build_sets(model, points[block], provider, rng=rng)
        values, upper, certified, members = _stack_bounds(vertices, radii, net)
        if not certified.all():
            values, certified_all = np.where(certified, values, upper), False
        # the first minimum of all the values is its block's first minimum
        i = int(values.argmin())
        firsts[block.start + i] = values[i], radii[i], members[i]
        parts.append(values)
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return values, certified_all, firsts[int(values.argmin())]


def _witness(radius, member):
    # the witness a report names: a member of the set whose co-norm is the
    # set's upper bound max(conorm(member) - radius, 0).  At radius 0 that
    # is the member itself; otherwise the member less min(radius, its
    # smallest singular value) times the outer product of its minimal
    # singular pair (one thin SVD)
    if radius == 0.0:
        return np.array(member)
    u, s, vt = np.linalg.svd(member, full_matrices=False)
    return member - min(radius, s[-1]) * (u[:, -1:] * vt[-1:, :])


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

    This is the one-set case of ``_stack_bounds``.  The witness is made
    from the pass's member by the rule of ``_witness``: a member of the set
    whose co-norm is the upper bound, the member itself at radius 0 and
    else its minimal singular pair's rank-one step towards singularity (one
    thin SVD).
    """
    lower, upper, certified, members = _stack_bounds(
        jset.vertices[None], np.array([jset.radius]), net)
    return ConormBounds(lower[0], upper[0], certified[0], net,
                        witness=_witness(jset.radius, members[0]))


def _hull_bounds(vertices, radius, net):
    # (lower, upper, certified, member) of co(vertices) + radius * ball,
    # vertices not all equal, net > 0: the member is the first minimal
    # mesh or sample point
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
    member = np.einsum("pk,kij->pij", weights[i:i + 1], vertices)[0]
    upper = max(low[i] - radius, 0.0)
    if not certifiable:
        return 0.0, upper, False, member
    return max(low[i] - net * diam - radius, 0.0), upper, True, member


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

    For each radius r, the set at x and, for r > 0, at SAMPLES_PER_RADIUS
    points sampled in the ball B(x, r) are bounded (``_set_values``), and
    the index is the max over r of the per-radius minima.  Under upper
    semicontinuity the index equals the hull co-norm infimum at x, so
    ``use_usc_shortcut`` takes the single radius 0, whose only point is x;
    otherwise the radii are ``radii``, by default 1, 0.1 and 0.01 times
    1 + ||x||.  The witness comes from the set of the first minimum at the
    first maximal radius, by the rule of ``_witness``.

    The ``regular`` verdict requires every bound to be certified and the
    index to clear the numerical-singularity margin 10 * net.
    """
    x = as_vector(x)
    rng = np.random.default_rng(rng)
    if use_usc_shortcut:
        radii = [0.0]
    elif radii is None:
        radii = [r * (1.0 + np.linalg.norm(x)) for r in (1.0, 0.1, 0.01)]
    if not radii:
        raise ValueError("radii must be nonempty")
    # per radius the first minimal value, with its set; across radii the
    # first maximal one
    best, certified_all = None, True
    for r in radii:
        points = x[None] if use_usc_shortcut else np.vstack(
            [x, _uniform_ball(rng, x, r, SAMPLES_PER_RADIUS)])
        _, certified, (value, *chosen) = _set_values(model, provider, points,
                                                     net, rng)
        certified_all = certified_all and certified
        if best is None or value > best[0]:
            best = value, r, chosen
    alpha, r_used, chosen = best
    regular = certified_all and alpha > 10.0 * net
    kind = "certified" if certified_all else "sampled"
    return RegularityReport(max(alpha, 0.0), regular, kind, _witness(*chosen),
                            r_used)
