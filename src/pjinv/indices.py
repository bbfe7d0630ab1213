"""Co-norm bounds over pseudo-Jacobian sets and the regularity index.

Certification rests on 1-Lipschitzness of the smallest singular value in
spectral norm: covering the vertex simplex with a barycentric mesh of size
``net`` bounds the co-norm over the whole hull from below by the mesh
minimum minus net * diam(vertices).

The mesh minimum is found in three levels, after Piyavskii and Shubert's
Lipschitz bounding (B. O. Shubert, SIAM J. Numer. Anal. 9, 1972).  The
levels take the rows whose first k - 1 counts are multiples of r**2, then
of r, then all the rest, with r the integer nearest subdivisions ** (1/3)
(100, 10 and 1 at the default 1,000 subdivisions).  The first level is
decomposed whole.  Each later level bounds its rows from the floor/ceil
corners of their cell on the previous level's stride, where a corner's
value low is its co-norm if it was decomposed and its own bound if it was
pruned, by the larger of two bounds:

- first order: moving the weights from w' to w moves the combination by
  sum_i (w_i - w'_i) V_i, and since those differences sum to 0 its norm
  is at most ||w - w'||_1 * diam / 2.  So a row is bounded by
  low[corner] - ||c - c'||_1 * diam / (2 * subdivisions) for each corner;
- the chord, second order: for a convex combination C = sum_j lam_j A_j
  and a unit vector x, ||Cx||^2 = sum_j lam_j ||A_j x||^2 -
  sum_j lam_j ||(A_j - C) x||^2 (the variance identity; for two
  endpoints, (1 - t) ||Ax||^2 + t ||Bx||^2 - t (1 - t) ||(A - B) x||^2).
  A row is the combination of its cell's corners by their multilinear
  weights lam_j, and ||A_j - C|| is at most steps_j * diam /
  (2 * subdivisions), so sigma_min(C)^2 >= sum_j lam_j l_j^2 -
  sum_j lam_j (steps_j * diam / (2 * subdivisions))^2 with
  l_j = max(low_j - margin, 0) <= sigma_min(A_j).  Its loss is of order
  (stride * diam / subdivisions)^2 where the first-order bound loses
  stride * diam / subdivisions.  A cell with a corner outside the simplex
  has no such combination and keeps the first-order bound alone.

Only the rows whose bound, less a rounding margin of 1e-9 * (1 + the
largest vertex Frobenius norm), does not clear the running minimum are
decomposed.  The chord is taken in units of 1 + that norm, where no square
overflows, and it gives up 1e-9 of each of its two sums: their terms round
within a few units of the last place (the weights, squares and sums), and
LAPACK's diam within a modest multiple of the dimension; a square that
underflows moves the bound by less than 1e-150 units, far below the
margin.

The bound, the upper bound and the member (the first minimal row in mesh
order) are those of the full mesh to the bit.  A pruned row's bound is a
chain of at most two steps, first order or chord, down from a decomposed
row of the first level, since every corner of a second-level row is one.
Each link can differ from exact arithmetic only by what einsum, LAPACK and
the bound itself round, and the two links together stay far below the
margin.  So a pruned row would have computed strictly above the running
minimum, hence above the mesh minimum; and a row's value does not depend
on the rows decomposed with it.  The margin only decides how many rows are
decomposed.

``_stack_bounds`` is the one code that bounds a set.  It bounds every set
of a (P, k, m, n) stack in one pass that returns four arrays: lower and
upper bounds, certified flags and the members at which each co-norm
minimum is attained (a singleton's vertex, a hull's first minimal mesh or
sample point).  Singleton sets take their co-norms from singular values
alone.  A stack with stride 0 on its row axis (a ``np.broadcast_to`` view
of a constant derivative) holds one operator in every row, so it takes
one ``conorm`` call of that operator; any other stack takes one call per
block.  The other sets share one pass over the mesh (a sampled bound's
vertices and samples are a mesh of one level), level by level: the first
level of every set, with its vertex differences, goes into one batched
singular-value call, and each later level into one call for the rows that
survive in any set, a block of sets and a chunk of matrices at a time
within MAX_BATCH_ENTRIES.  A matrix's singular values do not depend
on its batch, so the pass has the bits of one set at a time.
``set_conorm_bounds`` is its one-set case.  ``_set_values`` builds
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

import bisect
import functools
import itertools
import math
import sys

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
# the relative rounding allowance of the mesh bounds' margins
ROUNDING = 1e-9
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
    one-vertex stack goes there whole, without a copy.  The other sets
    share one ``_hull_bounds`` pass.
    """
    if not (net > 0):
        raise ValueError("net must be > 0")
    count = len(vertices)
    if vertices.shape[1] == 1:
        lower = _singleton_values(vertices[:, 0], radii)
        return lower, lower, np.ones(count, dtype=bool), vertices[:, 0]
    single = (vertices == vertices[:, :1]).all(axis=(1, 2, 3))
    # a stack of hulls alone, such as one set, skips the copy of its
    # vertices and the scatters below: about 7 % of a 2-vertex bound
    if not single.any():
        return _hull_bounds(vertices, radii, net)
    lower, upper = np.empty(count), np.empty(count)
    certified = np.ones(count, dtype=bool)
    members = np.empty((count,) + vertices.shape[2:])
    lower[single] = upper[single] = _singleton_values(vertices[single, 0],
                                                      radii[single])
    members[single] = vertices[single, 0]
    hull = ~single
    if hull.any():
        (lower[hull], upper[hull], certified[hull],
         members[hull]) = _hull_bounds(vertices[hull], radii[hull], net)
    return lower, upper, certified, members


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

    Returns three things, built once per (k, subdivisions), whose arrays
    are read-only: ``weights`` (rows, k), c / subdivisions for every
    composition c in mesh order; ``first``, the positions of the first
    level's rows; and ``levels``, the later levels, coarsest first.  The
    levels' strides are r**2, r and 1, with r the integer nearest
    subdivisions ** (1/3) and at least 2 (100, 10 and 1 at the default
    1,000 subdivisions); a stride of subdivisions or more makes no level.
    A row belongs to the first level whose stride divides its first k - 1
    counts, so the rows of the earlier levels are the points of the
    previous level's grid.  Each later level is (rows, corner, steps,
    lam, spread):

    - ``rows``: the level's positions in mesh order;
    - ``corner`` (2**(k - 1), len(rows)): for each floor/ceil corner of a
      row's cell on the previous level's stride s (first k - 1 counts
      rounded down or up to multiples of s, the last one making up the
      sum), that corner's position in mesh order.  A corner outside the
      simplex is replaced by the floor corner, which always lies inside;
    - ``steps``, shaped like ``corner``: ||c - c'||_1 from the row to that
      corner.  The long axis comes last, so the maximum over the corners
      runs along it;
    - ``lam``, shaped like ``corner``: the multilinear weights of the row
      in its cell, prod_d t_d or 1 - t_d with t_d the d-th count's offset
      from the floor over s, which sum to 1 and combine the corners' counts
      into the row's.  A cell with a corner outside the simplex has all
      weights 0;
    - ``spread`` (len(rows),): sum_j lam_j * steps_j**2.

    The tables hold at most MAX_MESH_POINTS * 2**(MAX_CERT_VERTICES - 1)
    entries each, fewer than the MAX_BATCH_ENTRIES of one block.
    """
    counts = _compositions(k, subdivisions)
    head = counts[:, :-1]
    r = max(round(subdivisions ** (1 / 3)), 2)
    strides = [s for s in (r * r, r) if s < subdivisions] + [1]
    grid = first = np.flatnonzero((head % strides[0] == 0).all(axis=1))
    levels = []
    for s, fine in zip(strides, strides[1:]):
        on = np.flatnonzero((head % fine == 0).all(axis=1))
        rows = on[(head[on] % s != 0).any(axis=1)]
        floor, rest = np.divmod(head[rows], s)
        t = rest / s
        cell = np.zeros((subdivisions // s + 1,) * (k - 1), dtype=np.int32)
        cell[tuple((head[grid] // s).T)] = grid
        corner = np.empty((2 ** (k - 1), rows.size), dtype=np.int32)
        steps, lam = np.empty(corner.shape), np.empty(corner.shape)
        whole = np.ones(rows.size, dtype=bool)
        for bits in range(2 ** (k - 1)):
            bit = bits >> np.arange(k - 1) & 1
            up = floor + (rest > 0) * bit
            inside = s * up.sum(axis=1) <= subdivisions
            whole &= inside
            up = np.where(inside[:, None], up, floor)
            shift = head[rows] - s * up
            corner[bits] = cell[tuple(up.T)]
            steps[bits] = np.abs(shift).sum(axis=1) + np.abs(shift.sum(axis=1))
            lam[bits] = np.where(bit, t, 1.0 - t).prod(axis=1)
        lam[:, ~whole] = 0.0
        spread = (lam * steps ** 2).sum(axis=0)
        levels.append((rows, corner, steps, lam, spread))
        grid = on
    weights = counts / subdivisions
    for table in (weights, first, *(a for level in levels for a in level)):
        table.flags.writeable = False
    return weights, first, tuple(levels)


@functools.lru_cache(maxsize=8)
def _pairs(k):
    # the index pairs i < j of k vertices, read-only: diam's differences
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


@functools.lru_cache(maxsize=8)
def _samples(k):
    # the weights of a sampled bound, laid out as a mesh of one level: the
    # k vertices, then 4,096 Dirichlet points of a fixed seed
    rng = np.random.default_rng(0)
    weights = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=4096)])
    rows = np.arange(len(weights))
    weights.flags.writeable = rows.flags.writeable = False
    return weights, rows, ()


def _combination_conorms(vertices, counts, weights, lead):
    # (conorm(sum_i weights[p, i] * vertices[s, i]) for every row p, the
    # rows of set s being counts[s] rows that come in set order, and the
    # largest singular value of each matrix of lead), one batched call per
    # _blocks chunk with the lead stack ahead of the combinations; a wide
    # combination's co-norm is 0 and is not decomposed.  Each set's run of
    # rows in a chunk is one einsum, written into the chunk's stack.  A
    # matrix's singular values do not depend on its chunk, and a
    # combination's entries not on the rows einsum takes with it.
    m, n = vertices.shape[2:]
    conorms, tops = np.zeros(len(weights)), np.empty(len(lead))
    count = len(lead) + (len(weights) if n <= m else 0)
    ends, s = list(itertools.accumulate(counts)), 0
    for block in _blocks(count, m * n):
        stack = np.empty((block.stop - block.start, m, n))
        head = lead[block]
        stack[:len(head)] = head
        base = block.start - len(lead)  # the row at stack position 0
        row, stop = max(base, 0), block.stop - len(lead)
        while row < stop:
            s = bisect.bisect_right(ends, row, s)  # the set of this row
            end = min(ends[s], stop)
            np.einsum("pk,kij->pij", weights[row:end], vertices[s],
                      out=stack[row - base:end - base])
            row = end
        values = linalg.singular_values(stack)
        tops[block.start:block.start + len(head)] = values[:len(head), 0]
        conorms[max(base, 0):max(stop, 0)] = values[len(head):, -1]
    return conorms, tops


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
    neither the first-order nor the chord bound rules out against the
    running minimum.  The chord bound takes each corner's value less the
    margin, clamped at 0, and gives up 1e-9 of its squared terms to
    rounding (the module docstring gives the levels, both bounds and the
    argument); the bits are those of the full mesh.  At the default net
    the 1,001-point mesh of a 2-vertex set has levels of 11, 90 and 900
    rows, and for a Clarke set of a smooth map the chord typically rules
    out every later row: one call of 12 matrices.  Samples and the rows of
    each level are evaluated in chunks of at most MAX_BATCH_ENTRIES matrix
    entries, one batched singular-value computation per chunk.  Meshes and
    samples are built once per vertex count and mesh size.

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


def _hull_bounds(vertices, radii, net):
    # (lower, upper, certified, members) of the sets co(vertices[i]) +
    # radii[i] * ball of a (P, k, m, n) stack, no set's vertices all equal,
    # net > 0: each member is its set's first minimal mesh or sample point
    count, k = vertices.shape[:2]
    # a mesh of MAX_MESH_POINTS subdivisions is over budget at every k >= 2;
    # clamping keeps the int of 1 / net finite for a subnormal net
    subdivisions = max(math.ceil(min(1.0 / net, MAX_MESH_POINTS)), 1)
    certifiable = (k <= MAX_CERT_VERTICES
                   and math.comb(subdivisions + k - 1, k - 1) <= MAX_MESH_POINTS)
    mesh = _mesh(k, subdivisions) if certifiable else _samples(k)
    # a sampled bound takes no diam, so no vertex pair
    pairs = _pairs(k if certifiable else 1)
    low, rows, diam = _mesh_conorms(vertices, mesh, pairs, subdivisions)
    members = np.einsum("pk,pkij->pij", mesh[0][rows], vertices)
    upper = np.maximum(low - radii, 0.0)
    if not certifiable:
        return np.zeros(count), upper, np.zeros(count, dtype=bool), members
    return (np.maximum(low - net * diam - radii, 0.0), upper,
            np.ones(count, dtype=bool), members)


def _mesh_conorms(vertices, mesh, pairs, subdivisions):
    """(low, rows, diam) of a (P, k, m, n) stack of hulls over a mesh.

    For each set, ``low`` is the first minimum over the mesh rows and
    ``rows`` its position in mesh order; ``diam`` is the largest spectral
    norm of the differences of the vertex ``pairs`` (0 without pairs).
    The sets go a ``_blocks`` block at a time, sized so that the block's
    vertices, its vertex differences, and its table with the arrays of a
    level's bounds each stay within MAX_BATCH_ENTRIES entries.  Within a
    block each level is one ``_combination_conorms`` pass over the rows
    that survive in any set: the first level whole, with the vertex
    differences ahead of it, and each later level the rows whose bound,
    less the margin, does not clear their set's running minimum.  A row's
    entry of the block's table holds its co-norm where it was decomposed
    and its bound where it was pruned; a pruned bound cleared the running
    minimum, so the table's first minimum is the full mesh's (the module
    docstring gives the argument).
    """
    count, k, m, n = vertices.shape
    weights, first, levels = mesh
    low, diam = np.empty(count), np.empty(count)
    rows = np.empty(count, dtype=np.intp)
    # a level holds the table and three arrays of its corner table's size
    tables = [k * m * n, pairs[0].size * m * n,
              len(weights) + 3 * max((level[1].size for level in levels),
                                     default=0)]
    for block in _blocks(count, max(tables)):
        vs = vertices[block]
        size = len(vs)
        table = np.empty((size, len(weights)))
        lead = (vs[:, pairs[0]] - vs[:, pairs[1]]).reshape(-1, m, n)
        values, tops = _combination_conorms(
            vs, [first.size] * size, np.tile(weights[first], (size, 1)), lead)
        values = values.reshape(size, first.size)
        table[:, first] = values
        best = values.min(axis=1)
        diam[block] = tops.reshape(size, -1).max(axis=1, initial=0.0)
        scale = diam[block] / (2 * subdivisions)
        # 1 + the largest vertex Frobenius norm, at most the largest float:
        # a norm that overflows is inf, with no warning
        with np.errstate(over="ignore"):
            top = np.sqrt((vs * vs).sum(axis=(2, 3))).max(axis=1)
        unit = np.minimum(1.0 + top, sys.float_info.max)
        margin = ROUNDING * unit
        for level_rows, corner, steps, lam, spread in levels:
            bound = _level_bounds(table.take(corner, axis=1), steps, lam,
                                  spread, scale, unit)
            table[:, level_rows] = bound
            keep = bound <= (best + margin)[:, None]
            sets, kept = np.nonzero(keep)
            if sets.size:
                kept = level_rows[kept]
                table[sets, kept], _ = _combination_conorms(
                    vs, keep.sum(axis=1).tolist(), weights[kept], lead[:0])
                best = np.minimum(best, table[:, level_rows].min(axis=1))
        rows[block] = table.argmin(axis=1)  # the first minimum in mesh order
        low[block] = table[np.arange(size), rows[block]]
    return low, rows, diam


def _level_bounds(corners, steps, lam, spread, scale, unit):
    """Lower bounds on sigma_min at a level's rows for each set of a block,
    from ``corners`` (sets, 2**(k - 1), rows), a copy of the table's
    entries at the rows' cell corners, which it overwrites: the larger of
    the first-order and the chord bound (the module docstring gives both
    and their rounding).  The chord is taken in units of ``unit``, where no
    square overflows: 1 + the set's largest vertex Frobenius norm, or the
    largest float where that norm overflows, whose margin then prunes
    nothing.
    """
    lipschitz = (corners - steps * scale[:, None, None]).max(axis=1)
    corners -= ROUNDING * unit[:, None, None]
    np.maximum(corners, 0.0, out=corners)
    corners /= unit[:, None, None]
    corners *= corners
    chord = np.einsum("scr,cr->sr", corners, lam)
    chord *= 1.0 - ROUNDING
    chord -= spread * ((1.0 + ROUNDING) * (scale / unit) ** 2)[:, None]
    np.maximum(chord, 0.0, out=chord)
    np.sqrt(chord, out=chord)
    chord *= unit[:, None]
    return np.maximum(lipschitz, chord, out=chord)


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
