"""Self-contained pairwise matching solver: spectral relaxation by power
iteration followed by Hungarian discretization.

The solver only sees affinity matrices, dense or CSR as the affinity set
holds them (``AffinitySet._stacks`` decides, and stacks the dense ones);
it is a pluggable stand-in for any stronger pairwise matcher, and the
multi-graph layer treats it as a black box returning one permutation per
pair.

Both stages run on short vectors (n or n^2 entries, n up to a few dozen),
where a numpy call costs more than its arithmetic, so both batch across
pairs. Power iteration runs many pairs' dense K as one stack, taking its
norms as sqrt(w . w), the definition ``np.linalg.norm`` uses. The
Hungarian step runs one problem on Python floats, and LOCKSTEP_BATCH or
more problems at once on (B, n) arrays, one row at a time. Results are
bit-identical to the plain per-pair numpy forms, which the tests keep as
references.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import core
from .core import AffinityMatrix, Permutation, check_finite, issparse

MAX_POWER_ITERS = 500
POWER_TOL = 1e-9   # stop once successive iterates differ by less in 2-norm

# ``stacked_hungarian`` solves this many problems or more in lockstep and
# fewer one by one. Lockstep time over scalar time on power-iteration
# grids (x86-64, Python 3.11, numpy 2.4, min of 5) depends on B, not n:
# 1.4-1.5 at B = 16, 0.8-1.0 at 28, 0.7 at 48, 0.45 at 112, 0.3 at 496,
# for n = 8, 14 and 16.
LOCKSTEP_BATCH = 48


def power_iteration(k):
    """Approximate principal eigenvector of a non-negative affinity matrix
    (an ``AffinityMatrix``, or anything its constructor accepts): the
    one-matrix case of ``stacked_power_iteration``."""
    data = (k if isinstance(k, AffinityMatrix) else AffinityMatrix(k)).data
    return stacked_power_iteration(data if issparse(data) else data[None])[0]


def stacked_power_iteration(k):
    """Approximate principal eigenvectors of a (B, d, d) stack of dense
    non-negative matrices, or of one CSR matrix as B = 1; returns (B, d).

    Each matrix starts from the uniform positive vector (deterministic, no
    sign ambiguity) and normalizes to unit 2-norm each step, stopping once
    successive iterates differ by less than POWER_TOL. A matrix whose
    product vanishes (e.g. all-zero affinities) keeps its last iterate,
    which is non-negative and unit norm. A matrix that has not settled
    within MAX_POWER_ITERS emits one warning and returns its best iterate;
    the caller never sees an exception.

    A matrix that settles or vanishes records its output and stays in the
    stack, multiplied but unread; the stack is compacted to its live
    matrices only once at most half of its rows are live, so the copy is
    made O(log B) times rather than on nearly every step. A step tests
    its norms for a zero once, and keeps no live mask while every row is
    live, so most steps make about ten numpy calls. Every vector
    equals the one its matrix gives alone, whatever its neighbours:
    stacked ``matmul`` and ``vecdot`` round as the single-matrix products
    do.
    """
    csr = issparse(k)
    dim = k.shape[-1]
    out = np.empty((1 if csr else k.shape[0], dim))
    rows = np.arange(out.shape[0])          # output row of each stack row
    live = None                             # live stack rows; None while all are
    v = np.full(out.shape, 1.0 / np.sqrt(dim))
    for _ in range(MAX_POWER_ITERS):
        w = (k @ v[0])[None] if csr else np.matmul(k, v[:, :, None])[:, :, 0]
        nrm = np.sqrt(np.vecdot(w, w))
        vanished = None
        if not nrm.all():
            vanished = nrm == 0.0
            nrm[vanished] = 1.0
        w /= nrm[:, None]
        d = w - v
        # a vanished product finishes with its last iterate v; once dead,
        # with v = 0, it also reads as settled, which the live mask drops
        done = np.sqrt(np.vecdot(d, d)) < POWER_TOL
        if vanished is not None:
            done |= vanished
        if live is not None:
            done &= live
        if done.any():
            out[rows[done]] = (w if vanished is None
                               else np.where(vanished[:, None], v, w))[done]
            live = ~done if live is None else live & ~done
            n_live = np.count_nonzero(live)
            if not n_live:
                return out
            if 2 * n_live <= live.size:
                k, w, rows, live = k[live], w[live], rows[live], None
        v = w
    if live is not None:
        rows, v = rows[live], v[live]
    out[rows] = v
    for _ in range(len(rows)):
        warnings.warn("power iteration did not converge; returning best iterate")
    return out


def _profit_array(profit, ndim):
    """``profit`` as a float array of ``ndim`` dimensions whose last two
    are equal, with finite entries; raises naming the first entry that is
    not."""
    p = np.asarray(profit, dtype=float)
    if p.ndim != ndim or p.shape[-2] != p.shape[-1]:
        raise ValueError("profit matrix must be square")
    check_finite("profit", p)
    return p


def hungarian(profit):
    """Permutation maximizing the total profit of a square assignment.

    Augmenting-path implementation with potentials, O(n^3). Rows are
    processed in ascending order and column scans pick the first minimum,
    so ties resolve deterministically toward low indices.

    The loops run on Python lists of floats rather than numpy arrays. A
    column scan touches n entries, and done with numpy it costs about a
    dozen calls whose overhead outweighs the arithmetic for n <= 100: the
    scalar form is 4-5x faster at n = 8-16 and 1.4-1.6x at n = 100, and
    the two break even between n = 150 and 200 (x86-64, Python 3.11,
    numpy 2.4). Each step is the same IEEE double operation in the same
    order as the vectorized form, so the result is bit-identical; only
    the step's subtraction of delta from each free column's minimum is
    deferred to the next scan, which does it on the same values.
    """
    return Permutation(_scalar_assign(_profit_array(profit, 2)))


def _scalar_assign(p):
    """Index vector of ``hungarian`` for one validated (n, n) profit."""
    n = p.shape[0]
    cost = (-p).tolist()
    u = [0.0] * n              # row potentials
    v = [0.0] * (n + 1)        # column potentials, virtual column last
    col_row = [-1] * (n + 1)   # row matched to column
    way = [0] * (n + 1)
    for r in range(n):
        col_row[n] = r
        j0 = n
        minv = [math.inf] * n
        free = list(range(n))  # unused real columns, ascending
        used = [n]             # used columns, virtual column first
        last = 0.0             # the previous step's delta, not yet taken off minv
        while True:
            i0 = col_row[j0]
            row = cost[i0]
            ui = u[i0]
            delta = math.inf
            j1 = free[0]
            for j in free:
                m = minv[j] - last
                reduced = row[j] - ui - v[j]
                if reduced < m:
                    m = reduced
                    way[j] = j0
                minv[j] = m
                if m < delta:
                    delta = m
                    j1 = j
            for j in used:
                u[col_row[j]] += delta
                v[j] -= delta
            last = delta
            j0 = j1
            if col_row[j0] == -1:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != n:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    return np.argsort(col_row[:n])


def _lockstep_assign(p):
    """Index vectors of ``hungarian`` for a validated (B, n, n) profit
    stack, all B problems advancing together.

    Row r is searched in all problems at once. Each step does, for every
    problem still searching, the column scan of ``_scalar_assign`` as
    array operations: the same IEEE operations in the same order, and the
    first minimum by ``argmin``. A problem that reaches a free column is
    masked out until the row's augmentation, which then walks all paths
    together.
    """
    b, n = p.shape[:2]
    cost = -p
    at = np.arange(b)
    u = np.zeros((b, n))
    v = np.zeros((b, n + 1))
    col_row = np.full((b, n + 1), -1, dtype=np.intp)
    way = np.zeros((b, n + 1), dtype=np.intp)
    minv = np.empty((b, n))
    used = np.empty((b, n + 1), dtype=bool)   # used columns, virtual one last
    tree = np.empty((b, n), dtype=bool)       # rows matched to used columns
    for r in range(n):
        col_row[:, n] = r
        j0 = np.full(b, n)
        i0 = np.full(b, r)                    # row matched to column j0
        minv.fill(np.inf)
        used.fill(False)
        used[:, n] = True
        tree.fill(False)
        tree[:, r] = True
        act = np.ones((b, 1), dtype=bool)
        while True:
            reduced = cost[at, i0] - u[at, i0][:, None]
            reduced -= v[:, :n]
            free = ~used[:, :n]
            better = reduced < minv
            better &= free
            better &= act
            np.copyto(minv, reduced, where=better)
            np.copyto(way[:, :n], j0[:, None], where=better)
            j1 = np.where(free, minv, np.inf).argmin(axis=1)
            delta = minv[at, j1][:, None]
            np.add(u, delta, out=u, where=tree & act)
            np.subtract(v, delta, out=v, where=used & act)
            # a masked problem's minv is not read again before the next row
            np.subtract(minv, delta, out=minv, where=free)
            np.copyto(j0, j1, where=act[:, 0])
            i0 = col_row[at, j0]
            act[:, 0] &= i0 != -1
            grow = np.flatnonzero(act)
            if not grow.size:
                break
            used[grow, j0[grow]] = True
            tree[grow, i0[grow]] = True
        walk = np.flatnonzero(j0 != n)
        while walk.size:
            j1 = way[walk, j0[walk]]
            col_row[walk, j0[walk]] = col_row[walk, j1]
            j0[walk] = j1
            walk = walk[j1 != n]
    return np.argsort(col_row[:, :n], axis=1)


def stacked_hungarian(profits):
    """``hungarian(profits[b]).perm`` for each problem of a (B, n, n)
    profit stack, as one (B, n) index array, equal bit for bit.

    Stacks of LOCKSTEP_BATCH problems or more are solved in lockstep by
    ``_lockstep_assign``; smaller ones one by one on Python floats, which
    is 10-12x faster at B = 1. The stack is validated once.
    """
    p = _profit_array(profits, 3)
    if len(p) >= LOCKSTEP_BATCH:
        return _lockstep_assign(p)
    return np.array([_scalar_assign(x) for x in p], dtype=np.intp).reshape(p.shape[:2])


def solve_pairwise(k):
    """Match two graphs from their affinity matrix.

    Power-iterates K to its principal eigenvector (the spectral relaxation
    of the quadratic assignment objective), reshapes it to an n x n score
    grid, and discretizes with the Hungarian method. Always returns a
    feasible permutation, whatever the conditioning of K.
    """
    if not isinstance(k, AffinityMatrix):
        k = AffinityMatrix(k)
    scores = power_iteration(k).reshape((k.n, k.n), order="F")
    return hungarian(scores)


def solve_pairs(kset, i, j):
    """``solve_pairwise`` on the K of each pair (i[p], j[p]) of the index
    arrays ``i`` and ``j``, as one (P, n) index array, equal bit for bit.

    Pairs go in batches of ``core.STACK_ENTRIES`` profit entries. Each K
    or stack of K that ``kset._stacks`` yields is power-iterated by one
    call; a batch's score grids are discretized by ``stacked_hungarian``.
    """
    n = kset.n
    out = np.empty((len(i), n), dtype=np.int64)
    batch = max(1, core.STACK_ENTRIES // n ** 2)
    for s in range(0, len(i), batch):
        ci, cj = i[s:s + batch], j[s:s + batch]
        vecs = np.empty((len(ci), n * n))
        for rows, k in kset._stacks(ci, cj):
            vecs[rows] = stacked_power_iteration(k)
            del k   # so the next stack is built with this one freed
        out[s:s + batch] = stacked_hungarian(vecs.reshape(-1, n, n).transpose(0, 2, 1))
    return out
