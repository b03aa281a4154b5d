"""Self-contained pairwise matching solver: spectral relaxation by power
iteration followed by Hungarian discretization.

The solver only sees the affinity matrix; it is a pluggable stand-in for
any stronger pairwise matcher, and the multi-graph layer treats it as a
black box returning one permutation per pair.

Both stages run on short vectors (n or n^2 entries, n up to a few dozen),
where a numpy call costs more than its arithmetic: the Hungarian loops run
on Python floats, and power iteration runs many pairs' dense K as one
stack, taking its norms as sqrt(w . w), the definition ``np.linalg.norm``
uses. Results are bit-identical to the plain per-pair numpy forms, which
the tests keep as references.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.sparse as sp

from .core import AffinityMatrix, Permutation

MAX_POWER_ITERS = 500
POWER_TOL = 1e-9   # stop once successive iterates differ by less in 2-norm

# ``solve_pairs`` power-iterates dense K in stacks of at most this many
# entries (1 MiB of float64), or one pair's K when it alone is larger.
STACK_ENTRIES = 1 << 17


def power_iteration(k):
    """Approximate principal eigenvector of a non-negative affinity matrix
    (an ``AffinityMatrix``, or anything its constructor accepts): the
    one-matrix case of ``stacked_power_iteration``."""
    data = (k if isinstance(k, AffinityMatrix) else AffinityMatrix(k)).data
    return stacked_power_iteration(data if sp.issparse(data) else data[None])[0]


def stacked_power_iteration(k):
    """Approximate principal eigenvectors of a (B, d, d) stack of dense
    non-negative matrices, or of one CSR matrix as B = 1; returns (B, d).

    Each matrix starts from the uniform positive vector (deterministic, no
    sign ambiguity) and normalizes to unit 2-norm each step, stopping once
    successive iterates differ by less than POWER_TOL. A matrix whose
    product vanishes (e.g. all-zero affinities) keeps its last iterate,
    which is non-negative and unit norm. A matrix that has not settled
    within MAX_POWER_ITERS emits one warning and returns its best iterate;
    the caller never sees an exception. Settled matrices leave the stack
    on the step they settle, so no step multiplies them again, and every
    vector equals the one its matrix gives alone: stacked ``matmul`` and
    ``vecdot`` round as the single-matrix products do.
    """
    csr = sp.issparse(k)
    dim = k.shape[-1]
    out = np.empty((1 if csr else k.shape[0], dim))
    live = np.arange(out.shape[0])
    v = np.full(out.shape, 1.0 / np.sqrt(dim))
    for _ in range(MAX_POWER_ITERS):
        w = (k @ v[0])[None] if csr else np.matmul(k, v[:, :, None])[:, :, 0]
        nrm = np.sqrt(np.vecdot(w, w))
        vanished = nrm == 0.0
        nrm[vanished] = 1.0
        w /= nrm[:, None]
        d = w - v
        settled = ~vanished & (np.sqrt(np.vecdot(d, d)) < POWER_TOL)
        stop = vanished | settled
        if stop.any():
            out[live[vanished]] = v[vanished]
            out[live[settled]] = w[settled]
            keep = ~stop
            live, w = live[keep], w[keep]
            if not live.size:
                return out
            k = k[keep]
        v = w
    out[live] = v
    for _ in live:
        warnings.warn("power iteration did not converge; returning best iterate")
    return out


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
    order as the vectorized form, so the result is bit-identical.
    """
    p = np.asarray(profit, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("profit matrix must be square")
    if not np.isfinite(p).all():
        raise ValueError("profit entries must be finite")
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
        while True:
            i0 = col_row[j0]
            row = cost[i0]
            ui = u[i0]
            delta = math.inf
            j1 = free[0]
            for j in free:
                m = minv[j]
                reduced = row[j] - ui - v[j]
                if reduced < m:
                    minv[j] = m = reduced
                    way[j] = j0
                if m < delta:
                    delta = m
                    j1 = j
            for j in used:
                u[col_row[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != n:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    return Permutation(np.argsort(col_row[:n]))


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


def solve_pairs(kset, pairs):
    """``solve_pairwise(kset.get(i, j))`` for every listed pair (i, j) of
    an ``AffinitySet``, as a dict keyed by pair and equal bit for bit.

    Pairs whose K is dense are solved in stacks of STACK_ENTRIES entries,
    each built by ``dense_stack`` and power-iterated as one; CSR pairs are
    solved one by one. Discretization stays per pair.
    """
    n = kset.n
    out, dense = {}, []
    for p in pairs:
        if kset.is_dense(*p):
            dense.append(p)
        else:
            out[p] = solve_pairwise(kset.get(*p))
    step = max(1, STACK_ENTRIES // n ** 4)
    for s in range(0, len(dense), step):
        chunk = dense[s:s + step]
        i, j = np.array(chunk).T
        for pair, v in zip(chunk, stacked_power_iteration(kset.dense_stack(i, j))):
            out[pair] = hungarian(v.reshape((n, n), order="F"))
    return out
