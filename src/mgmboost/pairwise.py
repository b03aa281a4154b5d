"""Self-contained pairwise matching solver: spectral relaxation by power
iteration followed by Hungarian discretization.

The solver only sees the affinity matrix; it is a pluggable stand-in for
any stronger pairwise matcher, and the multi-graph layer treats it as a
black box returning one permutation per pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import AffinityMatrix, Permutation


@dataclass(frozen=True)
class SolverOptions:
    max_power_iters: int = 500
    tol: float = 1e-9

    def __post_init__(self):
        if self.max_power_iters < 1:
            raise ValueError("max_power_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def power_iteration(k, opts=None):
    """Approximate principal eigenvector of a non-negative matrix.

    Starts from the uniform positive vector (deterministic, no sign
    ambiguity) and normalizes to unit 2-norm each step. If the iteration
    has not settled within max_power_iters a warning is emitted and the
    best iterate is returned; the caller never sees an exception.
    """
    opts = opts or SolverOptions()
    mat = k if isinstance(k, AffinityMatrix) else None
    data = mat.data if mat is not None else np.asarray(k, dtype=float)
    dim = data.shape[0]
    v = np.full(dim, 1.0 / np.sqrt(dim))
    for _ in range(opts.max_power_iters):
        w = data @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            # K annihilates v (e.g. all-zero affinities): v is as good a
            # fixed point as any, and it is non-negative and unit norm.
            return v
        w /= nrm
        if np.linalg.norm(w - v) < opts.tol:
            return w
        v = w
    warnings.warn("power iteration did not converge; returning best iterate")
    return v


def hungarian(profit):
    """Permutation maximizing the total profit of a square assignment.

    Augmenting-path implementation with potentials, O(n^3). Rows are
    processed in ascending order and column scans pick the first minimum,
    so ties resolve deterministically toward low indices.
    """
    p = np.asarray(profit, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("profit matrix must be square")
    if not np.isfinite(p).all():
        raise ValueError("profit entries must be finite")
    n = p.shape[0]
    cost = -p
    u = np.zeros(n)            # row potentials
    v = np.zeros(n + 1)        # column potentials, virtual column last
    col_row = np.full(n + 1, -1, dtype=np.int64)   # row matched to column
    way = np.zeros(n + 1, dtype=np.int64)
    for r in range(n):
        col_row[n] = r
        j0 = n
        minv = np.full(n, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            free = ~used[:n]
            reduced = cost[i0, :n] - u[i0] - v[:n]
            better = free & (reduced < minv)
            minv[better] = reduced[better]
            way[:n][better] = j0
            scan = np.where(free, minv, np.inf)
            j1 = int(np.argmin(scan))
            delta = scan[j1]
            used_cols = np.flatnonzero(used)
            u[col_row[used_cols]] += delta
            v[used_cols] -= delta
            minv[free] -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    perm = np.empty(n, dtype=np.int64)
    perm[col_row[:n]] = np.arange(n)
    return Permutation(perm)


def solve_pairwise(k, opts=None):
    """Match two graphs from their affinity matrix.

    Power-iterates K to its principal eigenvector (the spectral relaxation
    of the quadratic assignment objective), reshapes it to an n x n score
    grid, and discretizes with the Hungarian method. Always returns a
    feasible permutation, whatever the conditioning of K.
    """
    opts = opts or SolverOptions()
    if not isinstance(k, AffinityMatrix):
        k = AffinityMatrix(np.asarray(k, dtype=float))
    v = power_iteration(k, opts)
    scores = v.reshape((k.n, k.n), order="F")
    return hungarian(scores)
