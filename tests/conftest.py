"""Shared fixtures and independent reference implementations.

The naive functions here deliberately work on dense matrices with the
textbook formulas (explicit matrix products, squared-Frobenius norms,
dense vectorized quadratic forms) so they share no code path with the
optimized library internals they check.
"""

import itertools
import warnings

import numpy as np
import pytest

from mgmboost import (AffinityMatrix, MatchConfig, Permutation, SynthParams,
                      build_affinity_set, gen_random_graphs, gen_random_points)
from mgmboost.pairwise import MAX_POWER_ITERS, POWER_TOL


def sq_fro(m):
    """Squared Frobenius norm tr(M^T M)."""
    return float((np.asarray(m) ** 2).sum())


def naive_quad_form(x_matrix, k_dense):
    v = np.asarray(x_matrix).flatten(order="F")
    return float(v @ np.asarray(k_dense) @ v)


def naive_unary_consistency(k, cfg):
    mats = {(i, j): cfg.get(i, j).matrix for i in range(cfg.N) for j in range(cfg.N)}
    total = 0.0
    for i in range(cfg.N - 1):
        for j in range(i + 1, cfg.N):
            total += sq_fro(mats[(i, j)] - mats[(i, k)] @ mats[(k, j)]) / 2.0
    return 1.0 - total / (cfg.n * cfg.N * (cfg.N - 1) / 2.0)


def naive_pairwise_consistency(x, cfg, i, j):
    xm = x.matrix if isinstance(x, Permutation) else np.asarray(x)
    total = 0.0
    for k in range(cfg.N):
        total += sq_fro(xm - cfg.get(i, k).matrix @ cfg.get(k, j).matrix) / 2.0
    return 1.0 - total / (cfg.n * cfg.N)


def naive_candidate_consistency(cands, comps, keep_row=None):
    """Candidate consistency by comparing every (..., C, n) candidate row
    with every (..., N, n) composition: a (..., C, N, n) boolean array of
    row disagreements, masked by the (..., n) ``keep_row`` when given."""
    mism = cands[..., :, None, :] != comps[..., None, :, :]
    rows = cands.shape[-1]
    if keep_row is not None:
        mism = mism & keep_row[..., None, None, :]
        rows = keep_row.sum(axis=-1, keepdims=True)
    return 1.0 - mism.sum(axis=(-2, -1)) / (rows * comps.shape[-2])


def reference_compositions(table, i, j):
    """(N, n) compositions X_ik X_kj, or their (P, N, n) stack for arrays
    ``i`` and ``j``, by one fancy index over the (N, N, n) table:
    [k, u] = table[k, j, table[i, k, u]]."""
    k = np.arange(table.shape[0])[:, None]
    return table[k, np.asarray(j)[..., None, None], table[i]]


def naive_anchor_mismatch_counts(cfg, keep=None):
    """(N, N, N) row-disagreement counts: entry [k, i, j] compares X_ij
    with X_ik X_kj. With ``keep`` (an (N, n) boolean mask) only rows kept
    for the row graph i are counted. The whole count array at once, as the
    configuration metrics once built it."""
    table = cfg.perm_table()
    out = np.empty((cfg.N, cfg.N, cfg.N), dtype=np.int64)
    for k in range(cfg.N):
        a = table[:, k]          # a[i] = X_ik
        b = table[k]             # b[j] = X_kj
        mism = b[:, a].transpose(1, 0, 2) != table   # [i, j, u] = b[j, a[i, u]]
        if keep is not None:
            mism &= keep[:, None, :]
        out[k] = mism.sum(axis=2)
    return out


def naive_node_consistency(u, k, cfg):
    total = 0.0
    for i in range(cfg.N - 1):
        for j in range(i + 1, cfg.N):
            y = cfg.get(k, j).matrix - cfg.get(k, i).matrix @ cfg.get(i, j).matrix
            total += sq_fro(y[u, :]) / 2.0
    return 1.0 - total / (cfg.N * (cfg.N - 1) / 2.0)


def naive_node_affinity(u, k, cfg, kset):
    """vec(X^u)^T K vec(X): only the left factor keeps row u."""
    total = 0.0
    for i in range(cfg.N):
        if i == k:
            continue
        x = cfg.get(k, i).matrix
        masked = np.zeros_like(x)
        masked[u, :] = x[u, :]
        total += float(masked.flatten(order="F") @ kset.get(k, i).dense()
                       @ x.flatten(order="F"))
    return total


def naive_elicited_unary(k, cfg, est, keep):
    """Masked unary consistency with the printed normalizer n_est*N*(N-1)."""
    total = 0.0
    for i in range(cfg.N - 1):
        for j in range(i + 1, cfg.N):
            resid = cfg.get(i, j).matrix - cfg.get(i, k).matrix @ cfg.get(k, j).matrix
            resid = resid.copy()
            resid[~keep[i]] = 0.0
            total += (resid ** 2).sum()
    return 1.0 - total / (est.n_est * cfg.N * (cfg.N - 1))


def naive_elicited_pairwise(x, cfg, est, i, j, keep):
    """Masked pairwise consistency with the printed normalizer 2*n_est*N."""
    xm = x.matrix if isinstance(x, Permutation) else np.asarray(x)
    total = 0.0
    for k in range(cfg.N):
        resid = xm - cfg.get(i, k).matrix @ cfg.get(k, j).matrix
        resid = resid.copy()
        resid[~keep[i]] = 0.0
        total += (resid ** 2).sum()
    return 1.0 - total / (2.0 * est.n_est * cfg.N)


def brute_qap_best(k_dense, n):
    """Max quadratic-assignment score over all n! permutations."""
    best = -np.inf
    for perm in itertools.permutations(range(n)):
        x = np.zeros((n, n))
        x[np.arange(n), perm] = 1.0
        best = max(best, naive_quad_form(x, k_dense))
    return best


def brute_assignment_best(profit):
    """Max total assignment profit over all permutations."""
    p = np.asarray(profit)
    n = p.shape[0]
    return max(sum(p[r, c] for r, c in enumerate(perm))
               for perm in itertools.permutations(range(n)))


def spanning_tree_best(weights):
    """Max total weight over every spanning tree (edge-subset enumeration)."""
    w = np.asarray(weights)
    n = w.shape[0]
    edges = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    best = -np.inf
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for i, j in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            best = max(best, sum(w[i, j] for i, j in subset))
    return best


def stacked_matching_matrix(cfg):
    """(N n) x (N n) block matrix whose (i, j) block is X_ij."""
    n = cfg.n
    stack = np.zeros((cfg.N * n, cfg.N * n))
    for i in range(cfg.N):
        for j in range(cfg.N):
            stack[i * n:(i + 1) * n, j * n:(j + 1) * n] = cfg.get(i, j).matrix
    return stack


def naive_spectral_sync(cfg):
    """Spectral synchronization from the full eigendecomposition: the
    n leading eigenvectors, each block projected onto the first block
    and rounded to its best permutation by enumeration, and X_ij rebuilt
    as B_i B_j^T. Returns the configuration and the smallest margin
    between a block's best and second-best permutation totals."""
    n = cfg.n
    _, vecs = np.linalg.eigh(stacked_matching_matrix(cfg))
    lead = vecs[:, -n:]
    base = lead[:n]
    perms = [np.array(p) for p in itertools.permutations(range(n))]
    mats = [np.eye(n)]
    margin = np.inf
    for k in range(1, cfg.N):
        profit = lead[k * n:(k + 1) * n] @ base.T
        totals = np.array([profit[np.arange(n), p].sum() for p in perms])
        order = np.argsort(-totals, kind="stable")
        if len(perms) > 1:
            margin = min(margin, totals[order[0]] - totals[order[1]])
        mats.append(Permutation(perms[order[0]]).matrix)
    pairs = {(i, j): Permutation(np.argmax(mats[i] @ mats[j].T, axis=1))
             for i in range(cfg.N - 1) for j in range(i + 1, cfg.N)}
    return MatchConfig(cfg.N, n, pairs), margin


def reference_hungarian(profit):
    """The vectorized form of ``pairwise.hungarian``: the same
    shortest-augmenting-path algorithm with every column scan done by
    numpy array operations. Returns the index vector. The library form
    performs the same IEEE operations in the same order on Python floats,
    so the two must agree bit for bit."""
    cost = -np.asarray(profit, dtype=float)
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    col_row = np.full(n + 1, -1, dtype=np.int64)
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
    return perm


def reference_power_iteration(k):
    """Power iteration with both norms taken by ``np.linalg.norm``; the
    library computes them as sqrt(w . w), which must agree bit for bit."""
    data = k.data
    dim = data.shape[0]
    v = np.full(dim, 1.0 / np.sqrt(dim))
    for _ in range(MAX_POWER_ITERS):
        w = data @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return v
        w /= nrm
        if np.linalg.norm(w - v) < POWER_TOL:
            return w
        v = w
    warnings.warn("power iteration did not converge; returning best iterate")
    return v


def commuted_node_affinity_all(cfg, kset):
    """Node affinities from the explicit matrices ``kset.get(k, i)`` in
    both orientations (k > i is the commuted one): row sums of the dense
    submatrix touched by X_ki, added in ascending i."""
    t = cfg.perm_table()
    out = np.zeros((cfg.N, cfg.n))
    for k in range(cfg.N):
        for i in range(cfg.N):
            if i != k:
                idx = t[k, i] * cfg.n + np.arange(cfg.n)
                out[k] += kset.get(k, i).dense()[np.ix_(idx, idx)].sum(axis=1)
    return out


def builder_affinity_sets(seed):
    """Affinity sets from both builders: Gaussian edge affinities on random
    graphs at n = 8 and 14 and length+angle affinities on point sets with
    outliers at n = 10 and 17. K is dense at n <= 16, where the solver
    stacks two of them, and CSR below 1/3 full above: Delaunay K is 7-10%
    full at n = 17."""
    sets = []
    for inliers, (pt_inliers, pt_outliers) in ((8, (6, 4)), (14, (12, 5))):
        graphs = gen_random_graphs(SynthParams(n_graphs=4, inliers=inliers, deform=0.1,
                                               density=0.7, seed=seed))
        points = gen_random_points(SynthParams(n_graphs=4, inliers=pt_inliers,
                                               outliers=pt_outliers, deform=0.05,
                                               seed=seed))
        sets += [build_affinity_set(graphs, 0.05, "gauss"),
                 build_affinity_set(points, 0.05, "len_angle")]
    return sets


def corrupted_config(rng, n_graphs, n_nodes, flip):
    """A consistent configuration in which each stored pair is replaced,
    with probability ``flip``, by a uniformly random permutation."""
    basis = [rng.permutation(n_nodes) for _ in range(n_graphs)]
    pairs = {}
    for i in range(n_graphs - 1):
        for j in range(i + 1, n_graphs):
            if rng.uniform() < flip:
                pairs[(i, j)] = Permutation(rng.permutation(n_nodes))
            else:
                pairs[(i, j)] = Permutation(basis[j][np.argsort(basis[i])])
    return MatchConfig(n_graphs, n_nodes, pairs)


def reference_from_basis(basis):
    """The configuration through a common reference as a full (N, N, n)
    table, entry [i, j, u] = inverse of basis[j] at basis[i][u], read
    back by ``MatchConfig.from_table``."""
    basis = np.asarray(basis)
    inv = np.argsort(basis, axis=1)
    return MatchConfig.from_table(inv[np.arange(len(basis))[None, :, None],
                                      basis[:, None, :]])


def random_config(rng, n_graphs, n_nodes):
    return MatchConfig.random(n_graphs, n_nodes, rng)


def random_affinity(rng, n, density=0.6):
    """Random symmetric non-negative affinity matrix with zero diagonal,
    a fraction 1 - (1 - density)^2 full; dense or CSR as the library's fill
    rule picks (dense for n <= 16, and above when at least a third full)."""
    m = rng.uniform(size=(n * n, n * n)) * (rng.uniform(size=(n * n, n * n)) < density)
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return AffinityMatrix(m)


def swapped_affinity(k):
    """The same affinities with the two graphs' roles swapped: entry
    (a*n + u, b*n + v) moves to (u*n + a, v*n + b)."""
    x = np.arange(k.n * k.n)
    sigma = (x % k.n) * k.n + x // k.n
    return AffinityMatrix(k.dense()[np.ix_(sigma, sigma)])


class ReferenceAffinitySet:
    """Explicit affinity matrices for every unordered pair of N graphs,
    with the interface of the library's edge-kernel ``AffinitySet``
    (``N``, ``n``, ``pairs``, ``get``, ``_kernel_sums``), so tests can
    boost on arbitrary K. ``get(i, j)`` with i > j returns the swapped
    matrix; kernel sums add blocks gathered from the dense matrices."""

    def __init__(self, n_graphs, mats):
        self.N = n_graphs
        self.n = None
        self._mats = {}
        for (i, j), k in mats.items():
            if not (0 <= i < j < n_graphs):
                raise ValueError(f"bad pair ({i}, {j})")
            if self.n is None:
                self.n = k.n
            elif k.n != self.n:
                raise ValueError("all affinity matrices must share one node count")
            self._mats[(i, j)] = k
        for i in range(n_graphs - 1):
            for j in range(i + 1, n_graphs):
                if (i, j) not in self._mats:
                    raise ValueError(f"missing affinity matrix for pair ({i}, {j})")

    def get(self, i, j):
        if i == j:
            raise ValueError("affinity is defined between distinct graphs")
        return self._mats[(i, j)] if i < j else swapped_affinity(self._mats[(j, i)])

    def pairs(self):
        return sorted(self._mats)

    def _kernel_sums(self, i, j, perms, rows=None, axis=(1, 2)):
        if rows is None:
            rows = np.broadcast_to(np.arange(self.n), perms.shape)
        blocks = np.empty((len(perms), rows.shape[1], rows.shape[1]))
        for s, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            idx = perms[s, rows[s]] * self.n + rows[s]
            blocks[s] = self.get(a, b).dense()[np.ix_(idx, idx)]
        return blocks.sum(axis=axis)


def reference_kernel(kset, own, other):
    """``AffinitySet._kernel`` as it was computed with each attribute held
    twice, +inf off the edges as the row graph's and -inf as the column
    graph's: a missing edge on either side makes the difference +inf and
    exp(-inf) exactly 0. The set's NaN off the edges must give the same
    bytes."""
    out = None
    for (weight, sigma2), a in zip(kset._channels, kset._attrs):
        edge = np.isfinite(a)
        k = np.where(edge, a, np.inf).take(own) - np.where(edge, a, -np.inf).take(other)
        np.square(k, out=k)
        np.divide(k, -sigma2, out=k)
        np.exp(k, out=k)
        if weight != 1.0:
            k *= weight
        out = k if out is None else out + k
    return out


def reference_dense_stack(kset, i, j, kernel=None):
    """K of the pairs (i[b], j[b]) of an edge-kernel ``AffinitySet`` from
    one broadcast of its kernel over all n^4 entries: a_c[i, u, v] against
    a_c[j, a, b] lands at [a, u, b, v], which is K[a*n + u, b*n + v]. The
    kernel arithmetic is the set's own, or ``kernel(kset, own, other)``
    when given, so the result must equal ``_dense_stack`` byte for byte."""
    size = kset.n * kset.n
    edge = np.arange(size).reshape(kset.n, kset.n)
    i, j = (np.reshape(g, (-1, 1, 1)) * size + edge for g in (i, j))
    own, other = i[:, None, :, None, :], j[:, :, None, :, None]
    k = kset._kernel(own, other) if kernel is None else kernel(kset, own, other)
    return k.reshape(-1, size, size)


def reference_kernel_sums(kset, i, j, perms, rows=None, axis=(1, 2), kernel=None):
    """``_kernel_sums`` of an edge-kernel ``AffinitySet`` with the kernel
    run at all m^2 entries of every candidate's (m, m) block, gathered
    through flat indices offset + u*n + v, in one batch. The kernel
    arithmetic is the set's own, or ``kernel(kset, own, other)`` when
    given, and every block is summed with the same shape and axis, so the
    sums must equal ``_kernel_sums`` bit for bit."""
    n = kset.n
    rows = np.broadcast_to(np.arange(n), perms.shape) if rows is None else rows
    picked = np.take_along_axis(perms, rows, axis=1)

    def flat_pairs(nodes, graph):
        return (nodes * n + graph[:, None] * (n * n))[:, :, None] + nodes[:, None, :]

    own, other = flat_pairs(rows, i), flat_pairs(picked, j)
    k = kset._kernel(own, other) if kernel is None else kernel(kset, own, other)
    return k.sum(axis=axis)


def stacked_kernel_sums(kset, i, j, cands, rows=None):
    """``kset._kernel_sums`` of the (P, C, n) candidates of the pairs
    (i[p], j[p]), each pair's kept rows the (P, m) ``rows[p]``, as a
    (P, C) array: every pair's C candidates scored as consecutive rows."""
    count = cands.shape[1]
    rows = None if rows is None else np.repeat(rows, count, axis=0)
    return kset._kernel_sums(np.repeat(i, count), np.repeat(j, count),
                             cands.reshape(-1, cands.shape[2]), rows).reshape(-1, count)


def second_order_candidates(sweep):
    """Every second-order candidate X_iv X_vu X_uj of every pair (ii[p],
    jj[p]) of a started sweep over all anchor pairs (v, u) of the pair's
    pool, duplicates included, in (v, u) scan order, as a (P, A^2, n)
    array: the full scan that the library's second-order search must agree
    with on the first maximum."""
    table, pools, ii, jj = sweep.table, sweep.pools, sweep.ii, sweep.jj
    via = table[pools[:, :, None, None], pools[:, None, :, None],
                table[ii[:, None], pools][:, :, None, :]]   # [., v, u] = X_iv then X_vu
    return table[pools[:, None, :, None], jj[:, None, None, None],
                 via].reshape(len(ii), -1, sweep.cfg.n)    # then X_uj


def random_kset(rng, n_graphs, n_nodes, density=0.6):
    mats = {(i, j): random_affinity(rng, n_nodes, density)
            for i in range(n_graphs - 1) for j in range(i + 1, n_graphs)}
    return ReferenceAffinitySet(n_graphs, mats)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
