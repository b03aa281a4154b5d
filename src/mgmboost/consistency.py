"""Consistency and node-affinity metrics over a matching configuration,
plus the inlier-eliciting row masks and their elicited metric variants.

All metrics reduce to Hamming arithmetic on the configuration's (N, N, n)
index table: under the squared Frobenius norm, ||X - Y||_F equals twice
the number of rows where the two permutations disagree. Every
configuration-wide metric comes from one pass over the anchors k, which
compares each X_ij with its composition X_ik X_kj.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Permutation, check_graph_index, check_node_index, kernel_sums

MASK_MODES = ("consistency", "affinity")


@dataclass(frozen=True)
class InlierEstimate:
    """Assumed number of common inliers and the node ranking used to pick
    them (node-wise consistency or node-wise affinity)."""

    n_est: int
    mode: str = "consistency"

    def __post_init__(self):
        if self.n_est < 1:
            raise ValueError("n_est must be >= 1")
        if self.mode not in MASK_MODES:
            raise ValueError(f"mode must be one of {MASK_MODES}")


def _compositions_through(table, k):
    """(N, N, n) array whose [i, j] row is the composition X_ik X_kj."""
    a = table[:, k]          # a[i] = X_ik
    b = table[k]             # b[j] = X_kj
    return b[:, a].transpose(1, 0, 2)   # [i, j, u] = b[j, a[i, u]]


def _mismatch_rows(table):
    """Per anchor k, the (N, N, n) boolean array that is True at [i, j, u]
    where row u of X_ij and of X_ik X_kj disagree."""
    for k in range(table.shape[0]):
        yield _compositions_through(table, k) != table


def _anchor_mismatch_counts(cfg, keep=None):
    """(N, N, N) row-disagreement counts: entry [k, i, j] compares X_ij
    with X_ik X_kj. With ``keep`` (an (N, n) boolean mask) only rows kept
    for the row graph i are counted."""
    out = np.empty((cfg.N, cfg.N, cfg.N), dtype=np.int64)
    for k, mism in enumerate(_mismatch_rows(cfg.perm_table())):
        if keep is not None:
            mism &= keep[:, None, :]
        out[k] = mism.sum(axis=2)
    return out


def compositions(table, i, j):
    """(N, n) array whose row k is the composition X_ik X_kj; with ``i``
    and ``j`` arrays of P graph indices, the (P, N, n) stack of them."""
    k = np.arange(table.shape[0])[:, None]
    return table[k, np.asarray(j)[..., None, None], table[i]]


def candidate_consistency(cands, comps, rows_counted, keep_row=None):
    """Pairwise consistency of each (..., C, n) candidate row against the
    (..., N, n) compositions X_ik X_kj of its pair: 1 minus the
    mismatching rows (only those in the (..., n) mask ``keep_row``, when
    given) over rows_counted * N."""
    mism = cands[..., :, None, :] != comps[..., None, :, :]
    if keep_row is not None:
        mism = mism & keep_row[..., None, None, :]
    return 1.0 - mism.sum(axis=(-2, -1)) / (rows_counted * comps.shape[-2])


def _candidate_and_compositions(x, cfg, i, j):
    """The candidate as a (1, n) row and the compositions of pair (i, j)."""
    p = x.perm if isinstance(x, Permutation) else np.asarray(x)
    if p.shape != (cfg.n,):
        raise ValueError(f"candidate has {p.size} nodes, expected {cfg.n}")
    check_graph_index(i, cfg.N)
    check_graph_index(j, cfg.N)
    return p[None, :], compositions(cfg.perm_table(), i, j)


def unary_consistency(k, cfg):
    """How self-consistent the configuration is when routed through graph
    k: 1 minus the normalized residual between every stored matching and
    its composition through k. In (0, 1]; exactly 1 when all residuals
    vanish."""
    return unary_consistency_all(cfg)[check_graph_index(k, cfg.N)]


def unary_consistency_all(cfg):
    counts = np.triu(_anchor_mismatch_counts(cfg), 1).sum(axis=(1, 2))
    return 1.0 - counts / (cfg.n * cfg.N * (cfg.N - 1) / 2.0)


def pairwise_consistency(x, cfg, i, j):
    """Consistency of an arbitrary candidate matching for the pair (i, j)
    against all single-anchor compositions of the configuration; the
    candidate need not belong to the configuration itself."""
    return candidate_consistency(*_candidate_and_compositions(x, cfg, i, j), cfg.n)[0]


def pairwise_consistency_all(cfg):
    """C_p of every stored matching, as a symmetric (N, N) array with unit
    diagonal."""
    return 1.0 - _anchor_mismatch_counts(cfg).sum(axis=0) / (cfg.n * cfg.N)


def overall_consistency(cfg, table=None):
    """Mean unary consistency; always identical to the mean pairwise
    consistency over stored pairs. ``table`` is accepted for older callers
    and ignored: the configuration holds its own table."""
    return float(unary_consistency_all(cfg).mean())


def is_fully_consistent(cfg, table=None):
    """Exact check that every composition reproduces the stored matching.
    ``table`` is accepted for older callers and ignored."""
    return not any(mism.any() for mism in _mismatch_rows(cfg.perm_table()))


def node_consistency(u, k, cfg):
    k, u = check_graph_index(k, cfg.N), check_node_index(u, cfg.n)
    return float(node_consistency_all(cfg)[k, u])


def node_consistency_all(cfg):
    """Node-level consistency for every node of every graph, (N, n).

    Node u of graph k is penalized once for each graph pair (i, j) whose
    direct matching from k disagrees, at row u, with the route through i.
    """
    counts = np.zeros((cfg.N, cfg.n), dtype=np.int64)
    for i, mism in enumerate(_mismatch_rows(cfg.perm_table())):
        counts += mism[:, i + 1:].sum(axis=1)   # [k, j, u]: X_kj vs X_ki X_ij, j > i
    return 1.0 - counts / (cfg.N * (cfg.N - 1) / 2.0)


def node_affinity(u, k, cfg, kset):
    k, u = check_graph_index(k, cfg.N), check_node_index(u, cfg.n)
    return float(node_affinity_all(cfg, kset)[k, u])


def node_affinity_all(cfg, kset):
    """Node-level affinity mass for every node of every graph, (N, n).

    Node u of graph k accumulates, over all other graphs i, the affinity
    between its own match in X_ki and every match of X_ki; summed over u
    this recovers the full pairwise scores. Each term is a row sum of the
    kernel block of X_ki with graph k as the row graph, all N(N-1) blocks
    in one batch; the terms are added in ascending i.
    """
    n_graphs = cfg.N
    k = np.repeat(np.arange(n_graphs), n_graphs - 1)
    i = np.array([o for g in range(n_graphs) for o in range(n_graphs) if o != g])
    rows = kernel_sums(kset, k, i, cfg.perm_table()[k, i][:, None], axis=3)
    rows = rows.reshape(n_graphs, n_graphs - 1, cfg.n)
    out = np.zeros((n_graphs, cfg.n))
    for col in range(n_graphs - 1):
        out += rows[:, col]
    return out


def keep_masks(cfg, est, kset=None):
    """(N, n) boolean mask keeping, per graph, the n_est top-ranked nodes.

    Ranking is node-wise consistency or node-wise affinity depending on
    the estimate mode; ties break toward lower node indices. Computed
    once per configuration snapshot and reused by every elicited metric.
    """
    if est.n_est > cfg.n:
        raise ValueError(f"n_est={est.n_est} exceeds node count {cfg.n}")
    if est.mode == "affinity":
        if kset is None:
            raise ValueError("affinity-ranked masks need the affinity set")
        scores = node_affinity_all(cfg, kset)
    else:
        scores = node_consistency_all(cfg)
    order = np.argsort(-scores, axis=1, kind="stable")
    keep = np.zeros((cfg.N, cfg.n), dtype=bool)
    np.put_along_axis(keep, order[:, :est.n_est], True, axis=1)
    return keep


def inlier_mask(x, row_graph, cfg, est, kset=None, keep=None):
    """Apply the row mask to a matching matrix: rows of the top-n_est
    nodes of the row graph stay, all other rows become zero. Returns the
    masked dense matrix (no longer a permutation unless n_est = n)."""
    check_graph_index(row_graph, cfg.N)
    if keep is None:
        keep = keep_masks(cfg, est, kset)
    m = x.matrix if isinstance(x, Permutation) else np.array(x, dtype=float)
    out = m.copy()
    out[~keep[row_graph]] = 0.0
    return out


def elicited_unary_consistency(k, cfg, est, kset=None, keep=None):
    """Unary consistency restricted to presumed inliers: residual rows
    outside each row graph's keep set are ignored and the normalizer
    counts only the kept capacity."""
    return elicited_unary_consistency_all(cfg, est, kset, keep)[check_graph_index(k, cfg.N)]


def elicited_unary_consistency_all(cfg, est, kset=None, keep=None):
    if keep is None:
        keep = keep_masks(cfg, est, kset)
    counts = np.triu(_anchor_mismatch_counts(cfg, keep), 1).sum(axis=(1, 2))
    return 1.0 - 2.0 * counts / (est.n_est * cfg.N * (cfg.N - 1))


def elicited_pairwise_consistency(x, cfg, est, i, j, kset=None, keep=None):
    """Pairwise consistency of a candidate with residual rows masked to
    the row graph's keep set."""
    cand, comps = _candidate_and_compositions(x, cfg, i, j)
    if keep is None:
        keep = keep_masks(cfg, est, kset)
    return candidate_consistency(cand, comps, est.n_est, keep[i])[0]


def elicited_pairwise_consistency_all(cfg, est, kset=None, keep=None):
    """Elicited C_p of every stored matching, oriented: entry (i, j) masks
    by graph i's keep set, so the result is not symmetric in general."""
    if keep is None:
        keep = keep_masks(cfg, est, kset)
    return 1.0 - _anchor_mismatch_counts(cfg, keep).sum(axis=0) / (est.n_est * cfg.N)


def elicited_score(x, row_graph, cfg, k_mat, est, kset=None, keep=None):
    """Affinity score of the row-masked matching: only affinities among
    kept rows survive, so the value never exceeds the unmasked score."""
    check_graph_index(row_graph, cfg.N)
    if keep is None:
        keep = keep_masks(cfg, est, kset)
    return k_mat.quad_form(x, keep[row_graph])
