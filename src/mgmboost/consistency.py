"""Consistency and node-affinity metrics over a matching configuration,
plus the inlier-eliciting row masks.

Eliciting keeps, per graph, the rows of its top-ranked nodes. Each
consistency metric takes that (N, n) boolean ``keep`` mask as an option:
with it, the metric counts only the kept rows of each row graph and its
normalizer counts the kept rows in place of n.

All metrics reduce to Hamming arithmetic on the configuration's (N, N, n)
index table: under the squared Frobenius norm, ||X - Y||_F equals twice
the number of rows where the two permutations disagree. Every
configuration-wide metric comes from one pass over the anchors k, which
compares each X_ij with its composition X_ik X_kj.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Permutation, _kept_count, check_choice, check_config, check_count,
                   check_graph_index, check_same_shape, upper_indices)

MASK_MODES = ("consistency", "affinity")


@dataclass(frozen=True)
class InlierEstimate:
    """Assumed number of common inliers and the node ranking used to pick
    them (node-wise consistency or node-wise affinity)."""

    n_est: int
    mode: str = "consistency"

    def __post_init__(self):
        check_count("n_est", self.n_est, 1)
        check_choice("mode", self.mode, MASK_MODES)


def _mismatch_rows(table, keep=None):
    """Per anchor k, the (N, N, n) boolean array that is True at [i, j, u]
    where row u of X_ij and of X_ik X_kj disagree. With ``keep`` (an
    (N, n) boolean mask) only rows kept for the row graph i can be True."""
    for k in range(table.shape[0]):
        # [i, j, u] = X_kj[X_ik[u]]
        mism = table[k][:, table[:, k]].transpose(1, 0, 2) != table
        if keep is not None:
            mism &= keep[:, None, :]
        yield mism


def compositions(table, i, j):
    """(N, n) array whose row k is the composition X_ik X_kj; with ``i``
    and ``j`` arrays of P graph indices, the (P, N, n) stack of them."""
    n_graphs, _, n = table.shape
    # flat offset of row X_kj in the table, for each anchor k
    offsets = np.arange(0, n_graphs * n_graphs * n, n_graphs * n)[:, None]
    return table.take(table[i] + (offsets + np.asarray(j)[..., None, None] * n))


def candidate_consistency(cands, comps, keep_row=None):
    """Pairwise consistency of each (..., C, n) candidate row against the
    (..., N, n) compositions X_ik X_kj of its pair: 1 minus the
    mismatching rows over rows * N, where only the rows in the (..., n)
    mask ``keep_row`` count, when it is given.

    One bincount gives, per pair and row u, how many anchors map u to
    each target t; a candidate then mismatches N - count[u, cand[u]]
    compositions at row u."""
    n_anchors, n = comps.shape[-2:]
    flat = comps.reshape(-1, n_anchors, n)
    slots = np.arange(flat.shape[0] * n).reshape(-1, 1, n) * n   # (pair, u) -> row of counts
    counts = np.bincount((slots + flat).ravel(), minlength=slots.size * n)
    # count[u, cand[u]] of every candidate row
    hits = counts.take(cands.reshape(len(flat), cands.shape[-2], n) + slots)
    mism = n_anchors - hits.reshape(cands.shape)
    rows = n
    if keep_row is not None:
        mism = mism * keep_row[..., None, :]
        rows = keep_row.sum(axis=-1, keepdims=True)
    return 1.0 - mism.sum(axis=-1) / (rows * n_anchors)


def anchor_mismatches(cfg, keep=None):
    """Per anchor k, the number of rows where a stored X_ij, i < j, and
    its composition X_ik X_kj disagree, as an (N,) int64 array; with an
    (N, n) boolean ``keep`` mask only rows kept for the row graph i count.
    All zero exactly when the configuration is fully consistent."""
    upper = upper_indices(cfg.N)
    return np.array([m[upper].sum() for m in _mismatch_rows(cfg.perm_table(), keep)])


def _unary_from_mismatches(mismatches, rows):
    """Unary consistency of every anchor from its ``anchor_mismatches``
    count, for configurations counting ``rows`` rows per pair."""
    n_graphs = len(mismatches)
    return 1.0 - mismatches / (rows * n_graphs * (n_graphs - 1) / 2.0)


def overall_from_mismatches(mismatches, n):
    """``overall_consistency`` of an n-node configuration from its
    ``anchor_mismatches`` count."""
    return float(_unary_from_mismatches(mismatches, n).mean())


def unary_consistency_all(cfg, keep=None):
    """Unary consistency of every graph k, as an (N,) array: how
    self-consistent the configuration is when routed through k, 1 minus
    the normalized residual between every stored matching and its
    composition through k. With an (N, n) boolean ``keep`` mask, as
    keep_masks returns it, only the kept rows of each row graph count and
    the normalizer counts the kept rows. In (0, 1]; exactly 1 when all
    counted residuals vanish."""
    check_config(cfg)
    rows = _kept_count(keep, (cfg.N, cfg.n))
    return _unary_from_mismatches(anchor_mismatches(cfg, keep), rows)


def pairwise_consistency(x, cfg, i, j, keep=None):
    """Consistency of an arbitrary candidate matching for the pair (i, j)
    against all single-anchor compositions of the configuration; the
    candidate, a ``Permutation`` or anything its constructor accepts, need
    not belong to the configuration itself. With an (N, n) boolean
    ``keep`` mask only the rows kept for graph i count."""
    check_config(cfg)
    p = (x if isinstance(x, Permutation) else Permutation(x)).perm
    if p.shape != (cfg.n,):
        raise ValueError(f"candidate has {p.size} nodes, expected {cfg.n}")
    check_graph_index(i, cfg.N)
    check_graph_index(j, cfg.N)
    _kept_count(keep, (cfg.N, cfg.n))
    keep_row = None if keep is None else keep[i]
    return candidate_consistency(p[None, :], compositions(cfg.perm_table(), i, j),
                                 keep_row)[0]


def pairwise_consistency_all(cfg, keep=None):
    """C_p of every stored matching, as an (N, N) array with unit
    diagonal; symmetric without a mask. With an (N, n) boolean ``keep``
    mask entry (i, j) counts only the rows kept for graph i, so the
    result is not symmetric in general."""
    check_config(cfg)
    rows = _kept_count(keep, (cfg.N, cfg.n))
    counts = sum(m.sum(axis=2) for m in _mismatch_rows(cfg.perm_table(), keep))
    return 1.0 - counts / (rows * cfg.N)


def overall_consistency(cfg, table=None):
    """Mean unary consistency; always identical to the mean pairwise
    consistency over stored pairs. ``table`` is accepted for older callers
    and ignored: the configuration holds its own table."""
    check_config(cfg)
    return overall_from_mismatches(anchor_mismatches(cfg), cfg.n)


def is_fully_consistent(cfg, table=None):
    """Exact check that every composition reproduces the stored matching.
    ``table`` is accepted for older callers and ignored."""
    check_config(cfg)
    return not any(mism.any() for mism in _mismatch_rows(cfg.perm_table()))


def node_consistency_all(cfg):
    """Node-level consistency for every node of every graph, (N, n).

    Node u of graph k is penalized once for each graph pair (i, j) whose
    direct matching from k disagrees, at row u, with the route through i.
    """
    check_config(cfg)
    counts = np.zeros((cfg.N, cfg.n), dtype=np.int64)
    for i, mism in enumerate(_mismatch_rows(cfg.perm_table())):
        counts += mism[:, i + 1:].sum(axis=1)   # [k, j, u]: X_kj vs X_ki X_ij, j > i
    return 1.0 - counts / (cfg.N * (cfg.N - 1) / 2.0)


def node_affinity_all(cfg, kset):
    """Node-level affinity mass for every node of every graph, (N, n).

    Node u of graph k accumulates, over all other graphs i, the affinity
    between its own match in X_ki and every match of X_ki; summed over u
    this recovers the full pairwise scores. Each term is a row sum of the
    kernel block of X_ki with graph k as the row graph, all N(N-1) blocks
    in one batch; the terms are added in ascending i.
    """
    check_same_shape(cfg, kset)
    k, i = np.nonzero(~np.eye(cfg.N, dtype=bool))     # row-major, i != k
    rows = kset._kernel_sums(k, i, cfg.perm_table()[k, i], axis=2)
    return np.add.accumulate(rows.reshape(cfg.N, cfg.N - 1, cfg.n), axis=1)[:, -1]


def keep_masks(cfg, est, kset=None):
    """(N, n) boolean mask keeping, per graph, the n_est top-ranked nodes.

    Ranking is node-wise consistency or node-wise affinity depending on
    the estimate mode; ties break toward lower node indices. Computed
    once per configuration snapshot and passed as ``keep`` to every metric.
    """
    check_config(cfg)
    if not isinstance(est, InlierEstimate):
        raise TypeError(f"est must be an InlierEstimate, got {type(est).__name__}")
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


def inlier_mask(x, keep_row):
    """Apply a row mask to a matching matrix: the rows in the boolean
    ``keep_row`` (one graph's row of keep_masks) stay, all other rows
    become zero. Returns the masked dense matrix (no longer a permutation
    unless every row is kept)."""
    m = x.matrix if isinstance(x, Permutation) else np.array(x, dtype=float)
    _kept_count(keep_row, (m.shape[0],))
    m[~keep_row] = 0.0
    return m
