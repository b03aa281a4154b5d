"""Multi-graph matching by iterative score boosting.

Each iteration rewrites every pairwise matching X_ij with the best
composition X_ik X_kj over anchor graphs k, where "best" is one of
several evaluation functions: raw normalized affinity score, pairwise
consistency, or weighted blends whose consistency weight grows
geometrically across iterations (graduated regularization). All updates
within an iteration read the previous snapshot only, so per-pair updates
are order-independent and the whole sweep is deterministic. Optional
post-processing rewrites the result into an exactly cycle-consistent
configuration via maximum-spanning-tree composition on a super graph, or
spectral synchronization when there are more graphs than nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .core import (MatchConfig, Permutation, ScoreNormalizer, check_graph_index,
                   kernel_sums, pair_scores, total_score)
from .consistency import (InlierEstimate, candidate_consistency, compositions,
                          is_fully_consistent, keep_masks, overall_consistency,
                          pairwise_consistency_all, unary_consistency_all)
from .pairwise import hungarian

MODES = ("isb", "isb_cst", "isb_2nd", "isb_gc", "isb_gc_inv", "isb_gc_u", "isb_gc_p")
EVAL_KINDS = ("score", "cst", "gc", "gc_inv", "gc_u", "gc_p")

# Modes whose iterates may cycle instead of converging; for these the best
# iterate along the trace is returned rather than the last one.
_CYCLING_MODES = ("isb_cst", "isb_gc_p")

# A sweep evaluates its pairs together, in row-major groups whose
# candidates (and their comparisons with every anchor's composition) hold
# at most about this many entries.
SWEEP_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class BoostParams:
    mode: str = "isb_gc"
    t0: int = 2                  # pure-score iterations before weighting kicks in
    t_max: int = 6
    lambda0: float = 0.2         # initial consistency weight
    beta: float = 1.1            # per-iteration growth factor of the weight
    gamma: float = 0.3           # consistency threshold picking the post-processing route
    delta: float = 1.0           # stop when the total update norm falls below this
    sample_rate: float = 1.0     # fraction of anchor graphs tried per pair
    elicit: InlierEstimate | None = None
    enforce_final_consistency: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for name in ("t0", "t_max"):
            count = getattr(self, name)
            if not (isinstance(count, (int, np.integer)) and count >= 0):
                raise ValueError(f"{name} must be an integer >= 0, got {count!r}")
        if not 0.0 <= self.lambda0 <= 1.0:
            raise ValueError("lambda0 must lie in [0, 1]")
        if not self.beta >= 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must lie in (0, 1]")
        if not self.delta >= 0.0:
            raise ValueError(f"delta must be >= 0, got {self.delta!r}")


@dataclass
class BoostTrace:
    """Per-iteration snapshots, starting with the initial configuration."""

    scores: list[float] = field(default_factory=list)
    consistencies: list[float] = field(default_factory=list)
    changes: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    def record(self, score, consistency, changed, elapsed):
        self.scores.append(score)
        self.consistencies.append(consistency)
        self.changes.append(changed)
        self.times.append(elapsed)

    def __len__(self):
        return len(self.scores)


class _IterTables:
    """Frozen per-iteration state shared by every pair update."""

    def __init__(self, cfg, kset, kind, norm, est=None):
        self.cfg = cfg
        self.kset = kset
        self.kind = kind
        self.norm = norm
        self.table = cfg.perm_table()
        self.keep = None
        self.kept_rows = None
        if est is not None:
            self.keep = keep_masks(cfg, est, kset)
            # every graph keeps exactly n_est rows: (N, n_est), ascending
            self.kept_rows = np.nonzero(self.keep)[1].reshape(cfg.N, -1)
        self.cu = unary_consistency_all(cfg, self.keep) if kind == "gc_u" else None
        self.cp = pairwise_consistency_all(cfg, self.keep) if kind == "gc_p" else None

    def scores_for(self, ii, jj, cands):
        """Normalized affinity scores of the (P, A, n) candidates of the
        pairs (ii[p], jj[p]), as a (P, A) array; when eliciting, only the
        rows kept for the row graph count."""
        rows = None if self.kept_rows is None else self.kept_rows[ii]
        return kernel_sums(self.kset, ii, jj, cands, rows) / self.norm.value

    def cp_of_candidates(self, ii, cands, comps):
        """Pairwise consistency of the (P, A, n) candidates of pairs
        (ii[p], j) against the snapshot's (P, N, n) compositions X_ik X_kj;
        when eliciting, only the rows kept for the row graph count."""
        return candidate_consistency(cands, comps,
                                     None if self.keep is None else self.keep[ii])


def _anchor_pool(i, j, n_graphs, sample_rate, rng):
    """Anchors tried for pair (i, j). Both k = i and k = j reproduce the
    incumbent matching, so the incumbent always competes (listed first for
    tie-breaking); the remaining graphs are sampled without replacement
    and scanned in ascending order."""
    pool = [k for k in range(n_graphs) if k != i and k != j]
    if sample_rate < 1.0 and pool:
        m = max(1, int(round(sample_rate * len(pool))))
        if rng is None:
            raise ValueError("anchor subsampling needs an rng")
        picked = rng.choice(len(pool), size=m, replace=False)
        pool = [pool[idx] for idx in sorted(picked.tolist())]
    return [i, j] + pool


def _pairs_best(ii, jj, tbl, lam, sample_rate, rng, second_order=False):
    """Best anchor and replacement candidate for each pair (ii[p], jj[p])
    under the iteration's evaluation function, all pairs as one batch.
    Anchor pools are drawn pair by pair in the given order. Every anchor's
    candidate is scored, duplicates included, so anchor-dependent
    consistency terms stay per-anchor and the argmax is exact; the anchor
    scan order makes exact ties keep the incumbent, then the smallest
    anchor.

    The second-order search tries X_iv X_vu X_uj over anchor pairs (v, u),
    scored by normalized affinity alone; exact ties keep the first in
    (v, u) scan order, and no anchor is reported.
    """
    table = tbl.table
    ii, jj = np.asarray(ii), np.asarray(jj)
    pools = np.array([_anchor_pool(i, j, tbl.cfg.N, sample_rate, rng)
                      for i, j in zip(ii.tolist(), jj.tolist())])
    pairs = np.arange(len(ii))
    if second_order:
        via = table[pools[:, :, None, None], pools[:, None, :, None],
                    table[ii[:, None], pools][:, :, None, :]]   # [., v, u] = X_iv then X_vu
        cands = table[pools[:, None, :, None], jj[:, None, None, None],
                      via].reshape(len(ii), -1, tbl.cfg.n)      # then X_uj
        return None, cands[pairs, np.argmax(tbl.scores_for(ii, jj, cands), axis=1)]

    comps = compositions(table, ii, jj)
    cands = comps[pairs[:, None], pools]
    kind = tbl.kind
    if kind == "score":
        vals = tbl.scores_for(ii, jj, cands)
    elif kind == "cst":
        vals = tbl.cp_of_candidates(ii, cands, comps)
    elif kind in ("gc", "gc_inv"):
        j_vals = tbl.scores_for(ii, jj, cands)
        c_vals = tbl.cp_of_candidates(ii, cands, comps)
        if kind == "gc":
            vals = (1.0 - lam) * j_vals + lam * c_vals
        else:
            vals = lam * j_vals + (1.0 - lam) * c_vals
    elif kind in ("gc_u", "gc_p"):
        j_vals = tbl.scores_for(ii, jj, cands) if lam < 1.0 else np.zeros(pools.shape)
        if kind == "gc_u":
            cons = tbl.cu[pools]
        else:
            cons = np.sqrt(tbl.cp[ii[:, None], pools] * tbl.cp[pools, jj[:, None]])
        vals = (1.0 - lam) * j_vals + lam * cons
    else:
        raise ValueError(f"unknown evaluation kind {kind!r}")
    best = np.argmax(vals, axis=1)     # lowest index on exact ties
    return pools[pairs, best], cands[pairs, best]


def best_anchor(i, j, cfg_prev, kset, kind, lam=0.0, est=None, sample_rate=1.0,
                rng=None, norm=None):
    """Best third-party graph k and composed candidate X_ik X_kj for one
    pair, under one of the evaluation kinds: "score" (normalized affinity
    only), "cst" (pairwise consistency only), "gc"/"gc_inv" (weighted
    blends), "gc_u" (unary-consistency proxy), "gc_p" (geometric-mean
    pairwise proxy). With ``est`` set, score and consistency terms count
    only the rows its keep masks keep."""
    check_graph_index(i, cfg_prev.N)
    check_graph_index(j, cfg_prev.N)
    if i == j:
        raise ValueError("pair indices must differ")
    if kind not in EVAL_KINDS:
        raise ValueError(f"kind must be one of {EVAL_KINDS}")
    if norm is None:
        norm = ScoreNormalizer.from_initial(cfg_prev, kset)
    tbl = _IterTables(cfg_prev, kset, kind, norm, est)
    anchors, cands = _pairs_best([i], [j], tbl, lam, sample_rate, rng)
    return int(anchors[0]), Permutation(cands[0])


def _eval_kind(mode, t, t0):
    if mode in ("isb", "isb_2nd"):
        return "score"
    if mode == "isb_cst":
        return "cst"
    if t <= t0:
        return "score"
    return {"isb_gc": "gc", "isb_gc_inv": "gc_inv",
            "isb_gc_u": "gc_u", "isb_gc_p": "gc_p"}[mode]


def run_boost(cfg0, kset, params):
    """Run one boosting algorithm from an initial configuration.

    Returns the final configuration and the per-iteration trace. The
    score normalizer is fixed from the initial configuration. Graduated
    modes spend the first t0 iterations on pure score boosting, then
    grow the consistency weight by min(1, beta * lam) after each weighted
    sweep. Iteration stops early once the total update norm drops below
    delta (with the default, as soon as no pair changes). Modes that can
    cycle return the best iterate seen instead of the last one. With
    t_max = 0 no sweep runs, and the initial configuration is returned
    as it is, without post-processing.
    """
    norm = ScoreNormalizer.from_initial(cfg0, kset)
    if params.elicit is not None and params.elicit.n_est > cfg0.n:
        raise ValueError("elicit.n_est exceeds the node count")
    rng = np.random.default_rng(params.seed)
    trace = BoostTrace()
    second_order = params.mode == "isb_2nd"
    iu, ju = np.triu_indices(cfg0.N, 1)
    # pairs evaluated together, row-major; a bound on the candidate entries
    # (and consistency comparisons) that one batch holds
    group = max(1, SWEEP_BATCH_ENTRIES // (cfg0.N ** (3 if second_order else 2) * cfg0.n))

    def snapshot(cfg):
        return total_score(cfg, kset) / norm.value, overall_consistency(cfg)

    started = time.perf_counter()
    cfg = cfg0
    score0, cons0 = snapshot(cfg)
    trace.record(score0, cons0, 0, time.perf_counter() - started)
    lam = params.lambda0
    best_val, best_cfg = -np.inf, cfg
    if params.mode in _CYCLING_MODES:
        best_val = cons0 if params.mode == "isb_cst" else score0

    for t in range(1, params.t_max + 1):
        kind = _eval_kind(params.mode, t, params.t0)
        weighted = params.mode.startswith("isb_gc") and t > params.t0
        tbl = _IterTables(cfg, kset, kind, norm, params.elicit)
        new_table = tbl.table.copy()
        changed = 0
        change_norm = 0.0
        for start in range(0, len(iu), group):
            ii, jj = iu[start:start + group], ju[start:start + group]
            _, cands = _pairs_best(ii, jj, tbl, lam if weighted else 0.0,
                                   params.sample_rate, rng, second_order)
            mism = (cands != tbl.table[ii, jj]).sum(axis=1)
            changed += int(np.count_nonzero(mism))
            change_norm += 2.0 * int(mism.sum())
            new_table[ii, jj] = cands
        cfg = MatchConfig.from_table(new_table)
        score_t, cons_t = snapshot(cfg)
        trace.record(score_t, cons_t, changed, time.perf_counter() - started)
        if params.mode in _CYCLING_MODES:
            cur = cons_t if params.mode == "isb_cst" else score_t
            if cur > best_val:
                best_val, best_cfg = cur, cfg
        if change_norm < params.delta and (weighted or not params.mode.startswith("isb_gc")):
            break
        if weighted:
            lam = min(1.0, params.beta * lam)

    if params.mode in _CYCLING_MODES:
        cfg = best_cfg
    if params.enforce_final_consistency and len(trace) > 1:   # a sweep ran
        cfg = enforce_full_consistency(cfg, kset, params.gamma)
    return cfg, trace


def mst(weights):
    """Maximum spanning tree of a complete weighted graph, as a sorted
    edge list. Kruskal with lexicographic tie-breaking, deterministic."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    if not np.array_equal(w, w.T):
        raise ValueError("weights must be symmetric")
    n = w.shape[0]
    edges = sorted(((i, j) for i in range(n - 1) for j in range(i + 1, n)),
                   key=lambda e: (-w[e[0], e[1]], e[0], e[1]))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j))
            if len(tree) == n - 1:
                break
    return sorted(tree)


def _config_from_tree(cfg, tree):
    """Rebuild every pairwise matching by composing along tree paths;
    the result is exactly cycle-consistent."""
    table = cfg.perm_table()
    rows, cols = np.array(tree, dtype=np.int64).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(cfg.N, cfg.N))
    order, pred = breadth_first_order(adj, 0, directed=False)
    root_to = np.empty((cfg.N, cfg.n), dtype=np.int64)
    root_to[0] = np.arange(cfg.n)
    for k in order[1:]:        # each parent is filled before its children
        root_to[k] = table[pred[k], k][root_to[pred[k]]]
    return MatchConfig.from_basis(np.argsort(root_to, axis=1))


def _spectral_sync(cfg):
    """Consistent configuration from the n leading eigenvectors of the
    stacked block matrix of all matchings, each block re-projected to a
    permutation by the Hungarian method; the first block anchors the
    gauge at the identity. The re-projection does not depend on the
    basis chosen inside the leading eigenspace, so only that space is
    computed."""
    table = cfg.perm_table()
    n_graphs, n = cfg.N, cfg.n
    size = n_graphs * n
    stack = np.zeros((size, size))
    rows = np.arange(size).reshape(n_graphs, 1, n)            # [i, j, u] -> i*n + u
    cols = table + n * np.arange(n_graphs).reshape(1, n_graphs, 1)  # -> j*n + X_ij[u]
    stack[rows, cols] = 1.0
    _, lead = eigh(stack, subset_by_index=[size - n, size - 1])
    base = lead[:n]
    basis = np.empty((n_graphs, n), dtype=np.int64)
    basis[0] = np.arange(n)
    for k in range(1, n_graphs):
        basis[k] = hungarian(lead[k * n:(k + 1) * n] @ base.T).perm
    return MatchConfig.from_basis(basis)


def enforce_full_consistency(cfg, kset, gamma=0.3):
    """Rewrite a configuration into an exactly cycle-consistent one.

    Already-consistent input is returned untouched. When overall
    consistency falls below gamma the matchings are too contradictory for
    consistency to guide anything, so the affinity-weighted super graph's
    maximum spanning tree dictates the compositions; otherwise the
    consistency-weighted super graph is used, falling back to spectral
    synchronization when there are more graphs than nodes.
    """
    if is_fully_consistent(cfg):
        return cfg
    c_val = overall_consistency(cfg)
    if c_val < gamma:
        weights = np.zeros((cfg.N, cfg.N))
        iu, ju = np.triu_indices(cfg.N, 1)
        weights[iu, ju] = weights[ju, iu] = pair_scores(cfg, kset)
        return _config_from_tree(cfg, mst(weights))
    if cfg.n >= cfg.N:
        weights = pairwise_consistency_all(cfg)
        np.fill_diagonal(weights, 0.0)
        return _config_from_tree(cfg, mst(weights))
    return _spectral_sync(cfg)

