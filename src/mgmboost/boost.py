"""Multi-graph matching by iterative score boosting.

Each iteration rewrites every pairwise matching X_ij with the composition
X_ik X_kj over anchor graphs k that maximizes a·J + b·C: J is the
normalized affinity score and C a consistency term. Each mode fixes the
weights (a, b) and the term; graduated modes grow the consistency weight
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
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .core import MatchConfig, ScoreNormalizer, pair_scores, total_score
from .consistency import (InlierEstimate, candidate_consistency, compositions,
                          is_fully_consistent, keep_masks, overall_consistency,
                          pairwise_consistency_all, unary_consistency_all)
from .pairwise import hungarian

MODES = ("isb", "isb_cst", "isb_2nd", "isb_gc", "isb_gc_inv", "isb_gc_u", "isb_gc_p")

# The consistency term C of each mode that can weight one: the candidate's
# own pairwise consistency, the anchor's unary consistency, or the geometric
# mean of the pairwise consistencies of the legs X_ik and X_kj.
_TERMS = {"isb_cst": "candidate", "isb_gc": "candidate", "isb_gc_inv": "candidate",
          "isb_gc_u": "anchor", "isb_gc_p": "legs"}

# A sweep evaluates its pairs together, in row-major groups of
# SWEEP_BATCH_ENTRIES // (N^2 n) pairs, or // (N^3 n) for the second-order
# search. A group's compositions and first-order candidates then hold at
# most about SWEEP_BATCH_ENTRIES / N entries each. A second-order group
# scores A + (A - 2)(A - 3) < N^2 candidates per pair for a pool of A
# anchors, so its candidates hold less than that too.
SWEEP_BATCH_ENTRIES = 1 << 18


@dataclass(frozen=True)
class BoostParams:
    mode: str = "isb_gc"
    t0: int = 2                  # pure-score iterations before weighting kicks in
    t_max: int = 6
    lambda0: float = 0.2         # initial consistency weight
    beta: float = 1.1            # per-iteration growth factor of the weight
    gamma: float = 0.3           # consistency threshold picking the post-processing route
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
        if not (self.elicit is None or isinstance(self.elicit, InlierEstimate)):
            raise ValueError(f"elicit must be None or an InlierEstimate, got {self.elicit!r}")


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
    """Frozen per-iteration state shared by every pair update; ``term`` is
    the consistency term the sweep weights, None if it weights none."""

    def __init__(self, cfg, kset, norm, term=None, est=None):
        self.cfg = cfg
        self.kset = kset
        self.norm = norm
        self.term = term
        self.table = cfg.perm_table()
        self.keep = None
        self.kept_rows = None
        if est is not None:
            self.keep = keep_masks(cfg, est, kset)
            # every graph keeps exactly n_est rows: (N, n_est), ascending
            self.kept_rows = np.nonzero(self.keep)[1].reshape(cfg.N, -1)
        self.cu = unary_consistency_all(cfg, self.keep) if term == "anchor" else None
        self.cp = pairwise_consistency_all(cfg, self.keep) if term == "legs" else None

    def scores_for(self, ii, jj, cands):
        """Normalized affinity scores of the (P, A, n) candidates of the
        pairs (ii[p], jj[p]), as a (P, A) array; when eliciting, only the
        rows kept for the row graph count."""
        rows = None if self.kept_rows is None else self.kept_rows[ii]
        return self.kset.kernel_sums(ii, jj, cands, rows) / self.norm.value

    def consistency(self, ii, jj, pools, cands, comps):
        """The term C of the (P, A, n) candidates X_ik X_kj, k = pools[p, a],
        of the pairs (ii[p], jj[p]) given their (P, N, n) compositions, as a
        (P, A) array; when eliciting, only the kept rows count."""
        if self.term == "anchor":
            return self.cu[pools]
        if self.term == "legs":
            return np.sqrt(self.cp[ii[:, None], pools] * self.cp[pools, jj[:, None]])
        return candidate_consistency(cands, comps,
                                     None if self.keep is None else self.keep[ii])


def _anchor_pools(ii, jj, n_graphs, sample_rate, rng):
    """Anchors tried for the pairs (ii[p], jj[p]), as one (P, A) array
    whose row p is [i, j, the other graphs ascending]. Both k = i and
    k = j reproduce the incumbent matching, so the incumbent always
    competes (listed first for tie-breaking). With sample_rate < 1 the
    other graphs are sampled without replacement, one draw per pair in
    pair order, and kept in ascending order."""
    ii, jj = np.reshape(ii, (-1, 1)), np.reshape(jj, (-1, 1))
    graphs = np.arange(n_graphs)
    rest = np.broadcast_to(graphs, (len(ii), n_graphs))[(graphs != ii) & (graphs != jj)]
    rest = rest.reshape(len(ii), n_graphs - 2)
    if sample_rate < 1.0 and n_graphs > 2:
        m = max(1, int(round(sample_rate * (n_graphs - 2))))
        picked = [rng.choice(n_graphs - 2, size=m, replace=False) for _ in range(len(ii))]
        rest = np.take_along_axis(rest, np.sort(picked, axis=1), axis=1)
    return np.concatenate([ii, jj, rest], axis=1)


def _pairs_best(ii, jj, tbl, weights, sample_rate, rng, second_order=False):
    """Best anchor and replacement candidate for each pair (ii[p], jj[p])
    under the evaluation a·J + b·C with weights = (a, b), all pairs as one
    batch; a term whose weight is 0 is not computed. Anchor pools are drawn
    pair by pair in the given order. Every anchor's candidate is scored,
    duplicates included, so anchor-dependent consistency terms stay
    per-anchor and the argmax is exact; the anchor scan order makes exact
    ties keep the incumbent, then the smallest anchor.

    The second-order search tries X_iv X_vu X_uj over anchor pairs (v, u)
    of the pool [i, j, rest...], with b = 0; exact ties keep the first in
    (v, u) scan order, and the anchor reported is v. The table holds exact
    inverses and identities, so v = j, u = i, u = j and u = v each repeat
    a candidate of the row v = i (the incumbent or a first-order
    candidate). Only row v = i and the pairs v != u of rest are scored:
    the full scan with its later duplicates removed, in scan order, so the
    first maximum, and the candidate chosen, are the same.
    """
    table = tbl.table
    ii, jj = np.asarray(ii), np.asarray(jj)
    pools = _anchor_pools(ii, jj, tbl.cfg.N, sample_rate, rng)
    pairs = np.arange(len(ii))
    if second_order:
        rest = pools[:, 2:]
        rv, ru = np.nonzero(~np.eye(rest.shape[1], dtype=bool))    # row-major v != u
        vs = np.concatenate([np.broadcast_to(ii[:, None], pools.shape), rest[:, rv]], axis=1)
        us = np.concatenate([pools, rest[:, ru]], axis=1)
        via = table[vs[..., None], us[..., None], table[ii[:, None], vs]]   # X_iv then X_vu
        cands = table[us[..., None], jj[:, None, None], via]               # then X_uj
        pools, comps = vs, None
    else:
        comps = compositions(table, ii, jj)
        cands = comps[pairs[:, None], pools]
    a, b = weights
    j_term = a * tbl.scores_for(ii, jj, cands) if a else 0.0
    c_term = b * tbl.consistency(ii, jj, pools, cands, comps) if b else 0.0
    best = np.argmax(j_term + c_term, axis=1)     # lowest index on exact ties
    return pools[pairs, best], cands[pairs, best]


def _weights(mode, t, t0, lam):
    """Weights (a, b) of J and C in sweep t, at consistency weight lam."""
    if mode == "isb_cst":
        return 0.0, 1.0
    if not mode.startswith("isb_gc") or t <= t0:
        return 1.0, 0.0
    return (lam, 1.0 - lam) if mode == "isb_gc_inv" else (1.0 - lam, lam)


def run_boost(cfg0, kset, params):
    """Run one boosting algorithm from an initial configuration.

    Returns the final configuration and the per-iteration trace. The
    score normalizer is fixed from the initial configuration. Graduated
    modes spend the first t0 iterations on pure score boosting, then
    grow the consistency weight by min(1, beta * lam) after each weighted
    sweep. Iteration stops early at a fixed point, a sweep that changes no
    pair (for graduated modes, only once weighting has begun). Modes that can
    cycle return the best iterate seen instead of the last one. With
    t_max = 0 no sweep runs, and the initial configuration is returned
    as it is, without post-processing.
    """
    norm = ScoreNormalizer.from_initial(cfg0, kset)
    if params.elicit is not None and params.elicit.n_est > cfg0.n:
        raise ValueError(f"elicit.n_est={params.elicit.n_est} exceeds the node count "
                         f"{cfg0.n}")
    rng = np.random.default_rng(params.seed)
    trace = BoostTrace()
    second_order = params.mode == "isb_2nd"
    iu, ju = np.triu_indices(cfg0.N, 1)
    # pairs evaluated together, row-major; see SWEEP_BATCH_ENTRIES
    group = max(1, SWEEP_BATCH_ENTRIES // (cfg0.N ** (3 if second_order else 2) * cfg0.n))

    def snapshot(cfg):
        return total_score(cfg, kset) / norm.value, overall_consistency(cfg)

    started = time.perf_counter()
    cfg = cfg0
    snap = snapshot(cfg)
    trace.record(*snap, 0, time.perf_counter() - started)
    lam = params.lambda0
    # modes whose iterates may cycle keep the best iterate by this snapshot entry
    best_at = {"isb_cst": 1, "isb_gc_p": 0}.get(params.mode)
    best_snap, best_cfg = snap, cfg

    for t in range(1, params.t_max + 1):
        a, b = _weights(params.mode, t, params.t0, lam)
        weighted = params.mode.startswith("isb_gc") and t > params.t0
        tbl = _IterTables(cfg, kset, norm, _TERMS.get(params.mode) if b else None,
                          params.elicit)
        new_table = tbl.table.copy()
        changed = 0
        for start in range(0, len(iu), group):
            ii, jj = iu[start:start + group], ju[start:start + group]
            _, cands = _pairs_best(ii, jj, tbl, (a, b), params.sample_rate, rng,
                                   second_order)
            changed += int(np.count_nonzero((cands != tbl.table[ii, jj]).any(axis=1)))
            new_table[ii, jj] = cands
        cfg = MatchConfig.from_table(new_table)
        snap = snapshot(cfg)
        trace.record(*snap, changed, time.perf_counter() - started)
        if best_at is not None and snap[best_at] > best_snap[best_at]:
            best_snap, best_cfg = snap, cfg
        if changed == 0 and (weighted or not params.mode.startswith("isb_gc")):
            break
        if weighted:
            lam = min(1.0, params.beta * lam)

    if best_at is not None:
        cfg = best_cfg
    if params.enforce_final_consistency and len(trace) > 1:   # a sweep ran
        cfg = enforce_full_consistency(cfg, kset, params.gamma)
    return cfg, trace


def mst(weights):
    """Maximum spanning tree of a complete weighted graph, as a sorted
    edge list; ties go to the lexicographically first edge. csgraph takes
    the minimum tree of dense weight ranks (1 = heaviest, so zero weights
    stay edges) and sorts them stably in row-major order."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    if not np.array_equal(w, w.T):
        raise ValueError("weights must be symmetric")
    n = w.shape[0]
    iu, ju = np.triu_indices(n, 1)
    ranks = np.zeros((n, n))
    ranks[iu, ju] = np.unique(-w[iu, ju], return_inverse=True)[1] + 1
    tree = minimum_spanning_tree(ranks).tocoo()
    return sorted(zip(tree.row.tolist(), tree.col.tolist()))


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


def enforce_full_consistency(cfg, kset, gamma=BoostParams.gamma):
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
        return _config_from_tree(cfg, mst(pairwise_consistency_all(cfg)))
    return _spectral_sync(cfg)

