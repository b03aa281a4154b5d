"""Multi-graph matching by iterative score boosting.

Each iteration rewrites every pairwise matching X_ij with the composition
X_ik X_kj over anchor graphs k that maximizes a·J + b·C: J is the
normalized affinity score and C a consistency term. Each mode fixes the
weights (a, b) and the term; graduated modes grow the consistency weight
geometrically across iterations (graduated regularization). All updates
within an iteration read the previous snapshot only, so per-pair updates
are order-independent and the whole sweep is deterministic. A run keeps
the kernel sums of its first-order candidates, which the second-order
search extends, renews only those whose legs, or kept rows, changed,
and takes each snapshot's pair scores from the candidates picked; a
renewed candidate equal to X_ij takes the pair's score it already holds,
so only the others are computed, and the second-order search computes
each distinct candidate of a pair once. Each sweep
also counts the consistency of its input from the compositions it
builds, so only a run's last iterate needs a pass of its own. Optional
post-processing rewrites the result into an exactly cycle-consistent
configuration via maximum-spanning-tree composition on a super graph, or
spectral synchronization when there are more graphs than nodes.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import (MatchConfig, ScoreNormalizer, check_choice, check_count, check_finite,
                   check_real, check_same_shape, check_type, pair_scores, upper_indices)
from .consistency import (InlierEstimate, anchor_mismatches, candidate_consistency,
                          compositions, keep_masks, overall_from_mismatches,
                          pairwise_consistency_all, unary_consistency_all)
from .pairwise import stacked_hungarian

MODES = ("isb", "isb_cst", "isb_2nd", "isb_gc", "isb_gc_inv", "isb_gc_u", "isb_gc_p")

# The consistency term C of each mode that can weight one: the candidate's
# own pairwise consistency, the anchor's unary consistency, or the geometric
# mean of the pairwise consistencies of the legs X_ik and X_kj.
_TERMS = {"isb_cst": "candidate", "isb_gc": "candidate", "isb_gc_inv": "candidate",
          "isb_gc_u": "anchor", "isb_gc_p": "legs"}

# Spectral synchronization's subspace iteration stops once its leading
# Ritz pairs' residual is below SPECTRAL_TOL, or after MAX_SPECTRAL_ITERS
# products with the stacked matching matrix.
SPECTRAL_TOL = 1e-10
MAX_SPECTRAL_ITERS = 1000

log = logging.getLogger(__name__)


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
        check_choice("mode", self.mode, MODES)
        for name in ("t0", "t_max", "seed"):
            check_count(name, getattr(self, name))
        check_real("lambda0", self.lambda0, 0, 1)
        check_real("beta", self.beta, 1, math.inf)
        check_real("gamma", self.gamma, 0, 1, open_low=True, open_high=True)
        check_real("sample_rate", self.sample_rate, 0, 1, open_low=True)
        if not (self.elicit is None or isinstance(self.elicit, InlierEstimate)):
            raise ValueError(f"elicit must be None or an InlierEstimate, got {self.elicit!r}")


@dataclass
class BoostTrace:
    """Per-iteration snapshots, starting with the initial configuration;
    ``scored`` counts the candidates whose kernel sum an iteration
    computed (0 for the initial one), not those it read from sums or
    pair scores the run holds."""

    scores: list[float] = field(default_factory=list)
    consistencies: list[float] = field(default_factory=list)
    changes: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    scored: list[int] = field(default_factory=list)

    def record(self, score, changed, elapsed, scored=0):
        self.scores.append(score)
        self.changes.append(changed)
        self.times.append(elapsed)
        self.scored.append(scored)

    def __len__(self):
        return len(self.scores)


class _SweepState:
    """State of one run's sweeps. Fixed for the run: the pairs i < j in
    row-major order (``ii``, ``jj``), their ``groups`` of consecutive
    pairs evaluated together, and the (P, A) anchor ``pools``; with
    sample_rate < 1 each sweep draws new pools.
    ``sums`` holds the raw kernel sums of the first-order candidates
    X_ik X_kj, a (P, N) array indexed by pair and anchor k, entry
    ``rowstart[p] + k`` when flat, and ``stale`` the mask of those
    computed when next read. With the pools, P N 17 bytes: 1.7 MiB at N=60.

    ``start`` sets a sweep's snapshot ``cfg`` and the consistency ``term``
    it weights, None if it weights none; ``scored`` then counts the
    candidates whose kernel sum the sweep computed, and ``mismatches`` the
    ``anchor_mismatches`` of ``cfg`` over the pairs searched so far. Each
    pair searched leaves its new X_ij as a row of the (P, n) ``upper`` and
    whether that differs from the snapshot's in ``moved`` (all True before
    the first sweep). ``won`` holds each pair's raw kernel sum of its X_ij
    in the snapshot, over the rows its row graph keeps, NaN where that is
    not known: ``run_boost`` fills it with the initial pair scores when
    nothing is elicited, a sweep that weights J with the sums of the
    candidates it picks and one that does not with NaN, and ``start``
    clears the pairs whose row graph keeps other rows. A second-order run
    keys candidates by the ``_digit_weights`` ``digits``."""

    def __init__(self, kset, norm, second_order=False, sample_rate=1.0, rng=None):
        self.kset, self.norm = kset, norm
        self.second_order, self.sample_rate, self.rng = second_order, sample_rate, rng
        self.ii, self.jj = upper_indices(kset.N)
        shape = (len(self.ii), kset.N)
        # a group's (P_g, N, n) compositions and first-order candidates, or
        # its (P_g, C, n) second-order ones, C = A + (A - 2)(A - 3) < N^2 for
        # a pool of A anchors, hold at most BLOCK_CHUNK_ENTRIES entries each,
        # or one pair's
        group = max(1, core.BLOCK_CHUNK_ENTRIES // (kset.N ** (2 if second_order else 1) * kset.n))
        self.groups = [slice(s, s + group) for s in range(0, shape[0], group)]
        self.rowstart = np.arange(0, shape[0] * shape[1], shape[1])[:, None]
        self.pools = self.keep = None
        self.sums, self.stale = np.zeros(shape), np.ones(shape, dtype=bool)
        self.upper = np.empty((shape[0], kset.n), dtype=np.int64)
        self.moved, self.won = np.ones(shape[0], dtype=bool), np.full(shape[0], np.nan)
        self.digits = _digit_weights(kset.n) if second_order else None

    def start(self, cfg, term=None, est=None):
        """Begin a sweep from ``cfg``. Every candidate is marked stale that
        has a leg X_ik or X_kj among the pairs ``moved`` (k = i and k = j
        give X_ij itself) or whose row graph keeps other rows than in the
        last sweep: a sum depends on nothing else. The held score ``won``
        of such a row graph's pairs is cleared."""
        self.cfg, self.term, self.scored, self.table = cfg, term, 0, cfg.perm_table()
        self.mismatches = np.zeros(cfg.N, dtype=np.int64)    # settled iterates keep theirs
        legs = np.zeros((cfg.N, cfg.N), dtype=bool)
        legs[self.ii, self.jj] = self.moved
        legs |= legs.T
        self.stale |= legs.take(self.ii, axis=0) | legs.take(self.jj, axis=0)
        last, self.keep = self.keep, None if est is None else keep_masks(cfg, est, self.kset)
        if last is not None:
            other = (last != self.keep).any(axis=1)[self.ii]
            self.stale[other] = True
            self.won[other] = np.nan
        self.cu = unary_consistency_all(cfg, self.keep) if term == "anchor" else None
        self.cp = pairwise_consistency_all(cfg, self.keep) if term == "legs" else None
        if self.pools is None or self.sample_rate < 1.0:
            self.pools = _anchor_pools(cfg.N, self.sample_rate, self.rng)

    def kernel_sums(self, ii, jj, cands):
        """Raw kernel sums of the (S, n) candidates, row s one of the pair
        (ii[s], jj[s]), ii < jj, as an (S,) array; when eliciting, only the
        rows kept for the row graph count."""
        self.scored += len(cands)
        return self.kset._kernel_sums(ii, jj, cands, self.keep)

    def first_order_sums(self, pairs, cands, differs, flat):
        """``kernel_sums`` of the candidates X_ik X_kj, k = pools[p, a], of
        the row-major ``pairs``, read from ``sums`` after filling the stale
        entries among them, one candidate per entry. ``differs`` is the
        (P_g, N, n) ``comps != held`` of the pairs, candidate [p, a] its
        row ``flat[p, a]`` when flat: a stale candidate equal to the
        snapshot's X_ij takes the pair's score from ``won`` where that is
        known, and only the rest are computed."""
        at = self.rowstart[pairs] + self.pools[pairs]
        pos = np.flatnonzero(self.stale.take(at))
        if pos.size:
            fresh = at.take(pos)
            pair = fresh // self.cfg.N
            vals = self.won.take(pair)
            # each row of differs as one n-byte element, all zero bytes
            # exactly where the candidate equals X_ij
            n = differs.shape[2]
            keys = differs.reshape(-1, n).view((np.void, n)).ravel()
            new = keys.take(flat.take(pos)) != np.zeros(1, keys.dtype)
            new |= np.isnan(vals)
            pair = pair[new]
            vals[new] = self.kernel_sums(self.ii[pair], self.jj[pair],
                                         cands.reshape(-1, n).take(pos[new], axis=0))
            self.sums.put(fresh, vals)
            self.stale.put(fresh, False)
        return self.sums.take(at)

    def distinct_sums(self, ii, jj, cands, sums):
        """``kernel_sums`` of the (P, C, n) candidates of the pairs (ii[p],
        jj[p]), as a (P, C) array, given ``sums``, those of the first A
        candidates of each pair. Equal candidates of a pair have equal sums
        bit for bit, as a sum depends only on its own block. So one stable
        sort per pair by exact ``digits`` keys groups them in scan order,
        every member takes its group's first sum, and only a group whose
        first candidate lies past the A known ones is computed, once."""
        keys = cands.astype(np.uint64) @ self.digits                 # (P, C, words)
        order = np.lexsort(np.moveaxis(keys, 2, 0)[::-1], axis=1)
        keys = np.take_along_axis(keys, order[..., None], axis=1)
        lead = np.ones(order.shape, dtype=bool)
        lead[:, 1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=2)
        out = np.empty(order.shape)
        out[:, :sums.shape[1]] = sums
        pair, at = np.nonzero(lead & (order >= sums.shape[1]))
        fresh = order[pair, at]
        out[pair, fresh] = self.kernel_sums(ii[pair], jj[pair], cands[pair, fresh])
        head = np.where(lead, np.arange(cands.shape[1]), 0)
        np.maximum.accumulate(head, axis=1, out=head)    # sorted position of each group's first
        leader = np.take_along_axis(order, head, axis=1)
        np.put_along_axis(out, order, np.take_along_axis(out, leader, axis=1), axis=1)
        return out

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


def _digit_weights(n):
    """(n, W) uint64 weights that key an index vector on n nodes exactly:
    ``x @ weights`` reads its digits as W base-n numbers of d digits each,
    the last maybe fewer, where d is the most whose number fits in 64 bits
    (d = n while n <= 16). Equal keys therefore mean equal vectors."""
    d = 1
    while d < n and n ** (d + 1) <= 1 << 64:
        d += 1
    k = np.arange(n)
    weights = np.zeros((n, -(-n // d)), dtype=np.uint64)
    weights[k, k // d] = [n ** (d - 1 - r) for r in (k % d).tolist()]
    return weights


def _anchor_pools(n_graphs, sample_rate, rng):
    """Anchors tried for every pair i < j, as one (P, A) array whose row
    p, in row-major pair order, is [i, j, the other graphs ascending].
    Both k = i and k = j reproduce the incumbent matching, so the
    incumbent always competes (listed first for tie-breaking). With
    sample_rate < 1 the other graphs are sampled without replacement, one
    draw per pair in pair order, and kept in ascending order."""
    ii, jj = (idx[:, None] for idx in upper_indices(n_graphs))
    graphs = np.arange(n_graphs)
    rest = np.broadcast_to(graphs, (len(ii), n_graphs))[(graphs != ii) & (graphs != jj)]
    rest = rest.reshape(len(ii), n_graphs - 2)
    if sample_rate < 1.0 and n_graphs > 2:
        m = max(1, int(round(sample_rate * (n_graphs - 2))))
        picked = [rng.choice(n_graphs - 2, size=m, replace=False) for _ in range(len(ii))]
        rest = np.take_along_axis(rest, np.sort(picked, axis=1), axis=1)
    return np.concatenate([ii, jj, rest], axis=1)


def _pairs_best(pairs, sweep, weights):
    """Best anchor and replacement candidate for each of the sweep's
    row-major ``pairs`` (a slice or index array) under the evaluation
    a·J + b·C with weights = (a, b), all pairs as one batch; a term whose
    weight is 0 is not computed. The pairs' outcome goes to the sweep's
    ``upper``, ``moved`` and ``won``. Every anchor's candidate
    is scored, duplicates included, so anchor-dependent consistency terms
    stay per-anchor and the argmax is exact; the anchor scan order makes
    exact ties keep the incumbent, then the smallest anchor. First-order
    kernel sums are read from the sweep's ``sums``, where only stale
    entries are renewed, and of those only the ones whose candidate
    differs from X_ij, or whose pair's score is not held, are computed;
    the consistency terms are computed in full. The pairs' compositions
    X_ik X_kj, built for every mode, are compared with the stored X_ij
    once: the comparison adds their mismatches to the sweep's
    ``mismatches`` and marks the candidates equal to X_ij.

    The second-order search tries X_iv X_vu X_uj over anchor pairs (v, u)
    of the pool [i, j, rest...], with b = 0; exact ties keep the first in
    (v, u) scan order, and the anchor reported is v. The table holds exact
    inverses and identities, so row v = i is the first-order candidates,
    read as above, and v = j, u = i, u = j and u = v each repeat one of
    them. Only row v = i and the pairs v != u of rest are scored: the full
    scan without its later duplicates, so the first maximum is the same.
    A rest x rest candidate that repeats another of the pair takes that
    one's sum (``distinct_sums``), so each distinct one is computed once.
    """
    table = sweep.table
    ii, jj, pools = sweep.ii[pairs], sweep.jj[pairs], sweep.pools[pairs]
    rows, held = np.arange(len(ii)), table[ii, jj]
    comps = compositions(table, ii, jj)
    differs = comps != held[:, None]
    sweep.mismatches += differs.sum(axis=0).sum(axis=1)
    flat = rows[:, None] * comps.shape[1] + pools     # each candidate's row of comps, flat
    cands = comps.reshape(-1, comps.shape[2]).take(flat, axis=0)
    a, b = weights
    if a:
        sums = sweep.first_order_sums(pairs, cands, differs, flat)
    if sweep.second_order:
        rest = pools[:, 2:]
        rv, ru = np.nonzero(~np.eye(rest.shape[1], dtype=bool))    # row-major v != u
        vs, us = rest[:, rv], rest[:, ru]
        via = table[vs[..., None], us[..., None], table[ii[:, None], vs]]   # X_iv then X_vu
        extra = table[us[..., None], jj[:, None, None], via]               # then X_uj
        cands = np.concatenate([cands, extra], axis=1)
        sums = sweep.distinct_sums(ii, jj, cands, sums)
        pools = np.concatenate([np.broadcast_to(ii[:, None], pools.shape), vs], axis=1)
    j_term = a * (sums / sweep.norm.value) if a else 0.0
    c_term = b * sweep.consistency(ii, jj, pools, cands, comps) if b else 0.0
    best = np.argmax(j_term + c_term, axis=1)     # lowest index on exact ties
    sweep.upper[pairs] = picked = cands[rows, best]
    sweep.moved[pairs] = (picked != held).any(axis=1)
    sweep.won[pairs] = sums[rows, best] if a else np.nan
    return pools[rows, best], picked


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

    Sweep t counts the consistency of iterate t - 1, its input; a sweep
    that changes no pair leaves an iterate of known consistency, and only
    a changed last iterate is counted by a pass of its own.
    """
    check_type("params", params, BoostParams)
    initial = pair_scores(cfg0, kset)
    norm = ScoreNormalizer._from_scores(initial)
    if params.elicit is not None and params.elicit.n_est > cfg0.n:
        raise ValueError(f"elicit.n_est={params.elicit.n_est} exceeds the node count "
                         f"{cfg0.n}")
    trace = BoostTrace()
    sweep = _SweepState(kset, norm, params.mode == "isb_2nd", params.sample_rate,
                        np.random.default_rng(params.seed) if params.sample_rate < 1 else None)
    if params.elicit is None:
        sweep.won[:] = initial
    # modes whose iterates may cycle keep the best iterate by this trace entry
    best_of = {"isb_cst": trace.consistencies, "isb_gc_p": trace.scores}.get(params.mode)
    kept = None     # (best_of entry, configuration, anchor mismatches) returned

    def record(scores, changed, scored=0):
        # pair scores added in row-major order, as total_score adds them
        trace.record(float(sum(scores.tolist())) / norm.value, changed,
                     time.perf_counter() - started, scored)

    def settle(cfg, mismatches):
        # the consistency of the last iterate recorded, once it is counted
        nonlocal kept
        trace.consistencies.append(overall_from_mismatches(mismatches, cfg.n))
        if kept is None or best_of is None or best_of[-1] > kept[0]:
            kept = (None if best_of is None else best_of[-1], cfg, mismatches)

    started = time.perf_counter()
    cfg = cfg0
    record(initial, 0)
    lam = params.lambda0

    for t in range(1, params.t_max + 1):
        a, b = _weights(params.mode, t, params.t0, lam)
        weighted = params.mode.startswith("isb_gc") and t > params.t0
        sweep.start(cfg, _TERMS.get(params.mode) if b else None, params.elicit)
        for at in sweep.groups:
            _pairs_best(at, sweep, (a, b))
        settle(cfg, sweep.mismatches)
        changed = int(np.count_nonzero(sweep.moved))
        cfg = MatchConfig._from_upper(cfg.N, sweep.upper)
        # a sweep that scored J on all rows computed the raw sum of each new
        # X_ij, equal to a fresh one bit for bit
        record(sweep.won if a and sweep.keep is None else pair_scores(cfg, kset),
               changed, sweep.scored)
        if changed == 0 and (weighted or not params.mode.startswith("isb_gc")):
            break
        if weighted:
            lam = min(1.0, params.beta * lam)

    # an unchanged last sweep counted its output too; else the run's one direct pass
    settle(cfg, anchor_mismatches(cfg) if sweep.moved.any() else sweep.mismatches)
    _, cfg, mismatches = kept
    if params.enforce_final_consistency and len(trace) > 1:   # a sweep ran
        cfg = _make_consistent(cfg, kset, params.gamma, mismatches)
    return cfg, trace


def _spanning_tree(n_graphs, weights):
    """Maximum spanning tree of the complete graph whose pairs i < j weigh
    ``weights`` in row-major order, grown from graph 0 by Prim's method.
    Edges rank in stable descending-weight order (ties row-major, zero
    weights still edges), a strict order, so the tree is unique: the one
    Kruskal's method takes. Returns the order the graphs join the tree in,
    graph 0 first, and each graph's parent (0 for graph 0)."""
    size = len(weights)
    iu, ju = (a[np.argsort(-weights, kind="stable")] for a in upper_indices(n_graphs))
    rank = np.full((n_graphs, n_graphs), size)        # the diagonal ranks past every edge
    rank[iu, ju] = rank[ju, iu] = np.arange(size)
    best, parent, visit = np.full(n_graphs, size), np.zeros(n_graphs, dtype=np.int64), []
    best[:1] = -1                                     # graph 0 joins first
    for _ in range(n_graphs):
        k = int(np.argmin(best))                      # the far end of the best edge out of the tree
        visit.append(k)
        rank[:, k] = best[k] = size                   # no edge leads back into the tree
        np.copyto(parent, k, where=rank[k] < best)
        np.minimum(best, rank[k], out=best)
    return visit, parent


def mst(weights):
    """Maximum spanning tree of a complete weighted graph, as a sorted
    edge list: ``_spanning_tree`` of the upper-triangle weights, so ties
    go to the lexicographically first edge."""
    w = np.asarray(weights)
    if w.dtype.kind not in "biuf":
        raise ValueError(f"weights must be real numbers, got dtype {w.dtype}")
    w = w.astype(float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    check_finite("weights", w)
    if not np.array_equal(w, w.T):
        raise ValueError("weights must be symmetric")
    _, parent = _spanning_tree(len(w), w[upper_indices(len(w))])
    return sorted((min(p, k), max(p, k)) for k, p in enumerate(parent.tolist()) if k)


def _config_from_tree(cfg, weights):
    """Rebuild every pairwise matching by composing along the paths from
    graph 0 of the ``_spanning_tree`` of the row-major pair ``weights``;
    the result is exactly cycle-consistent."""
    table = cfg.perm_table()
    visit, parent = _spanning_tree(cfg.N, weights)
    root_to = np.empty((cfg.N, cfg.n), dtype=np.int64)
    root_to[0] = np.arange(cfg.n)
    for k in visit[1:]:        # a graph joins the tree after its parent
        root_to[k] = table[parent[k], k][root_to[parent[k]]]
    return MatchConfig.from_basis(np.argsort(root_to, axis=1))


def _spectral_sync(cfg):
    """Consistent configuration from the n leading eigenvectors of the
    stacked (Nn, Nn) matrix W whose (i, j) block is X_ij, each block
    re-projected to a permutation by the Hungarian method; the first block
    anchors the gauge at the identity. The re-projection does not depend
    on the basis chosen inside the leading eigenspace, so only that space
    is computed, without W: row i*n + u of W V is the sum over j of row
    j*n + X_ij[u] of V, gathered BLOCK_CHUNK_ENTRIES entries (or one row
    graph's) at a time.

    Subspace iteration runs on 2n columns, the stacked X_i0 and n fixed
    cosines, so that its rate is |lambda_2n+1| / lambda_n even where
    lambda_n+1 / lambda_n is near 1. Each iteration takes one product
    Z = W Q, picks the n leading Ritz pairs (Y, theta) of Q^T Z and
    orthonormalizes Z as the next Q. It stops once W Y - Y diag(theta) is
    below SPECTRAL_TOL in Frobenius norm, as any basis of a repeated n-th
    eigenvalue's space is, or logs a warning after MAX_SPECTRAL_ITERS."""
    table = cfg.perm_table()
    n_graphs, n = cfg.N, cfg.n
    size, width = n_graphs * n, 2 * n
    flat = table + n * np.arange(n_graphs).reshape(1, n_graphs, 1)   # j*n + X_ij[u]
    step = max(1, core.BLOCK_CHUNK_ENTRIES // (n_graphs * n * width))   # row graphs per gather
    start = np.empty((size, width))
    start[:, :n] = (table[:, 0].reshape(-1, 1) == np.arange(n)) / np.sqrt(n_graphs)
    start[:, n:] = np.cos(np.pi / size * np.arange(0.5, size)[:, None] * np.arange(1, n + 1))
    q = np.linalg.qr(start)[0]
    z = np.empty_like(q)
    for _ in range(MAX_SPECTRAL_ITERS):
        for s in range(0, n_graphs, step):
            z[s * n:(s + step) * n] = q[flat[s:s + step]].sum(axis=1).reshape(-1, width)
        theta, vecs = np.linalg.eigh(q.T @ z)
        lead = q @ vecs[:, n:]           # ascending: the n largest
        if np.linalg.norm(z @ vecs[:, n:] - lead * theta[n:]) < SPECTRAL_TOL:
            break
        q = np.linalg.qr(z)[0]
    else:
        log.warning("spectral synchronization did not converge in %d iterations "
                    "(N=%d, n=%d); using the last leading subspace",
                    MAX_SPECTRAL_ITERS, n_graphs, n)
    lead = lead.reshape(n_graphs, n, n)
    blocks = lead[1:] @ lead[0].T
    return MatchConfig.from_basis(np.vstack([np.arange(n), stacked_hungarian(blocks)]))


def enforce_full_consistency(cfg, kset, gamma=BoostParams.gamma):
    """Rewrite a configuration into an exactly cycle-consistent one.

    Already-consistent input is returned untouched. When overall
    consistency falls below gamma the matchings are too contradictory for
    consistency to guide anything, so the affinity-weighted super graph's
    maximum spanning tree dictates the compositions; otherwise the
    consistency-weighted super graph is used, falling back to spectral
    synchronization when there are more graphs than nodes.
    """
    check_real("gamma", gamma, 0, 1, open_low=True, open_high=True)
    check_same_shape(cfg, kset)
    return _make_consistent(cfg, kset, gamma, anchor_mismatches(cfg))


def _make_consistent(cfg, kset, gamma, mismatches):
    """``enforce_full_consistency`` of a configuration given its
    ``anchor_mismatches``."""
    if not mismatches.any():
        return cfg
    if overall_from_mismatches(mismatches, cfg.n) < gamma:
        return _config_from_tree(cfg, pair_scores(cfg, kset))
    if cfg.n >= cfg.N:
        return _config_from_tree(cfg, pairwise_consistency_all(cfg)[upper_indices(cfg.N)])
    return _spectral_sync(cfg)
