"""Boosting algorithms, super-graph post-processing, accuracy oracle.

Property coverage:
- per-pair score monotonicity and finite fixed point for pure score
  boosting (no change before t_max = 50 on n <= 5, N <= 6)
- stationarity of the unary-proxy mode with the weight forced to 1
- incumbent competition: no mode returns an evaluation below the
  incumbent's
- post-processing output is exactly fully consistent
- seeded determinism of configs and traces
- the weighted mode with zero weight and unit growth reproduces pure
  score boosting exactly
- the cross-sweep kernel-sum cache and the held pair scores give the
  tables and traces of runs that compute every sum, in every mode,
  eliciting and sample rate; ``BoostTrace.scored`` counts the stale
  candidates that differ from X_ij, by Python sets; every first-order
  sum a sweep reads equals a fresh one bit for bit, also where a held
  score must not be read; unelicited snapshots after the initial one,
  ``isb_2nd`` included, take their scores from the sweep, not from
  ``pair_scores``
- every trace consistency, counted inside the next sweep, equals a fresh
  ``overall_consistency`` of its iterate, with at most one direct pass
  per run, which post-processing reuses
- sweep groups of one pair give the tables and traces of one group of
  all pairs, in every mode, eliciting and sample rate, and spectral
  gathers of one row graph the result of larger ones
- spectral synchronization equals the full eigendecomposition's wherever
  the matchings determine it, holds bounded memory at N = 100, and gives
  a pinned result where the n-th eigenvalue repeats
- ``mst`` returns the edge list of scipy's ``minimum_spanning_tree`` on
  dense weight ranks, and the tree walk of ``_config_from_tree`` the
  root-to-graph matchings of ``breadth_first_order``, on tie-heavy,
  all-equal, all-zero and random inputs
"""

import hashlib
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgmboost import (AffinityMatrix, BoostParams, GraphInstance, InlierEstimate,
                      MatchConfig, Permutation, ScoreNormalizer, SynthParams,
                      build_affinity_set, enforce_full_consistency,
                      gen_random_graphs, gen_random_points, init_config,
                      is_fully_consistent, keep_masks, mst, node_affinity_all,
                      overall_consistency, run_boost, total_score)
from mgmboost import boost, core, pairwise
from mgmboost.boost import (_TERMS, MODES, _config_from_tree, _pairs_best,
                            _spectral_sync, _SweepState, _weights)

from conftest import (ReferenceAffinitySet, corrupted_config, naive_elicited_pairwise,
                      naive_elicited_unary, naive_pairwise_consistency,
                      naive_quad_form, naive_spectral_sync,
                      naive_unary_consistency, random_config, random_kset,
                      second_order_candidates, stacked_kernel_sums,
                      spanning_tree_best, stacked_matching_matrix)


# the modes with distinct first-order evaluations; isb_2nd scores as isb
EVAL_MODES = tuple(mode for mode in MODES if mode != "isb_2nd")


def mode_id(mode):
    """Test id of a mode: its name without the shared "isb_" prefix."""
    return mode.removeprefix("isb_")


def sweep_picks(cfg, kset, mode, norm, lam, est=None, sample_rate=1.0, rng=None):
    """(i, j, anchor, candidate) of every pair i < j, from one ``_pairs_best``
    call over all pairs of one snapshot, as a weighted sweep of the mode
    runs it."""
    weights = _weights(mode, 1, 0, lam)
    sweep = _SweepState(kset, norm, sample_rate=sample_rate, rng=rng)
    sweep.start(cfg, _TERMS.get(mode) if weights[1] else None, est)
    anchors, cands = _pairs_best(slice(None), sweep, weights)
    return list(zip(sweep.ii.tolist(), sweep.jj.tolist(), anchors.tolist(),
                    map(Permutation, cands)))


def record_iterates(monkeypatch):
    """List to which every configuration built by ``MatchConfig._from_upper``
    is appended from now on: each sweep's iterate, in order, in a run
    without post-processing."""
    seen = []
    build = MatchConfig._from_upper

    def recorded(n_graphs, upper):
        seen.append(build(n_graphs, upper))
        return seen[-1]

    monkeypatch.setattr(MatchConfig, "_from_upper", staticmethod(recorded))
    return seen


def pair_index(sweep, i, j):
    """Row-major index of the pair i < j among the sweep's pairs."""
    return int(np.flatnonzero((sweep.ii == i) & (sweep.jj == j))[0])


def _pair_best_2nd(i, j, sweep):
    """The second-order search of the single pair (i, j) of a started
    second-order sweep."""
    return _pairs_best([pair_index(sweep, i, j)], sweep, (1.0, 0.0))[1][0]


def naive_eval(mode, cand, anchor, i, j, cfg, kset, norm, lam, est=None, keep=None):
    """Dense-arithmetic evaluation of one (candidate, anchor) pair; the
    independent reference for the argmax oracle."""
    k_dense = kset.get(i, j).dense()
    cm = cand.matrix
    if est is not None:
        cm = cm.copy()
        cm[~keep[i]] = 0.0
    j_val = naive_quad_form(cm, k_dense) / norm.value
    if mode == "isb":
        return j_val
    if est is not None:
        cp_cand = naive_elicited_pairwise(cand, cfg, est, i, j, keep)
    else:
        cp_cand = naive_pairwise_consistency(cand, cfg, i, j)
    if mode == "isb_cst":
        return cp_cand
    if mode == "isb_gc":
        return (1.0 - lam) * j_val + lam * cp_cand
    if mode == "isb_gc_inv":
        return lam * j_val + (1.0 - lam) * cp_cand
    if mode == "isb_gc_u":
        cu = (naive_elicited_unary(anchor, cfg, est, keep) if est is not None
              else naive_unary_consistency(anchor, cfg))
        return (1.0 - lam) * j_val + lam * cu
    if mode == "isb_gc_p":
        if est is not None:
            a = naive_elicited_pairwise(cfg.get(i, anchor), cfg, est, i, anchor, keep)
            b = naive_elicited_pairwise(cfg.get(anchor, j), cfg, est, anchor, j, keep)
        else:
            a = naive_pairwise_consistency(cfg.get(i, anchor), cfg, i, anchor)
            b = naive_pairwise_consistency(cfg.get(anchor, j), cfg, anchor, j)
        return (1.0 - lam) * j_val + lam * np.sqrt(a * b)
    raise ValueError(mode)


def exhaustive_anchor_max(mode, i, j, cfg, kset, norm, lam, est=None):
    keep = keep_masks(cfg, est, kset) if est is not None else None
    vals = []
    for k in range(cfg.N):
        cand = cfg.get(i, k).compose(cfg.get(k, j))
        vals.append(naive_eval(mode, cand, k, i, j, cfg, kset, norm, lam, est, keep))
    return max(vals), keep


class TestBestAnchor:
    """The anchor a sweep picks for every pair, against exhaustive
    enumeration of X_ik X_kj over all k by dense arithmetic."""

    def test_three_graphs_two_candidates(self, rng):
        cfg = random_config(rng, 3, 3)
        kset = random_kset(rng, 3, 3)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        for i, j, _, cand in sweep_picks(cfg, kset, "isb", norm, 0.0):
            k = 3 - i - j
            incumbent = cfg.get(i, j)
            composed = cfg.get(i, k).compose(cfg.get(k, j))
            assert cand in (incumbent, composed)
            best = max((naive_quad_form(x.matrix, kset.get(i, j).dense())
                        for x in (incumbent, composed)))
            assert naive_quad_form(cand.matrix, kset.get(i, j).dense()) == \
                pytest.approx(best, rel=1e-9)

    def test_fully_consistent_returns_incumbent(self, rng):
        cfg = MatchConfig.identity(4, 3)
        kset = random_kset(rng, 4, 3)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        for mode in EVAL_MODES:
            for i, j, _, cand in sweep_picks(cfg, kset, mode, norm, 0.4):
                assert cand == cfg.get(i, j)

    @pytest.mark.parametrize("mode", EVAL_MODES, ids=mode_id)
    def test_matches_exhaustive_enumeration(self, mode, rng):
        for seed in range(6):
            srng = np.random.default_rng(seed)
            cfg = random_config(srng, 5, 4)
            kset = random_kset(srng, 5, 4)
            norm = ScoreNormalizer.from_initial(cfg, kset)
            lam = 0.35
            for i, j, got_k, got_cand in sweep_picks(cfg, kset, mode, norm, lam):
                best, _ = exhaustive_anchor_max(mode, i, j, cfg, kset, norm, lam)
                got_val = naive_eval(mode, got_cand, got_k, i, j, cfg, kset, norm, lam)
                assert got_val == pytest.approx(best, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mode", ["isb", "isb_gc", "isb_gc_u", "isb_gc_p"], ids=mode_id)
    def test_matches_exhaustive_enumeration_elicited(self, mode, rng):
        est = InlierEstimate(3, "consistency")
        for seed in range(4):
            srng = np.random.default_rng(100 + seed)
            cfg = random_config(srng, 5, 4)
            kset = random_kset(srng, 5, 4)
            norm = ScoreNormalizer.from_initial(cfg, kset)
            lam = 0.5
            for i, j, got_k, got_cand in sweep_picks(cfg, kset, mode, norm, lam, est):
                best, keep = exhaustive_anchor_max(mode, i, j, cfg, kset, norm, lam, est)
                got_val = naive_eval(mode, got_cand, got_k, i, j, cfg, kset, norm,
                                     lam, est, keep)
                assert got_val == pytest.approx(best, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("mode", EVAL_MODES, ids=mode_id)
    def test_incumbent_competition(self, mode, rng):
        # the returned evaluation never falls below the incumbent's
        for seed in range(5):
            srng = np.random.default_rng(200 + seed)
            cfg = random_config(srng, 5, 4)
            kset = random_kset(srng, 5, 4)
            norm = ScoreNormalizer.from_initial(cfg, kset)
            lam = 0.6
            for i, j, got_k, got_cand in sweep_picks(cfg, kset, mode, norm, lam):
                got = naive_eval(mode, got_cand, got_k, i, j, cfg, kset, norm, lam)
                incumbent = naive_eval(mode, cfg.get(i, j), i, i, j, cfg, kset, norm, lam)
                assert got >= incumbent - 1e-12

    def test_anchor_subsampling_seeded(self, rng):
        cfg = random_config(rng, 8, 4)
        kset = random_kset(rng, 8, 4)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        a, b = (sweep_picks(cfg, kset, "isb", norm, 0.0, sample_rate=0.4,
                            rng=np.random.default_rng(3)) for _ in range(2))
        assert a == b


class TestAnchorPools:
    @staticmethod
    def pair_by_pair(i, j, n_graphs, sample_rate, rng):
        """One pair's pool as a Python list, drawn as the batched pools must."""
        pool = [k for k in range(n_graphs) if k != i and k != j]
        if sample_rate < 1.0 and pool:
            m = max(1, int(round(sample_rate * len(pool))))
            picked = rng.choice(len(pool), size=m, replace=False)
            pool = [pool[idx] for idx in sorted(picked.tolist())]
        return [i, j] + pool

    @pytest.mark.parametrize("sample_rate", [1.0, 0.6, 0.1])
    @pytest.mark.parametrize("n_graphs", [2, 3, 7])
    def test_equal_pair_by_pair_draws(self, n_graphs, sample_rate):
        # pair p's pool is the p-th draw of its sweep; at sample_rate 1 the
        # run's pools are built once, by the first sweep
        rng = np.random.default_rng(5)
        cfg = random_config(rng, n_graphs, 3)
        sweep = _SweepState(random_kset(rng, n_graphs, 3), ScoreNormalizer(1.0),
                            sample_rate=sample_rate, rng=np.random.default_rng(5))
        iu, ju = np.triu_indices(n_graphs, 1)
        draws = np.random.default_rng(5)
        built = []
        for _ in range(3):
            sweep.start(cfg)
            want = [self.pair_by_pair(i, j, n_graphs, sample_rate, draws)
                    for i, j in zip(iu.tolist(), ju.tolist())]
            assert sweep.pools.tolist() == want
            built.append(sweep.pools)
        if sample_rate == 1.0:
            assert built[0] is built[1] is built[2]


class TestPairBest2nd:
    """The vectorized second-order search against an exhaustive (v, u)
    enumeration of X_iv X_vu X_uj scored by the dense quadratic form."""

    @staticmethod
    def exhaustive(i, j, cfg, kset, norm, pool):
        """Every candidate in (v, u) scan order with its score, and the
        first one attaining the maximum."""
        k_dense = kset.get(i, j).dense()
        scored = []
        for v in pool:
            for u in pool:
                cand = cfg.get(i, v).compose(cfg.get(v, u)).compose(cfg.get(u, j))
                scored.append((cand, naive_quad_form(cand.matrix, k_dense) / norm.value))
        best = max(val for _, val in scored)
        return scored, next(cand for cand, val in scored if val == best)

    # K is dense at n = 4 and 13, and at n = 17 when 84% full; CSR at
    # n = 17 when 10% full; n = 17 keys candidates by two words
    @pytest.mark.parametrize(("n", "density"), [(4, 0.6), (13, 0.6), (17, 0.05), (17, 0.6)],
                             ids=["4-dense", "13-sparse", "17-csr", "17-dense"])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    def test_matches_exhaustive_enumeration(self, n, density, sample_rate):
        for seed in range(3):
            srng = np.random.default_rng(300 + seed)
            cfg = random_config(srng, 6, n)
            kset = random_kset(srng, 6, n, density)
            norm = ScoreNormalizer.from_initial(cfg, kset)
            sweep = _SweepState(kset, norm, True, sample_rate, np.random.default_rng(seed))
            sweep.start(cfg)
            for i, j in [(0, 1), (1, 4), (3, 5)]:
                pool = sweep.pools[pair_index(sweep, i, j)].tolist()
                got = _pair_best_2nd(i, j, sweep)
                _, want = self.exhaustive(i, j, cfg, kset, norm, pool)
                assert Permutation(got) == want

    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    @pytest.mark.parametrize("n_graphs", range(2, 9))
    def test_equals_full_pool_scan(self, n_graphs, sample_rate):
        # all pairs of a sweep as one batch, on random graphs at deform 0.1
        # and on deform-0 point sets of 5-7 nodes padded to 7 with isolated
        # dummy nodes, where distinct candidates tie exactly at the maximum
        points = [gen_random_points(SynthParams(n_graphs=2, inliers=5, outliers=k % 3,
                                                seed=n_graphs))[0] for k in range(n_graphs)]
        ksets = [build_affinity_set(gen_random_graphs(SynthParams(
                     n_graphs=n_graphs, inliers=6, deform=0.1, density=0.8, seed=n_graphs)),
                     0.05),
                 build_affinity_set([GraphInstance(g.adjacency, g.inlier_count, g.truth)
                                     for g in points], 0.05)]
        iu, ju = np.triu_indices(n_graphs, 1)
        ties = 0
        for kset in ksets:
            for cfg in (init_config(kset, 1.0, n_graphs),
                        random_config(np.random.default_rng(n_graphs), n_graphs, kset.n)):
                sweep = _SweepState(kset, ScoreNormalizer.from_initial(cfg, kset), True,
                                    sample_rate, np.random.default_rng(n_graphs))
                sweep.start(cfg)
                got = _pairs_best(slice(None), sweep, (1.0, 0.0))[1]
                cands = second_order_candidates(sweep)
                scores = stacked_kernel_sums(kset, iu, ju, cands) / sweep.norm.value
                assert np.array_equal(got, cands[np.arange(len(iu)), np.argmax(scores, axis=1)])
                ties += sum(len(np.unique(c[s == s.max()], axis=0)) > 1
                            for c, s in zip(cands, scores))
        assert ties > 0 or n_graphs < 4

    def test_exact_ties_keep_first_in_scan_order(self):
        # only the match 0 -> 1 earns affinity, so every candidate that
        # holds it ties at the maximum
        n, n_graphs = 4, 6
        k = np.zeros((n * n, n * n))
        k[1 * n + 0, 1 * n + 0] = 1.0         # vec index p(u) * n + u
        kset = ReferenceAffinitySet(n_graphs, {(i, j): AffinityMatrix(k)
                                               for i in range(n_graphs - 1)
                                               for j in range(i + 1, n_graphs)})
        norm = ScoreNormalizer(1.0)
        distinct_ties = 0
        for seed in range(8):
            cfg = random_config(np.random.default_rng(400 + seed), n_graphs, n)
            sweep = _SweepState(kset, norm, second_order=True)
            sweep.start(cfg)
            got = Permutation(_pair_best_2nd(0, 1, sweep))
            scored, want = self.exhaustive(0, 1, cfg, kset, norm, range(n_graphs))
            assert got == want
            top = {cand for cand, val in scored if val == 1.0}
            distinct_ties += len(top) > 1 and cfg.get(0, 1) not in top
        assert distinct_ties > 0   # some seed ties distinct non-incumbent candidates


class TestDistinctSums:
    """Scoring each distinct second-order candidate of a pair once gives
    every candidate the sum that scoring it alone gives."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([*range(2, 17), 17, 24]), n_graphs=st.integers(4, 6),
           flip=st.sampled_from([0.1, 1.0]), elicit=st.booleans(),
           sample_rate=st.sampled_from([1.0, 0.6]), seed=st.integers(0, 1000))
    @example(n=17, n_graphs=6, flip=0.1, elicit=False, sample_rate=1.0, seed=0)
    @example(n=24, n_graphs=5, flip=0.1, elicit=True, sample_rate=0.6, seed=1)
    @example(n=16, n_graphs=6, flip=0.1, elicit=True, sample_rate=1.0, seed=2)
    def test_equal_full_kernel_sums(self, n, n_graphs, flip, elicit, sample_rate, seed):
        # flip 0.1 starts nearly consistent, so most candidates repeat
        kset = build_affinity_set(gen_random_graphs(SynthParams(
            n_graphs=n_graphs, inliers=n, deform=0.1, density=0.9, seed=seed)), 0.05)
        cfg = corrupted_config(np.random.default_rng(seed), n_graphs, n, flip)
        sweep = _SweepState(kset, ScoreNormalizer.from_initial(cfg, kset), True,
                            sample_rate, np.random.default_rng(seed))
        sweep.start(cfg, est=InlierEstimate(max(1, n - 2), "affinity") if elicit else None)
        ii, jj, first = sweep.ii, sweep.jj, sweep.pools.shape[1]
        cands = second_order_candidates(sweep)       # row v = i is the first-order one
        rows = None if sweep.kept_rows is None else sweep.kept_rows[ii]
        want = stacked_kernel_sums(kset, ii, jj, cands, rows)
        got = sweep.distinct_sums(ii, jj, cands, want[:, :first])
        assert np.array_equal(got, want)
        # one sum per candidate that no first-order one and no earlier one repeats
        assert sweep.scored == sum(len({tuple(c) for c in row[first:]} -
                                       {tuple(c) for c in row[:first]})
                                   for row in cands.tolist())
        picked = _pairs_best(slice(None), sweep, (1.0, 0.0))[1]
        best = np.argmax(want, axis=1)
        assert np.array_equal(picked, cands[np.arange(len(ii)), best])
        assert np.array_equal(sweep.won, want[np.arange(len(ii)), best])

    @pytest.mark.parametrize("n", [16, 17, 24, 40])
    def test_candidates_differing_in_last_nodes_keep_their_sums(self, n):
        # a key that read only the leading digits would give them one sum
        kset = build_affinity_set(gen_random_graphs(SynthParams(
            n_graphs=4, inliers=n, deform=0.1, density=0.9, seed=n)), 0.05)
        cfg = MatchConfig.random(4, n, np.random.default_rng(n))
        sweep = _SweepState(kset, ScoreNormalizer.from_initial(cfg, kset), True)
        sweep.start(cfg)
        base = np.random.default_rng(n).permutation(n)
        tails = [base.copy() for _ in range(4)]
        tails[1][[-1, -2]] = tails[1][[-2, -1]]
        tails[2][[-1, -3]] = tails[2][[-3, -1]]
        cands = np.array([[base, *tails, tails[2], base]] * 2)   # (2 pairs, 7, n)
        ii, jj = np.array([0, 1]), np.array([2, 3])
        want = stacked_kernel_sums(kset, ii, jj, cands)
        assert (want[:, 1] != want[:, 2]).all()
        got = sweep.distinct_sums(ii, jj, cands, want[:, :1])
        assert np.array_equal(got, want) and sweep.scored == 2 * 2

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 24, 40, 64])
    def test_digit_keys_are_exact(self, n):
        # word w holds digits w d .. w d + d - 1 as a base-n number, d the
        # most that fit in 64 bits, so no key wraps
        d = max(d for d in range(1, n + 1) if n ** d <= 1 << 64)
        rng = np.random.default_rng(n)
        x = np.array([rng.permutation(n) for _ in range(20)] + [np.arange(n)[::-1]])
        keys = x.astype(np.uint64) @ boost._digit_weights(n)
        want = [[sum(v * n ** (d - 1 - r) for r, v in enumerate(row[s:s + d]))
                 for s in range(0, n, d)] for row in x.tolist()]
        assert keys.tolist() == want
        assert keys.shape[1] == 1 or n > 16


class TestSpectralSync:
    """Block subspace iteration against the full eigendecomposition."""

    def test_matches_full_eigendecomposition(self):
        compared = 0
        for seed in range(40):
            srng = np.random.default_rng(500 + seed)
            n = int(srng.integers(2, 5))
            cfg = corrupted_config(srng, int(srng.integers(n + 1, 9)), n,
                                   float(srng.uniform(0.1, 0.9)))
            if is_fully_consistent(cfg):
                continue
            vals = np.linalg.eigvalsh(stacked_matching_matrix(cfg))
            want, margin = naive_spectral_sync(cfg)
            # with a repeated n-th eigenvalue or a tied block rounding the
            # result is not determined by the matchings; skip those
            if vals[-n] - vals[-n - 1] < 1e-9 or margin < 1e-9:
                continue
            assert _spectral_sync(cfg) == want
            compared += 1
        assert compared >= 25

    def test_close_nth_eigenvalues(self):
        # N = 6, n = 4: the 4th and 5th largest eigenvalues are 0.0047 apart
        srng = np.random.default_rng(5036)
        n_graphs, n = int(srng.integers(5, 10)), int(srng.integers(3, 5))
        cfg = corrupted_config(srng, n_graphs, n, float(srng.uniform(0.1, 0.9)))
        assert (n_graphs, n) == (6, 4)
        vals = np.linalg.eigvalsh(stacked_matching_matrix(cfg))
        gap = vals[-n] - vals[-n - 1]
        assert 1e-9 < gap < 0.005
        want, margin = naive_spectral_sync(cfg)
        assert margin > 1e-9
        assert _spectral_sync(cfg) == want

    @pytest.mark.parametrize("flip", [0.2, 0.6])
    def test_lockstep_reprojection_equals_one_by_one(self, flip, monkeypatch):
        # 59 blocks are re-projected in lockstep; with the threshold raised
        # the same blocks go one by one
        cfg = corrupted_config(np.random.default_rng(61), 60, 5, flip)
        assert cfg.N - 1 >= pairwise.LOCKSTEP_BATCH
        got = _spectral_sync(cfg)
        monkeypatch.setattr(pairwise, "LOCKSTEP_BATCH", cfg.N)
        assert _spectral_sync(cfg) == got

    def test_repeated_nth_eigenvalue_digest(self):
        # N = 5, n = 3: the 3rd and 4th largest eigenvalues are both 3, so
        # the matchings leave the result open; the fixed start block and
        # stop rule pick it
        srng = np.random.default_rng(610)
        n = int(srng.integers(2, 5))
        n_graphs = int(srng.integers(n + 1, 9))
        cfg = corrupted_config(srng, n_graphs, n, float(srng.uniform(0.1, 0.9)))
        assert (n_graphs, n) == (5, 3)
        vals = np.linalg.eigvalsh(stacked_matching_matrix(cfg))
        assert vals[-n] - vals[-n - 1] < 1e-9
        table = np.ascontiguousarray(_spectral_sync(cfg).perm_table(), dtype="<i8")
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "08565a959afed8e179112c054978ac409a13cb4e68a2c92685ce5f6a80d705b8")

    def test_memory_bounded(self):
        # N = 100, n = 20: the stacked matrix alone would hold 30.5 MiB
        cfg = corrupted_config(np.random.default_rng(1), 100, 20, 0.2)
        tracemalloc.start()
        try:
            _spectral_sync(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_iteration_cap_logs_one_record(self, monkeypatch, caplog):
        # one product cannot settle a 60% corrupted configuration
        cfg = corrupted_config(np.random.default_rng(61), 60, 5, 0.6)
        monkeypatch.setattr(boost, "MAX_SPECTRAL_ITERS", 1)
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, "mgmboost.boost"):
            warnings.simplefilter("error")
            got = _spectral_sync(cfg)
        assert is_fully_consistent(got)
        assert [r.getMessage() for r in caplog.records] == [
            "spectral synchronization did not converge in 1 iterations (N=60, n=5); "
            "using the last leading subspace"]


class TestConfigFromTree:
    @staticmethod
    def random_tree(srng, n_graphs):
        """Sorted edge list of a random spanning tree on n_graphs graphs."""
        label = srng.permutation(n_graphs)
        return sorted(tuple(sorted((int(label[k]), int(label[srng.integers(k)]))))
                      for k in range(1, n_graphs))

    @staticmethod
    def tree_path(tree, i, j):
        adj = {}
        for a, b in tree:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        prev, frontier = {i: None}, [i]
        while frontier:
            nxt = []
            for a in frontier:
                for b in adj.get(a, []):
                    if b not in prev:
                        prev[b] = a
                        nxt.append(b)
            frontier = nxt
        path = [j]
        while path[-1] != i:
            path.append(prev[path[-1]])
        return path[::-1]

    def test_matches_path_composition(self):
        for seed in range(15):
            srng = np.random.default_rng(600 + seed)
            n_graphs = int(srng.integers(2, 9))
            cfg = random_config(srng, n_graphs, int(srng.integers(1, 6)))
            tree = self.random_tree(srng, n_graphs)
            out = _config_from_tree(cfg, tree)
            for i in range(n_graphs):
                for j in range(n_graphs):
                    path = self.tree_path(tree, i, j)
                    want = Permutation.identity(cfg.n)
                    for a, b in zip(path, path[1:]):
                        want = want.compose(cfg.get(a, b))
                    assert out.get(i, j) == want

    def test_root_to_equals_breadth_first_order(self):
        # the walk gives row 0, X_0k = the composition from graph 0 to k,
        # exactly as a composition in csgraph's breadth-first order does
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        for seed in range(60):
            srng = np.random.default_rng(900 + seed)
            n_graphs = int(srng.integers(2, 16))
            cfg = random_config(srng, n_graphs, int(srng.integers(1, 7)))
            tree = self.random_tree(srng, n_graphs)
            rows, cols = np.array(tree, dtype=np.int64).reshape(-1, 2).T
            adj = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_graphs, n_graphs))
            order, pred = breadth_first_order(adj, 0, directed=False)
            table, want = cfg.perm_table(), np.empty((n_graphs, cfg.n), dtype=np.int64)
            want[0] = np.arange(cfg.n)
            for k in order[1:]:
                want[k] = table[pred[k], k][want[pred[k]]]
            assert np.array_equal(_config_from_tree(cfg, tree).perm_table()[0], want)

    @pytest.mark.parametrize(("tree", "first"), [
        ([(0, 1)], 2), ([], 1), ([(0, 2), (1, 3)], 1), ([(0, 1), (1, 2), (0, 2)], 3),
    ])
    def test_unreached_graph_named(self, tree, first, rng):
        # rows of graphs off the tree would come from uninitialized memory
        cfg = random_config(rng, 4, 3)
        with pytest.raises(ValueError, match=f"tree does not reach graph {first}$"):
            _config_from_tree(cfg, tree)


NAN = float("nan")
# (field, value) pairs BoostParams must reject: a NaN or too small float
# for the growth factor, a non-integer or negative iteration count, and an
# elicit that is neither None nor an InlierEstimate
BAD_BOOST_VALUES = st.one_of(
    st.tuples(st.just("beta"),
              st.one_of(st.just(NAN), st.floats(max_value=1.0, exclude_max=True))),
    st.tuples(st.sampled_from(["t0", "t_max"]),
              st.one_of(st.floats().filter(lambda f: not f.is_integer()),
                        st.integers(max_value=-1))),
    st.tuples(st.just("elicit"),
              st.one_of(st.integers(), st.floats(), st.just("consistency"))))


class TestBoostParams:
    @settings(max_examples=80, deadline=None)
    @given(bad=BAD_BOOST_VALUES)
    @example(bad=("beta", NAN))
    @example(bad=("t_max", 2.5))
    @example(bad=("elicit", 5))
    def test_bad_value_rejected_naming_it(self, bad):
        name, value = bad
        with pytest.raises(ValueError, match=rf"{name} must .*got {re.escape(repr(value))}"):
            BoostParams(**{name: value})

    @pytest.mark.parametrize("seed", [1.5, 2.0, -1, "3", None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}")):
            BoostParams(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert BoostParams(seed=np.uint32(7)).seed == 7


class TestRunBoost:
    def _instance(self, rng, n_graphs=5, n=4):
        cfg = random_config(rng, n_graphs, n)
        kset = random_kset(rng, n_graphs, n)
        return cfg, kset

    def test_t_max_zero_is_identity(self, rng):
        cfg, kset = self._instance(rng)
        out, trace = run_boost(cfg, kset, BoostParams(mode="isb", t_max=0))
        assert out == cfg
        assert len(trace) == 1

    def test_params_must_be_boost_params(self, rng):
        # None used to fail inside, reading None.elicit
        cfg, kset = self._instance(rng)
        with pytest.raises(TypeError, match="params must be a BoostParams, got NoneType"):
            run_boost(cfg, kset, None)

    def test_t_max_zero_checks_n_est(self, rng):
        cfg, kset = self._instance(rng)
        with pytest.raises(ValueError, match="n_est"):
            run_boost(cfg, kset, BoostParams(mode="isb", t_max=0, elicit=InlierEstimate(5)))

    def test_isb_monotone_and_converges(self, rng):
        for seed in range(5):
            srng = np.random.default_rng(300 + seed)
            n_graphs = int(srng.integers(4, 7))
            n = int(srng.integers(3, 6))
            cfg, kset = self._instance(srng, n_graphs, n)
            out, trace = run_boost(cfg, kset, BoostParams(
                mode="isb", t_max=50, enforce_final_consistency=False))
            scores = np.array(trace.scores)
            assert np.all(np.diff(scores) >= 0.0)
            assert trace.changes[-1] == 0
            assert len(trace) - 1 < 50

    def test_per_pair_scores_dominate_first_order_compositions(self, rng):
        # after convergence each pair's score beats every single-anchor
        # composition available in the initial configuration
        cfg, kset = self._instance(rng, 4, 3)
        out, _ = run_boost(cfg, kset, BoostParams(
            mode="isb", t_max=20, enforce_final_consistency=False))
        for i in range(3):
            for j in range(i + 1, 4):
                k_dense = kset.get(i, j).dense()
                final = naive_quad_form(out.get(i, j).matrix, k_dense)
                first_order = max(
                    naive_quad_form(cfg.get(i, k).compose(cfg.get(k, j)).matrix, k_dense)
                    for k in range(4))
                assert final >= first_order - 1e-9

    def test_deterministic_runs(self, rng):
        cfg, kset = self._instance(rng, 6, 4)
        params = BoostParams(mode="isb_gc", t_max=6, sample_rate=0.6, seed=11)
        out1, tr1 = run_boost(cfg, kset, params)
        out2, tr2 = run_boost(cfg, kset, params)
        assert out1 == out2
        assert tr1.scores == tr2.scores
        assert tr1.consistencies == tr2.consistencies
        assert tr1.changes == tr2.changes

    def test_gc_with_zero_weight_equals_pure_score_boosting(self, rng):
        for seed in range(5):
            srng = np.random.default_rng(400 + seed)
            cfg, kset = self._instance(srng, 5, 4)
            a, _ = run_boost(cfg, kset, BoostParams(
                mode="isb", t_max=6, enforce_final_consistency=False))
            b, _ = run_boost(cfg, kset, BoostParams(
                mode="isb_gc", t_max=6, lambda0=0.0, beta=1.0,
                enforce_final_consistency=False))
            assert a == b

    def test_gc_u_weight_one_reaches_stationary_point(self, rng):
        # graduated unary mode with the weight pinned at 1: iterates stop
        # changing, and one more sweep leaves the output untouched
        for seed in range(4):
            srng = np.random.default_rng(500 + seed)
            cfg, kset = self._instance(srng, 5, 4)
            params = BoostParams(mode="isb_gc_u", t0=0, t_max=15, lambda0=1.0,
                                 beta=1.0, enforce_final_consistency=False)
            out, trace = run_boost(cfg, kset, params)
            assert trace.changes[-1] == 0
            again, _ = run_boost(out, kset, BoostParams(
                mode="isb_gc_u", t0=0, t_max=1, lambda0=1.0, beta=1.0,
                enforce_final_consistency=False))
            assert again == out

    def test_isb_2nd_monotone_scores(self, rng):
        cfg, kset = self._instance(rng, 4, 3)
        out, trace = run_boost(cfg, kset, BoostParams(
            mode="isb_2nd", t_max=10, enforce_final_consistency=False))
        scores = np.array(trace.scores)
        assert np.all(np.diff(scores) >= 0.0)
        assert trace.changes[-1] == 0

    def test_isb_2nd_explores_at_least_first_order(self, rng):
        # the two-anchor family contains every one-anchor composition
        # (u = v), so one sweep can only improve on first-order search
        cfg, kset = self._instance(rng, 4, 3)
        first, _ = run_boost(cfg, kset, BoostParams(
            mode="isb", t_max=1, enforce_final_consistency=False))
        second, _ = run_boost(cfg, kset, BoostParams(
            mode="isb_2nd", t_max=1, enforce_final_consistency=False))
        for i in range(3):
            for j in range(i + 1, 4):
                kd = kset.get(i, j).dense()
                assert naive_quad_form(second.get(i, j).matrix, kd) >= \
                    naive_quad_form(first.get(i, j).matrix, kd) - 1e-9

    def test_cycling_modes_return_best_iterate(self, rng):
        cfg, kset = self._instance(rng, 5, 4)
        out, trace = run_boost(cfg, kset, BoostParams(
            mode="isb_cst", t_max=8, enforce_final_consistency=False))
        assert overall_consistency(out) == pytest.approx(max(trace.consistencies),
                                                         abs=1e-12)
        out2, trace2 = run_boost(cfg, kset, BoostParams(
            mode="isb_gc_p", t_max=8, enforce_final_consistency=False))
        norm = ScoreNormalizer.from_initial(cfg, kset)
        assert total_score(out2, kset) / norm.value == pytest.approx(
            max(trace2.scores), abs=1e-12)

    def test_gc_inv_runs_weighted_schedule(self, rng):
        # swapped-weight blend shares the pure-score warmup, then weights
        # the affinity term by lam instead of (1 - lam)
        cfg, kset = self._instance(rng, 5, 4)
        out, trace = run_boost(cfg, kset, BoostParams(
            mode="isb_gc_inv", t_max=6, enforce_final_consistency=False))
        assert out.N == 5
        assert len(trace) <= 7
        a, _ = run_boost(cfg, kset, BoostParams(
            mode="isb_gc_inv", t_max=6, lambda0=1.0, beta=1.0,
            enforce_final_consistency=False))
        b, _ = run_boost(cfg, kset, BoostParams(
            mode="isb_gc", t_max=6, lambda0=0.0, beta=1.0,
            enforce_final_consistency=False))
        assert a == b   # lam = 1 in the swapped blend is pure score again

    @pytest.mark.parametrize("elicit", [None, InlierEstimate(3)], ids=["plain", "elicited"])
    def test_gc_with_weight_pinned_at_one_is_consistency_only(self, elicit):
        # with lam = 1 from the first sweep the blend weighs C alone, as
        # isb_cst does; only isb_cst's choice of the best iterate differs
        for seed in range(4):
            cfg, kset = self._instance(np.random.default_rng(600 + seed), 6, 4)
            gc = run_boost(cfg, kset, BoostParams(
                mode="isb_gc", t0=0, t_max=6, lambda0=1.0, beta=1.0, elicit=elicit,
                enforce_final_consistency=False))[1]
            cst = run_boost(cfg, kset, BoostParams(
                mode="isb_cst", t_max=6, elicit=elicit, enforce_final_consistency=False))[1]
            assert (gc.scores, gc.consistencies, gc.changes) == \
                (cst.scores, cst.consistencies, cst.changes)

    def test_elicited_run_smoke(self, rng):
        cfg, kset = self._instance(rng, 5, 4)
        params = BoostParams(mode="isb_gc", t_max=5, elicit=InlierEstimate(3),
                             enforce_final_consistency=False)
        out, trace = run_boost(cfg, kset, params)
        assert out.N == 5 and len(trace) <= 6

    def test_trace_length_bounded(self, rng):
        cfg, kset = self._instance(rng, 4, 3)
        for mode in ("isb", "isb_gc", "isb_gc_u", "isb_gc_p", "isb_cst"):
            _, trace = run_boost(cfg, kset, BoostParams(
                mode=mode, t_max=4, enforce_final_consistency=False))
            assert len(trace) <= 5


class TestSumCache:
    @staticmethod
    def _points_run():
        """Point sets with outliers (n = 7) from a half-corrupted start, so
        that every sweep changes some pairs and keeps others."""
        instances = gen_random_points(SynthParams(n_graphs=7, inliers=5, outliers=2,
                                                  deform=0.05, seed=3))
        kset = build_affinity_set(instances, 0.05)
        return corrupted_config(np.random.default_rng(3), 7, 7, 0.5), kset

    @staticmethod
    def _compute_every_sum(monkeypatch):
        """Make every sweep start with all kept sums stale and no pair score
        known, as a run that computes every first-order sum each sweep."""
        start = _SweepState.start

        def all_stale(sweep, *args):
            start(sweep, *args)
            sweep.stale[:] = True
            sweep.won[:] = np.nan

        monkeypatch.setattr(_SweepState, "start", all_stale)

    @pytest.mark.parametrize("sample_rate", [1.0, 0.5])
    @pytest.mark.parametrize("elicit", [None, "consistency", "affinity"])
    @pytest.mark.parametrize("mode", MODES, ids=mode_id)
    def test_equals_rescoring_every_sweep(self, mode, elicit, sample_rate, monkeypatch):
        cfg0, kset = self._points_run()
        params = BoostParams(mode=mode, sample_rate=sample_rate, seed=1,
                             elicit=None if elicit is None else InlierEstimate(5, elicit))
        out, trace = run_boost(cfg0, kset, params)
        self._compute_every_sum(monkeypatch)
        ref_out, ref = run_boost(cfg0, kset, params)
        assert out.perm_table().tobytes() == ref_out.perm_table().tobytes()
        assert (trace.scores, trace.consistencies, trace.changes) == \
            (ref.scores, ref.consistencies, ref.changes)
        assert all(got <= full for got, full in zip(trace.scored, ref.scored))
        if mode != "isb_cst":     # first-order scores read from the kept sums
            assert sum(trace.scored) < sum(ref.scored)

    @pytest.mark.parametrize("sample_rate", [1.0, 0.5])
    @pytest.mark.parametrize("elicit", [None, "consistency", "affinity"])
    @pytest.mark.parametrize("mode", MODES, ids=mode_id)
    def test_snapshot_scores_equal_fresh_total_scores(self, mode, elicit, sample_rate,
                                                      monkeypatch):
        # a sweep that scored J on all rows takes its snapshot's pair scores
        # from the sums of the candidates it picked; every snapshot equals
        # the total score of its configuration, computed afresh, bit for bit
        cfg0, kset = self._points_run()
        seen = record_iterates(monkeypatch)
        _, trace = run_boost(cfg0, kset, BoostParams(
            mode=mode, sample_rate=sample_rate, seed=1, enforce_final_consistency=False,
            elicit=None if elicit is None else InlierEstimate(5, elicit)))
        norm = ScoreNormalizer.from_initial(cfg0, kset).value
        iterates = [cfg0] + seen
        assert len(iterates) == len(trace) > 2
        assert trace.scores == [total_score(cfg, kset) / norm for cfg in iterates]

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "isb_cst"], ids=mode_id)
    def test_unelicited_snapshots_rescore_nothing(self, mode, monkeypatch):
        # only the initial configuration is scored by pair_scores; every
        # later snapshot comes from the sweep's own sums
        cfg0, kset = self._points_run()
        calls = []
        rescore = boost.pair_scores

        def counted(cfg, kset):
            calls.append(cfg)
            return rescore(cfg, kset)

        monkeypatch.setattr(boost, "pair_scores", counted)
        _, trace = run_boost(cfg0, kset, BoostParams(mode=mode, seed=1,
                                                     enforce_final_consistency=False))
        assert len(trace) > 2 and calls == [cfg0]

    @pytest.mark.parametrize("mode", ["isb", "isb_gc", "isb_gc_u", "isb_gc_p"])
    def test_scored_counts(self, mode, monkeypatch):
        # a sweep computes each first-order sum that is stale (every one in
        # the first sweep, then those with a leg moved by the last sweep)
        # unless its candidate equals X_ij, whose score the run holds
        cfg0, kset = self._points_run()
        seen = record_iterates(monkeypatch)
        _, trace = run_boost(cfg0, kset, BoostParams(mode=mode, t_max=6,
                                                     enforce_final_consistency=False))
        iterates = [cfg0] + seen
        assert len(trace) == len(iterates) > 2
        want = [0] + [self._first_order_sums(iterates[t - 1], iterates[t - 2] if t > 1 else None)
                      for t in range(1, len(trace))]
        assert trace.scored == want
        # k = i and k = j always give X_ij; some other anchors do too
        pairs = cfg0.N * (cfg0.N - 1) // 2
        assert 0 < want[1] < pairs * (cfg0.N - 2)

    def test_scored_counts_second_order(self, monkeypatch):
        # isb_2nd computes the first-order sums as above and once each
        # rest x rest candidate that repeats no first-order one; isb_cst
        # weighs no score, so it computes none
        cfg0, kset = self._points_run()
        seen = record_iterates(monkeypatch)
        _, trace = run_boost(cfg0, kset, BoostParams(mode="isb_2nd", t_max=3,
                                                     enforce_final_consistency=False))
        iterates = [cfg0] + seen
        assert len(trace) == len(iterates) > 2
        want = [0] + [self._second_order_sums(iterates[t - 1], iterates[t - 2] if t > 1 else None)
                      for t in range(1, len(trace))]
        assert trace.scored == want
        _, trace = run_boost(cfg0, kset, BoostParams(mode="isb_cst", t_max=3))
        assert trace.scored == [0] * len(trace)

    @staticmethod
    def _first_order_sums(cfg, prev):
        """First-order sums a full-pool sweep from ``cfg`` computes, after
        a sweep from ``prev`` (None before the first sweep) that weighted J
        on all rows, by Python sets: a candidate X_ik X_kj with a leg moved
        counts unless it equals X_ij."""
        def moved(a, b):
            return prev is None or (a != b and cfg.get(a, b) != prev.get(a, b))

        return sum((moved(i, k) or moved(k, j)) and cfg.get(i, k).compose(cfg.get(k, j)) != x
                   for i, j, x in cfg.pairs() for k in range(cfg.N))

    @classmethod
    def _second_order_sums(cls, cfg, prev):
        """Sums a full-pool second-order sweep from ``cfg`` computes, after
        a sweep from ``prev`` (None before the first sweep), by Python sets."""
        total = cls._first_order_sums(cfg, prev)
        for i, j, _ in cfg.pairs():
            rest = [k for k in range(cfg.N) if k not in (i, j)]
            first = {cfg.get(i, k).compose(cfg.get(k, j)) for k in [i, j, *rest]}
            extra = {cfg.get(i, v).compose(cfg.get(v, u)).compose(cfg.get(u, j))
                     for v in rest for u in rest if v != u}
            total += len(extra - first)
        return total

    @pytest.mark.parametrize(("mode", "extra"), [
        ("isb_gc", {}),
        ("isb_gc", {"lambda0": 1.0}),          # weighted sweeps with a = 0
        ("isb_gc_inv", {"lambda0": 0.0}),      # the same in the swapped blend
        ("isb_gc", {"elicit": InlierEstimate(5, "affinity")}),
        ("isb_2nd", {}),
    ], ids=["gc", "gc_lambda1", "gc_inv_lambda0", "elicited", "2nd"])
    def test_read_sums_equal_fresh_ones(self, mode, extra, monkeypatch):
        # every first-order sum a sweep reads, from the kept sums or from
        # the pair's held score, equals the candidate's sum computed afresh
        # bit for bit, also where a held score must not be read: after a
        # sweep that weighted no J, or where the row graph keeps other rows
        cfg0, kset = self._points_run()
        read, kept = self._check_reads(monkeypatch, kset), []
        start = _SweepState.start

        def recorded(sweep, *args):
            start(sweep, *args)
            kept.append(sweep.kept_rows)

        monkeypatch.setattr(_SweepState, "start", recorded)
        params = BoostParams(mode=mode, seed=1, **extra)
        out, trace = run_boost(cfg0, kset, params)
        assert read and len(trace) > 3
        if "elicit" in extra:
            assert any((a != b).any() for a, b in zip(kept, kept[1:]))
        self._compute_every_sum(monkeypatch)
        ref_out, ref = run_boost(cfg0, kset, params)
        assert out == ref_out
        assert (trace.scores, trace.consistencies, trace.changes) == \
            (ref.scores, ref.consistencies, ref.changes)
        assert sum(trace.scored) < sum(ref.scored)

    def test_no_score_is_held_after_a_sweep_without_j(self, monkeypatch):
        # no mode weights J after a sweep that did not, so the sweep state
        # runs a score sweep, a consistency-only one that moves pairs, and
        # a score sweep again, which must compute the moved pairs' X_ij
        cfg, kset = self._points_run()
        read = self._check_reads(monkeypatch, kset)
        sweep = _SweepState(kset, ScoreNormalizer.from_initial(cfg, kset))
        moved = []
        for weights in [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]:
            sweep.start(cfg, "anchor" if weights[1] else None)
            for at in sweep.groups:
                _pairs_best(at, sweep, weights)
            moved.append(int(np.count_nonzero(sweep.moved)))
            cfg = MatchConfig._from_upper(cfg.N, sweep.upper)
        assert moved[1] > 0 and len(read) == 2 * len(sweep.groups)

    @staticmethod
    def _check_reads(monkeypatch, kset):
        """Make every ``first_order_sums`` call assert that the sums it
        returns equal those computed afresh, bit for bit; returns the list
        to which each call appends its count of sums."""
        read, first_order_sums = [], _SweepState.first_order_sums

        def checked(sweep, pairs, cands, *equality):
            got = first_order_sums(sweep, pairs, cands, *equality)
            ii, jj = sweep.ii[pairs], sweep.jj[pairs]
            rows = None if sweep.kept_rows is None else sweep.kept_rows[ii]
            assert got.tobytes() == stacked_kernel_sums(kset, ii, jj, cands, rows).tobytes()
            read.append(got.size)
            return got

        monkeypatch.setattr(_SweepState, "first_order_sums", checked)
        return read


class TestSweepGroups:
    """Sweep groups and spectral gathers are sized from
    ``core.BLOCK_CHUNK_ENTRIES``, read when a run starts; no output
    depends on their size."""

    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    @pytest.mark.parametrize("elicit", [None, "consistency", "affinity"])
    @pytest.mark.parametrize("mode", MODES, ids=mode_id)
    def test_one_pair_per_group_changes_no_output(self, mode, elicit, sample_rate,
                                                  monkeypatch):
        cfg0, kset = TestSumCache._points_run()
        params = BoostParams(mode=mode, sample_rate=sample_rate, seed=1,
                             elicit=None if elicit is None else InlierEstimate(5, elicit))
        second_order = mode == "isb_2nd"
        assert len(_SweepState(kset, None, second_order).groups) == 1
        out, trace = run_boost(cfg0, kset, params)
        monkeypatch.setattr(core, "BLOCK_CHUNK_ENTRIES", 1)
        assert len(_SweepState(kset, None, second_order).groups) == 21
        ref_out, ref = run_boost(cfg0, kset, params)
        assert out.perm_table().tobytes() == ref_out.perm_table().tobytes()
        assert (trace.scores, trace.consistencies, trace.changes, trace.scored) == \
            (ref.scores, ref.consistencies, ref.changes, ref.scored)

    @pytest.mark.parametrize("flip", [0.2, 0.6])
    def test_one_row_graph_per_gather_changes_no_result(self, flip, monkeypatch):
        # N = 60, n = 5: 10 row graphs per gather by default
        cfg = corrupted_config(np.random.default_rng(61), 60, 5, flip)
        got = _spectral_sync(cfg)
        monkeypatch.setattr(core, "BLOCK_CHUNK_ENTRIES", 1)
        assert _spectral_sync(cfg) == got


def record_direct_passes(monkeypatch):
    """List to which every configuration ``boost`` hands to
    ``anchor_mismatches`` for a direct consistency pass is appended."""
    seen = []
    count = boost.anchor_mismatches

    def recorded(cfg):
        seen.append(cfg)
        return count(cfg)

    monkeypatch.setattr(boost, "anchor_mismatches", recorded)
    return seen


class TestTraceConsistency:
    """Sweep t counts the consistency of iterate t - 1 from the
    compositions it builds, a sweep that changes no pair repeats its
    input's value, and only a changed last iterate takes a direct pass;
    every trace list holds one entry per iterate."""

    @staticmethod
    def _start(kind):
        cfg0, kset = TestSumCache._points_run()
        if kind == "fixed_point":
            # every pure-score sweep from here changes no pair
            cfg0, trace = run_boost(cfg0, kset, BoostParams(
                mode="isb", t_max=50, enforce_final_consistency=False))
            assert trace.changes[-1] == 0
        return cfg0, kset

    @pytest.mark.parametrize(("start", "t_max"), [("corrupted", 0), ("corrupted", 2),
                                                  ("corrupted", 30), ("fixed_point", 4)])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    @pytest.mark.parametrize("elicit", [None, "consistency", "affinity"])
    @pytest.mark.parametrize("mode", MODES, ids=mode_id)
    def test_equal_fresh_overall_consistency(self, mode, elicit, sample_rate, start, t_max,
                                             monkeypatch):
        cfg0, kset = self._start(start)
        seen = record_iterates(monkeypatch)
        passes = record_direct_passes(monkeypatch)
        _, trace = run_boost(cfg0, kset, BoostParams(
            mode=mode, t_max=t_max, sample_rate=sample_rate, seed=1,
            enforce_final_consistency=False,
            elicit=None if elicit is None else InlierEstimate(5, elicit)))
        iterates = [cfg0] + seen
        # one entry per iterate in every list, each settled
        for entries in (trace.scores, trace.consistencies, trace.changes, trace.times,
                        trace.scored):
            assert len(entries) == len(iterates) and None not in entries
        assert trace.consistencies == [overall_consistency(cfg) for cfg in iterates]
        last_changed = len(trace) == 1 or trace.changes[-1] != 0
        assert passes == ([iterates[-1]] if last_changed else [])
        if t_max == 30 and elicit is None and mode in ("isb", "isb_2nd", "isb_gc", "isb_gc_u"):
            assert len(trace) < t_max + 1 and not last_changed    # stopped early
        if start == "fixed_point" and elicit is None and mode.startswith("isb_gc"):
            # the pure-score sweeps 1 and 2 change nothing, then weighting begins
            assert trace.changes[1:3] == [0, 0] and len(trace) > 3

    @pytest.mark.parametrize("mode", MODES, ids=mode_id)
    def test_post_processing_reuses_the_count(self, mode, monkeypatch):
        cfg0, kset = self._start("corrupted")
        plain, _ = run_boost(cfg0, kset, BoostParams(mode=mode, enforce_final_consistency=False))
        want = enforce_full_consistency(plain, kset)
        passes = record_direct_passes(monkeypatch)
        out, trace = run_boost(cfg0, kset, BoostParams(mode=mode))
        assert out == want and is_fully_consistent(out)
        assert len(passes) == (trace.changes[-1] != 0)


def csgraph_mst(weights):
    """``mst`` as scipy's ``minimum_spanning_tree`` gives it: the minimum
    tree of dense upper-triangle weight ranks, 1 = heaviest."""
    from scipy.sparse.csgraph import minimum_spanning_tree

    n = weights.shape[0]
    iu, ju = np.triu_indices(n, 1)
    ranks = np.zeros((n, n))
    ranks[iu, ju] = np.unique(-weights[iu, ju], return_inverse=True)[1] + 1
    tree = minimum_spanning_tree(ranks).tocoo()
    return sorted(zip(tree.row.tolist(), tree.col.tolist()))


def kind_weights(kind, n, seed):
    """Symmetric (n, n) weights of one kind: few distinct values (tie-heavy),
    one value, all zero, or random of either sign."""
    rng = np.random.default_rng(seed)
    w = {"ties": lambda: rng.integers(0, 3, size=(n, n)).astype(float),
         "equal": lambda: np.full((n, n), rng.uniform(0.1, 2.0)),
         "zero": lambda: np.zeros((n, n)),
         "random": lambda: rng.normal(size=(n, n))}[kind]()
    return np.triu(w, 1) + np.triu(w, 1).T


class TestMst:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 44), st.sampled_from(["ties", "equal", "zero", "random"]),
           st.integers(0, 2 ** 32 - 1))
    @example(1, "zero", 0)
    @example(44, "equal", 0)
    @example(44, "ties", 0)
    def test_equals_csgraph_on_dense_ranks(self, n, kind, seed):
        w = kind_weights(kind, n, seed)
        assert mst(w) == csgraph_mst(w)

    def test_two_nodes(self):
        assert mst(np.array([[0.0, 1.0], [1.0, 0.0]])) == [(0, 1)]

    def test_triangle_two_heaviest(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 3.0
        w[0, 2] = w[2, 0] = 2.0
        w[1, 2] = w[2, 1] = 1.0
        assert mst(w) == [(0, 1), (0, 2)]

    def test_matches_enumeration(self, rng):
        for _ in range(5):
            w = rng.uniform(size=(6, 6))
            w = (w + w.T) / 2.0
            np.fill_diagonal(w, 0.0)
            tree = mst(w)
            total = sum(w[i, j] for i, j in tree)
            assert total == pytest.approx(spanning_tree_best(w), rel=1e-12)

    def test_deterministic_tie_break(self):
        w = np.ones((4, 4)) - np.eye(4)
        assert mst(w) == [(0, 1), (0, 2), (0, 3)]

    def test_zero_weights_are_edges(self):
        assert mst(np.zeros((4, 4))) == [(0, 1), (0, 2), (0, 3)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_named(self, value):
        w = np.ones((4, 4)) - np.eye(4)
        w[1, 3] = w[3, 1] = value
        with pytest.raises(ValueError, match=re.escape(f"weights[1, 3] = {value} is not finite")):
            mst(w)

    def test_complex_weights_named(self):
        # the imaginary parts were dropped with only a ComplexWarning
        with pytest.raises(ValueError, match="weights must be real numbers, got dtype complex128"):
            mst(np.ones((3, 3)) * (1 + 1j))

    def test_zero_and_tied_weights(self):
        # (2, 3) is the one heavy edge; of the tied weight-1 edges, (0, 2)
        # comes first and (1, 2) joins graph 1; every other edge has weight 0
        w = np.zeros((5, 5))
        for (i, j), value in {(2, 3): 2.0, (0, 2): 1.0, (1, 2): 1.0, (1, 3): 1.0}.items():
            w[i, j] = w[j, i] = value
        assert mst(w) == [(0, 2), (0, 4), (1, 2), (2, 3)]


class TestEnforceFullConsistency:
    @pytest.mark.parametrize("gamma", [float("nan"), 2.0, 1.0, 0.0, -0.5])
    @pytest.mark.parametrize("consistent", [False, True])
    def test_bad_gamma_rejected(self, gamma, consistent, rng):
        cfg = MatchConfig.identity(4, 3) if consistent else random_config(rng, 4, 3)
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1)")):
            enforce_full_consistency(cfg, random_kset(rng, 4, 3), gamma)

    def test_already_consistent_untouched(self, rng):
        cfg = MatchConfig.identity(4, 3)
        kset = random_kset(rng, 4, 3)
        assert enforce_full_consistency(cfg, kset) is cfg

    def test_three_graph_tree_composition(self):
        # affinity super graph keeps edges (0,1) and (1,2); the third
        # matching is rebuilt as their composition
        ident, swap = Permutation.identity(2), Permutation([1, 0])
        cfg = MatchConfig(3, 2, {(0, 1): ident, (0, 2): swap, (1, 2): ident})
        strong = np.zeros((4, 4))
        strong[0, 3] = strong[3, 0] = 5.0    # rewards the identity matching
        mats = {(0, 1): AffinityMatrix(strong), (1, 2): AffinityMatrix(strong),
                (0, 2): AffinityMatrix(np.zeros((4, 4)))}
        kset = ReferenceAffinitySet(3, mats)
        out = enforce_full_consistency(cfg, kset, gamma=0.99)
        assert out.get(0, 2) == cfg.get(0, 1).compose(cfg.get(1, 2))
        assert is_fully_consistent(out)

    @pytest.mark.parametrize("n_graphs,n,gamma", [
        (5, 4, 0.999),   # low threshold branch: affinity-weighted tree
        (4, 6, 1e-6),    # n >= N: consistency-weighted tree
        (6, 4, 1e-6),    # n < N: spectral synchronization
    ])
    def test_output_exactly_consistent(self, n_graphs, n, gamma, rng):
        for seed in range(10):
            srng = np.random.default_rng(700 + seed)
            cfg = random_config(srng, n_graphs, n)
            if is_fully_consistent(cfg):
                continue
            kset = random_kset(srng, n_graphs, n)
            out = enforce_full_consistency(cfg, kset, gamma=gamma)
            assert is_fully_consistent(out)
            assert overall_consistency(out) == 1.0

    @pytest.mark.parametrize(("cfg_shape", "gamma", "route"), [
        ((5, 4), 0.999, "affinity_mst"),
        ((5, 6), 0.05, "consistency_mst"),    # n >= N
        ((9, 4), 0.05, "spectral"),           # n < N
    ], ids=["affinity_mst", "consistency_mst", "spectral"])
    def test_other_shape_rejected_on_every_route(self, cfg_shape, gamma, route, rng):
        kset = random_kset(rng, 3, 4)
        cfg = random_config(rng, *cfg_shape)
        assert (overall_consistency(cfg) < gamma) == (route == "affinity_mst")
        with pytest.raises(ValueError, match=re.escape(
                f"configuration has (N, n) = {cfg_shape}, affinity set has (3, 4)")):
            enforce_full_consistency(cfg, kset, gamma)


class TestShapeMismatch:
    """Every entry that reads a configuration against an affinity set
    rejects a set of another graph or node count, naming both."""

    ENTRIES = {
        "run_boost": lambda cfg, kset: run_boost(cfg, kset, BoostParams(t_max=1)),
        "total_score": total_score,
        "ScoreNormalizer.from_initial": ScoreNormalizer.from_initial,
        "affinity_mst": lambda cfg, kset: enforce_full_consistency(cfg, kset, gamma=0.999),
        "keep_masks": lambda cfg, kset: keep_masks(cfg, InlierEstimate(2, "affinity"), kset),
        "node_affinity_all": node_affinity_all,
    }

    @staticmethod
    def _edge_kernel_set(n_graphs, n):
        return build_affinity_set(gen_random_graphs(SynthParams(
            n_graphs=n_graphs, inliers=n, deform=0.1, seed=1)), 0.05)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(("cfg_shape", "make_kset"), [
        ((4, 5), lambda: TestShapeMismatch._edge_kernel_set(5, 5)),
        ((6, 5), lambda: TestShapeMismatch._edge_kernel_set(5, 5)),
        ((5, 5), lambda: TestShapeMismatch._edge_kernel_set(5, 6)),
        ((4, 4), lambda: random_kset(np.random.default_rng(3), 4, 3)),
    ], ids=["fewer-graphs", "more-graphs", "fewer-nodes", "reference-set"])
    def test_rejected_naming_both_shapes(self, entry, cfg_shape, make_kset):
        kset = make_kset()
        cfg = MatchConfig.random(*cfg_shape, np.random.default_rng(2))
        with pytest.raises(ValueError, match=re.escape(
                f"configuration has (N, n) = {cfg_shape}, affinity set has "
                f"({kset.N}, {kset.n})")):
            self.ENTRIES[entry](cfg, kset)


def run_isb_acc_oracle(cfg0, cfg_truth, inlier_rows, t_max=50):
    """Upper bound for the tests: the boosting loop driven by the true
    per-pair accuracy instead of any observable evaluation. It quantifies
    the best the composition search could possibly do from a given
    initial configuration."""
    cfg = cfg0
    tru = cfg_truth.perm_table()
    for _ in range(t_max):
        table = cfg.perm_table()
        new_table = table.copy()
        changed = 0
        for i in range(cfg.N - 1):
            rows = np.asarray(inlier_rows[i])
            for j in range(i + 1, cfg.N):
                comps = np.take_along_axis(table[:, j], table[i], axis=1)
                anchors = [i] + [k for k in range(cfg.N) if k != i and k != j]
                hits = (comps[anchors][:, rows] == tru[i, j][rows]).sum(axis=1)
                new_table[i, j] = comps[anchors[int(np.argmax(hits))]]
                changed += int(not np.array_equal(new_table[i, j], table[i, j]))
        cfg = MatchConfig.from_table(new_table)
        if changed == 0:
            break
    return cfg


class TestAccuracyOracle:
    def _planted(self, rng, n_graphs=4, n=4):
        truth = MatchConfig.random(n_graphs, n, rng)
        rows = [np.arange(n) for _ in range(n_graphs)]
        return truth, rows

    def test_truth_initialized_unchanged(self, rng):
        truth, rows = self._planted(rng)
        out = run_isb_acc_oracle(truth, truth, rows, t_max=5)
        assert out == truth

    def test_accuracy_non_decreasing_over_prefix_runs(self, rng):
        from mgmboost import accuracy
        truth, rows = self._planted(rng, 5, 4)
        cfg0 = random_config(rng, 5, 4)
        prev = 0.0
        for t in range(5):
            out = run_isb_acc_oracle(cfg0, truth, rows, t_max=t)
            acc = accuracy(out, truth, rows)
            assert acc >= prev - 1e-12
            prev = acc

    def test_upper_bounds_observable_boosting(self, rng):
        from mgmboost import accuracy
        truth, rows = self._planted(rng, 4, 4)
        cfg0 = random_config(rng, 4, 4)
        kset = random_kset(rng, 4, 4)
        oracle = run_isb_acc_oracle(cfg0, truth, rows, t_max=20)
        boosted, _ = run_boost(cfg0, kset, BoostParams(
            mode="isb", t_max=20, enforce_final_consistency=False))
        assert accuracy(oracle, truth, rows) >= accuracy(boosted, truth, rows) - 1e-12
