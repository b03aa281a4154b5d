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
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgmboost import (AffinityMatrix, BoostParams, GraphInstance, InlierEstimate,
                      MatchConfig, Permutation, ScoreNormalizer, SynthParams,
                      build_affinity_set, enforce_full_consistency,
                      gen_random_graphs, gen_random_points, init_config,
                      is_fully_consistent, keep_masks, mst, overall_consistency,
                      run_boost, total_score)
from mgmboost.boost import (_TERMS, MODES, _anchor_pools, _config_from_tree,
                            _IterTables, _pairs_best, _spectral_sync, _weights)

from conftest import (ReferenceAffinitySet, corrupted_config, naive_elicited_pairwise,
                      naive_elicited_unary, naive_pairwise_consistency,
                      naive_quad_form, naive_spectral_sync,
                      naive_unary_consistency, random_config, random_kset,
                      second_order_candidates,
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
    iu, ju = np.triu_indices(cfg.N, 1)
    weights = _weights(mode, 1, 0, lam)
    tbl = _IterTables(cfg, kset, norm, _TERMS.get(mode) if weights[1] else None, est)
    anchors, cands = _pairs_best(iu, ju, tbl, weights, sample_rate, rng)
    return list(zip(iu.tolist(), ju.tolist(), anchors.tolist(), map(Permutation, cands)))


def _pair_best_2nd(i, j, tbl, sample_rate, rng):
    """The second-order search of the single pair (i, j)."""
    return _pairs_best([i], [j], tbl, (1.0, 0.0), sample_rate, rng, second_order=True)[1][0]


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
        iu, ju = np.triu_indices(n_graphs, 1)
        got = _anchor_pools(iu, ju, n_graphs, sample_rate, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = [self.pair_by_pair(i, j, n_graphs, sample_rate, rng)
                for i, j in zip(iu.tolist(), ju.tolist())]
        assert got.tolist() == want


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

    # K is dense at n = 4, and at n = 13 when 84% full; CSR when 10% full
    @pytest.mark.parametrize(("n", "density"), [(4, 0.6), (13, 0.6), (13, 0.05)],
                             ids=["4-dense", "13-sparse", "13-csr"])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    def test_matches_exhaustive_enumeration(self, n, density, sample_rate):
        for seed in range(3):
            srng = np.random.default_rng(300 + seed)
            cfg = random_config(srng, 6, n)
            kset = random_kset(srng, 6, n, density)
            norm = ScoreNormalizer.from_initial(cfg, kset)
            tbl = _IterTables(cfg, kset, norm)
            for i, j in [(0, 1), (1, 4), (3, 5)]:
                pool = _anchor_pools(i, j, cfg.N, sample_rate, np.random.default_rng(seed))[0]
                got = _pair_best_2nd(i, j, tbl, sample_rate, np.random.default_rng(seed))
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
                tbl = _IterTables(cfg, kset, ScoreNormalizer.from_initial(cfg, kset))
                got = _pairs_best(iu, ju, tbl, (1.0, 0.0), sample_rate,
                                  np.random.default_rng(n_graphs), second_order=True)[1]
                cands = second_order_candidates(iu, ju, tbl, sample_rate,
                                                np.random.default_rng(n_graphs))
                scores = tbl.scores_for(iu, ju, cands)
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
            tbl = _IterTables(cfg, kset, norm)
            got = Permutation(_pair_best_2nd(0, 1, tbl, 1.0, None))
            scored, want = self.exhaustive(0, 1, cfg, kset, norm, range(n_graphs))
            assert got == want
            top = {cand for cand, val in scored if val == 1.0}
            distinct_ties += len(top) > 1 and cfg.get(0, 1) not in top
        assert distinct_ties > 0   # some seed ties distinct non-incumbent candidates


class TestSpectralSync:
    """Top-n eigensolve against the full eigendecomposition."""

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


class TestConfigFromTree:
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
            label = srng.permutation(n_graphs)
            tree = sorted(tuple(sorted((int(label[k]), int(label[srng.integers(k)]))))
                          for k in range(1, n_graphs))
            out = _config_from_tree(cfg, tree)
            for i in range(n_graphs):
                for j in range(n_graphs):
                    path = self.tree_path(tree, i, j)
                    want = Permutation.identity(cfg.n)
                    for a, b in zip(path, path[1:]):
                        want = want.compose(cfg.get(a, b))
                    assert out.get(i, j) == want


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


class TestMst:
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

    def test_zero_and_tied_weights(self):
        # (2, 3) is the one heavy edge; of the tied weight-1 edges, (0, 2)
        # comes first and (1, 2) joins graph 1; every other edge has weight 0
        w = np.zeros((5, 5))
        for (i, j), value in {(2, 3): 2.0, (0, 2): 1.0, (1, 2): 1.0, (1, 3): 1.0}.items():
            w[i, j] = w[j, i] = value
        assert mst(w) == [(0, 2), (0, 4), (1, 2), (2, 3)]


class TestEnforceFullConsistency:
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
