"""Consistency metrics, node metrics, eliciting masks, keep-masked metrics.

Property coverage:
- all metrics in (0, 1], exactly 1 iff residuals vanish (N <= 5, n <= 4)
- mean unary == mean pairwise consistency to 1e-12 (200 random configs)
- C_p symmetric under index swap
- masks idempotent when rankings are computed once
- optimized implementations match naive triple-loop references to 1e-12
- keep-masked metrics in (0, 1] and equal to the naive masked references
  for random masks keeping the same count per graph
- candidate consistency from per-row anchor counts equals the N-fold
  comparison exactly, with and without masks, and stays below the memory
  that comparison needs; the flat-gather compositions of a sweep equal a
  fancy index over the table, for one pair and for a stack of pairs
- unary and pairwise consistency of a whole configuration, from one pass
  over the anchors, equal the formulas on the (N, N, N) count array
  exactly, with and without masks, and stay below that array's memory
"""

import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgmboost
from mgmboost import (AffinityMatrix, AffinitySet, InlierEstimate, MatchConfig,
                      Permutation, affinity_score, inlier_mask,
                      is_fully_consistent, keep_masks, node_affinity_all,
                      node_consistency_all, overall_consistency,
                      pairwise_consistency, pairwise_consistency_all,
                      unary_consistency_all)
from mgmboost.consistency import candidate_consistency, compositions

from conftest import (ReferenceAffinitySet, builder_affinity_sets,
                      commuted_node_affinity_all, corrupted_config,
                      naive_anchor_mismatch_counts, naive_candidate_consistency,
                      naive_elicited_pairwise, naive_elicited_unary,
                      naive_node_affinity, naive_node_consistency,
                      naive_pairwise_consistency, naive_quad_form,
                      naive_unary_consistency, random_config, random_kset,
                      reference_compositions)


def three_graph_example():
    """N=3, n=2 with X_01 = X_12 = I and X_02 = swap: one contradictory
    triangle."""
    ident, swap = Permutation.identity(2), Permutation([1, 0])
    return MatchConfig(3, 2, {(0, 1): ident, (0, 2): swap, (1, 2): ident})


def _index_users():
    """Every public call taking a graph index, as f(cfg, est, g); the
    elicited calls pass the estimate's keep masks."""
    x = Permutation.identity(3)
    return {
        "get_row": lambda cfg, est, g: cfg.get(g, 0),
        "get_col": lambda cfg, est, g: cfg.get(0, g),
        "pairwise_i": lambda cfg, est, g: pairwise_consistency(x, cfg, g, 0),
        "pairwise_j": lambda cfg, est, g: pairwise_consistency(x, cfg, 0, g),
        "elicited_pairwise_i": lambda cfg, est, g:
            pairwise_consistency(x, cfg, g, 0, keep_masks(cfg, est)),
        "elicited_pairwise_j": lambda cfg, est, g:
            pairwise_consistency(x, cfg, 0, g, keep_masks(cfg, est)),
    }


@pytest.mark.parametrize("graph", [-1, -4, 4])
@pytest.mark.parametrize("name", sorted(_index_users()))
def test_graph_index_out_of_range_raises(name, graph, rng):
    # negative indices must not wrap around to the last graphs
    cfg = random_config(rng, 4, 3)
    with pytest.raises(IndexError, match=f"graph index {graph}"):
        _index_users()[name](cfg, InlierEstimate(2, "consistency"), graph)


@pytest.mark.parametrize("graph", [0.5, 1.0, np.float64(2.0), True, np.bool_(False), "1"])
@pytest.mark.parametrize("name", sorted(_index_users()))
def test_graph_index_not_an_integer_raises(name, graph, rng):
    # 0.5 once passed the range check and failed inside numpy or a list
    cfg = random_config(rng, 4, 3)
    with pytest.raises(ValueError, match=re.escape(f"graph index {graph!r} is not an integer")):
        _index_users()[name](cfg, InlierEstimate(2, "consistency"), graph)


class TestUnaryConsistency:
    def test_fully_consistent_is_one(self, rng):
        cfg = MatchConfig.identity(4, 3)
        for k in range(4):
            assert unary_consistency_all(cfg)[k] == 1.0

    def test_three_graph_value(self):
        cfg = three_graph_example()
        # direct evaluation of the 3-pair sum: only pair (1,2) routed
        # through graph 0 disagrees, in both of its rows
        assert unary_consistency_all(cfg)[0] == pytest.approx(2.0 / 3.0)
        assert naive_unary_consistency(0, cfg) == pytest.approx(2.0 / 3.0)

    def test_matches_naive_reference(self, rng):
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(3, 7)), int(rng.integers(2, 6)))
            for k in range(cfg.N):
                got = unary_consistency_all(cfg)[k]
                assert 0.0 < got <= 1.0
                assert got == pytest.approx(naive_unary_consistency(k, cfg), abs=1e-12)


class TestPairwiseConsistency:
    def test_member_of_consistent_config(self):
        cfg = MatchConfig.identity(4, 3)
        assert pairwise_consistency(cfg.get(0, 1), cfg, 0, 1) == 1.0

    def test_three_graph_value(self):
        cfg = three_graph_example()
        x = cfg.get(0, 2)
        got = pairwise_consistency(x, cfg, 0, 2)
        assert got == pytest.approx(naive_pairwise_consistency(x, cfg, 0, 2), abs=1e-15)
        # k=0 and k=2 reproduce X_02 itself; k=1 composes to the identity,
        # disagreeing in both rows -> 1 - 2/(2*3)
        assert got == pytest.approx(2.0 / 3.0)

    def test_candidate_need_not_belong(self, rng):
        cfg = random_config(rng, 4, 3)
        foreign = Permutation.random(3, rng)
        got = pairwise_consistency(foreign, cfg, 1, 2)
        assert got == pytest.approx(naive_pairwise_consistency(foreign, cfg, 1, 2),
                                    abs=1e-12)

    def test_symmetric_under_swap(self, rng):
        for _ in range(20):
            cfg = random_config(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)))
            for i in range(cfg.N - 1):
                for j in range(i + 1, cfg.N):
                    a = pairwise_consistency(cfg.get(i, j), cfg, i, j)
                    b = pairwise_consistency(cfg.get(j, i), cfg, j, i)
                    assert a == pytest.approx(b, abs=1e-15)

    def test_matches_naive_reference(self, rng):
        for _ in range(10):
            cfg = random_config(rng, 5, 4)
            table = pairwise_consistency_all(cfg)
            for i in range(4):
                for j in range(i + 1, 5):
                    ref = naive_pairwise_consistency(cfg.get(i, j), cfg, i, j)
                    assert table[i, j] == pytest.approx(ref, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            pairwise_consistency(Permutation.identity(5), MatchConfig.identity(3, 2), 0, 1)

    @pytest.mark.parametrize(("candidate", "message"), [
        ([0, 1, 5, 3], "indices [0, 1, 5, 3] are not a permutation of 0..3"),  # another row
        ([0, 0, 0, 0], "indices [0, 0, 0, 0] are not a permutation of 0..3"),
        ([0, 1, 2, -1], "indices [0, 1, 2, -1] are not a permutation of 0..3"),  # no wrap
        ([0.5, 1, 2, 3], "index 0.5 is not an integer"),
    ], ids=["out-of-range", "repeated", "negative", "fractional"])
    def test_candidate_validated_as_permutation(self, candidate, message, rng):
        # validated as affinity_score validates its matching, before any count
        cfg = random_config(rng, 3, 4)
        with pytest.raises(ValueError, match=re.escape(message)):
            pairwise_consistency(candidate, cfg, 0, 1)


def _candidate_batch(rng, pairs, count, anchors, n):
    """(P, N, n) random permutation rows as compositions, and (P, A, n)
    candidates: each a copy of one of its pair's compositions (so repeats
    occur) or a fresh permutation."""
    comps = rng.permuted(np.broadcast_to(np.arange(n), (pairs, anchors, n)), axis=2)
    picked = comps[np.arange(pairs)[:, None], rng.integers(0, anchors, (pairs, count))]
    fresh = rng.permuted(np.broadcast_to(np.arange(n), (pairs, count, n)), axis=2)
    return np.where(rng.uniform(size=(pairs, count, 1)) < 0.7, picked, fresh), comps


def _equal_count_mask(rng, pairs, n, kept):
    keep = np.zeros((pairs, n), dtype=bool)
    for p in range(pairs):
        keep[p, rng.choice(n, kept, replace=False)] = True
    return keep


class TestCandidateConsistency:
    @settings(max_examples=120, deadline=None)
    @given(pairs=st.integers(1, 6), count=st.integers(1, 12), anchors=st.integers(2, 12),
           n=st.integers(1, 9), data=st.data())
    def test_equals_naive_comparison(self, pairs, count, anchors, n, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        cands, comps = _candidate_batch(rng, pairs, count, anchors, n)
        keep = _equal_count_mask(rng, pairs, n, data.draw(st.integers(1, n)))
        for keep_row in (None, keep):
            got = candidate_consistency(cands, comps, keep_row)
            assert np.array_equal(got, naive_candidate_consistency(cands, comps, keep_row))

    @settings(max_examples=80, deadline=None)
    @given(n_graphs=st.integers(2, 8), n=st.integers(1, 7), pairs=st.integers(1, 6),
           flip=st.sampled_from([0.0, 0.3, 1.0]), data=st.data())
    def test_sweep_compositions_equal_references(self, n_graphs, n, pairs, flip, data):
        # the flat gathers of a sweep, compositions and then the consistency
        # of anchor candidates drawn from them, against the fancy index and
        # the N-fold comparison
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        table = corrupted_config(rng, n_graphs, n, flip).perm_table()
        i, j = rng.integers(0, n_graphs, size=(2, pairs))
        for a, b in ((i, j), (int(i[0]), int(j[0]))):
            assert np.array_equal(compositions(table, a, b), reference_compositions(table, a, b))
        comps = compositions(table, i, j)
        cands = comps[np.arange(pairs)[:, None], rng.integers(0, n_graphs, (pairs, n_graphs))]
        keep = _equal_count_mask(rng, pairs, n, data.draw(st.integers(1, n)))
        for keep_row in (None, keep):
            assert np.array_equal(candidate_consistency(cands, comps, keep_row),
                                  naive_candidate_consistency(cands, comps, keep_row))

    @pytest.mark.parametrize("masked", [False, True])
    def test_peak_memory_below_comparison_size(self, masked, rng):
        # the (P, A, N, n) comparison alone holds P*A*N*n bytes of booleans;
        # the bound is 8 int64 entries per (pair, anchor, row)
        pairs, anchors, n = 4, 128, 8
        cands, comps = _candidate_batch(rng, pairs, anchors, anchors, n)
        keep_row = _equal_count_mask(rng, pairs, n, 5) if masked else None
        candidate_consistency(cands, comps, keep_row)   # warm numpy's caches
        tracemalloc.start()
        try:
            candidate_consistency(cands, comps, keep_row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * pairs * anchors * n * 8


class TestOverallConsistency:
    def test_fully_consistent(self):
        assert overall_consistency(MatchConfig.identity(5, 3)) == 1.0
        assert is_fully_consistent(MatchConfig.identity(5, 3))

    def test_unary_mean_equals_pairwise_mean(self, rng):
        for _ in range(200):
            cfg = random_config(rng, int(rng.integers(3, 7)), int(rng.integers(2, 6)))
            unary_mean = unary_consistency_all(cfg).mean()
            cp = pairwise_consistency_all(cfg)
            iu = np.triu_indices(cfg.N, 1)
            pair_mean = cp[iu].mean()
            assert abs(unary_mean - pair_mean) < 1e-12

    def test_three_graph_value(self):
        cfg = three_graph_example()
        expect = np.mean([naive_unary_consistency(k, cfg) for k in range(3)])
        assert overall_consistency(cfg) == pytest.approx(expect, abs=1e-15)

    def test_one_iff_consistent(self, rng):
        for _ in range(30):
            cfg = random_config(rng, int(rng.integers(3, 6)), int(rng.integers(2, 5)))
            c = overall_consistency(cfg)
            assert 0.0 < c <= 1.0
            assert (c == 1.0) == is_fully_consistent(cfg)


class TestConfigurationMetrics:
    """The per-anchor pass against the whole (N, N, N) count array."""

    @settings(max_examples=120, deadline=None)
    @given(n_graphs=st.integers(2, 12), n=st.integers(1, 9), flip=st.floats(0, 1),
           data=st.data())
    def test_equals_count_array_formulas(self, n_graphs, n, flip, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        cfg = corrupted_config(rng, n_graphs, n, flip)
        mask = _equal_count_mask(rng, n_graphs, n, data.draw(st.integers(1, n)))
        for keep in (None, mask):
            counts = naive_anchor_mismatch_counts(cfg, keep)
            rows = n if keep is None else int(keep[0].sum())
            unary = 1.0 - np.triu(counts, 1).sum(axis=(1, 2)) / (
                rows * n_graphs * (n_graphs - 1) / 2.0)
            pairwise = 1.0 - counts.sum(axis=0) / (rows * n_graphs)
            assert np.array_equal(unary_consistency_all(cfg, keep), unary)
            assert np.array_equal(pairwise_consistency_all(cfg, keep), pairwise)

    @pytest.mark.parametrize("metric", ["overall", "pairwise", "pairwise_masked"])
    def test_peak_memory_below_count_array(self, metric, rng):
        # the (N, N, N) int64 count array alone holds 8*N**3 bytes (7.6 MiB);
        # the bound is 16 bytes per (i, j, u) entry of one anchor's slice
        n_graphs, n = 100, 20
        cfg = random_config(rng, n_graphs, n)
        keep = _equal_count_mask(rng, n_graphs, n, 12)
        call = {"overall": lambda: overall_consistency(cfg),
                "pairwise": lambda: pairwise_consistency_all(cfg),
                "pairwise_masked": lambda: pairwise_consistency_all(cfg, keep)}[metric]
        call()   # warm numpy's caches
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_graphs ** 2 * n


class TestNodeConsistency:
    def test_fully_consistent(self):
        cfg = MatchConfig.identity(4, 3)
        for k in range(4):
            for u in range(3):
                assert node_consistency_all(cfg)[k, u] == 1.0

    def test_single_planted_contradiction(self):
        # N=3, n=3: swap nodes 1 and 2 only in X_12; viewed from graph 0,
        # rows 1 and 2 each break in exactly one (i, j) pair
        ident = Permutation.identity(3)
        swapped = Permutation([0, 2, 1])
        cfg = MatchConfig(3, 3, {(0, 1): ident, (0, 2): ident, (1, 2): swapped})
        n_pairs = 3 * 2 / 2.0
        assert node_consistency_all(cfg)[0, 0] == 1.0
        assert node_consistency_all(cfg)[0, 1] == pytest.approx(1.0 - 1.0 / n_pairs)
        assert node_consistency_all(cfg)[0, 2] == pytest.approx(1.0 - 1.0 / n_pairs)

    def test_matches_naive_reference(self, rng):
        for _ in range(10):
            cfg = random_config(rng, 4, 4)
            table = node_consistency_all(cfg)
            for k in range(4):
                for u in range(4):
                    assert table[k, u] == pytest.approx(
                        naive_node_consistency(u, k, cfg), abs=1e-12)

    def test_shares_residual_mass_with_unary(self, rng):
        # summing row penalties over nodes recovers the unary residual
        for _ in range(10):
            cfg = random_config(rng, 4, 4)
            for k in range(4):
                node_mass = (1.0 - node_consistency_all(cfg)[k]).sum() * (4 * 3 / 2.0)
                unary_mass = (1.0 - unary_consistency_all(cfg)[k]) * (4 * 4 * 3 / 2.0)
                assert node_mass == pytest.approx(unary_mass, abs=1e-9)


class TestNodeAffinity:
    def test_zero_affinities(self, rng):
        cfg = random_config(rng, 3, 3)
        mats = {(i, j): AffinityMatrix(np.zeros((9, 9))) for i in range(2)
                for j in range(i + 1, 3)}
        kset = ReferenceAffinitySet(3, mats)
        for k in range(3):
            for u in range(3):
                assert node_affinity_all(cfg, kset)[k, u] == 0.0

    def test_matches_naive_and_bounded_by_total(self, rng):
        for _ in range(8):
            cfg = random_config(rng, 4, 4)
            kset = random_kset(rng, 4, 4)
            table = node_affinity_all(cfg, kset)
            for k in range(4):
                full = sum(affinity_score(cfg.get(k, i), kset.get(k, i))
                           for i in range(4) if i != k)
                for u in range(4):
                    ref = naive_node_affinity(u, k, cfg, kset)
                    assert table[k, u] == pytest.approx(ref, rel=1e-9, abs=1e-12)
                    # each node's mass never exceeds the total pair scores
                    assert table[k, u] <= full + 1e-9
                # left-masking is linear in the mask: rows sum to the total
                assert table[k].sum() == pytest.approx(full, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stored_orientation_equals_commuted(self, seed, monkeypatch):
        # node affinities in both orientations equal, bit for bit, the row
        # sums of the explicit matrices get(k, i), the commuted one for
        # k > i, dense (n <= 16) or CSR; and ranking the nodes builds no
        # pair matrix at all
        rng = np.random.default_rng(seed)
        ksets = builder_affinity_sets(seed) + [random_kset(rng, 4, n) for n in (5, 13)]
        real_get = AffinitySet.get
        asked = []

        def spy(self, i, j):
            asked.append((i, j))
            return real_get(self, i, j)

        for kset in ksets:
            cfg = random_config(rng, kset.N, kset.n)
            est = InlierEstimate(max(1, kset.n - 3), "affinity")
            with monkeypatch.context() as m:
                m.setattr(AffinitySet, "get", spy)
                got = node_affinity_all(cfg, kset)
                keep = keep_masks(cfg, est, kset)
            assert not asked
            ref = commuted_node_affinity_all(cfg, kset)
            assert np.array_equal(got, ref)
            expected = np.zeros_like(keep)
            order = np.argsort(-ref, axis=1, kind="stable")[:, :est.n_est]
            np.put_along_axis(expected, order, True, axis=1)
            assert np.array_equal(keep, expected)

    def test_contrast_between_connected_and_isolated(self):
        # node 0 matched through a high-affinity edge scores above node 2,
        # whose incident affinities are all zero
        k = np.zeros((9, 9))
        k[0 * 3 + 0, 1 * 3 + 1] = k[1 * 3 + 1, 0 * 3 + 0] = 4.0
        mats = {(0, 1): AffinityMatrix(k)}
        kset = ReferenceAffinitySet(2, mats)
        cfg = MatchConfig.identity(2, 3)
        assert node_affinity_all(cfg, kset)[0, 0] > node_affinity_all(cfg, kset)[0, 2]

    def test_rejects_a_table_for_the_configuration(self):
        # the index table, not its MatchConfig, once failed with an
        # AttributeError naming no argument; one check guards every call
        # taking a configuration, with or without an affinity set
        kset = builder_affinity_sets(0)[0]
        cfg = MatchConfig.identity(kset.N, kset.n)
        table, rows = cfg.perm_table(), [range(kset.n)] * kset.N
        calls = [lambda c, f=f: f(c, kset) for f in (
            node_affinity_all, mgmboost.core.pair_scores, mgmboost.total_score,
            mgmboost.ScoreNormalizer.from_initial, mgmboost.enforce_full_consistency)]
        calls += [overall_consistency, is_fully_consistent, unary_consistency_all,
                  pairwise_consistency_all, node_consistency_all,
                  lambda c: overall_consistency(c, table),
                  lambda c: is_fully_consistent(c, table),
                  lambda c: keep_masks(c, InlierEstimate(2)),
                  lambda c: pairwise_consistency(np.arange(kset.n), c, 0, 1),
                  lambda c: mgmboost.accuracy(c, cfg, rows),
                  lambda c: mgmboost.accuracy(cfg, c, rows),
                  lambda c: mgmboost.run_boost(c, kset, mgmboost.BoostParams(t_max=1))]
        for call in calls:
            call(cfg)      # the configuration itself is accepted
            with pytest.raises(TypeError) as exc:
                call(table)
            assert str(exc.value) == "configuration must be a MatchConfig, got ndarray"


class TestInlierMask:
    @pytest.mark.parametrize("x", [Permutation([2, 0, 1]), np.eye(3)[[1, 2, 0]]],
                             ids=["permutation", "matrix"])
    def test_no_mask_keeps_every_row(self, x):
        # None raised "bad operand type for unary ~"; every other keep
        # argument reads None as every row kept
        full = x.matrix if isinstance(x, Permutation) else x
        assert np.array_equal(inlier_mask(x, None), full)

    def test_keep_all_is_identity_operation(self, rng):
        cfg = random_config(rng, 4, 4)
        x = cfg.get(0, 1)
        est = InlierEstimate(4, "consistency")
        assert np.array_equal(inlier_mask(x, keep_masks(cfg, est)[0]), x.matrix)

    def test_keep_one_single_row(self, rng):
        cfg = random_config(rng, 4, 4)
        x = cfg.get(0, 1)
        masked = inlier_mask(x, keep_masks(cfg, InlierEstimate(1, "consistency"))[0])
        assert (masked.sum(axis=1) > 0).sum() == 1

    def test_planted_outliers_zeroed(self):
        # graphs agree on the first two nodes and contradict on the last
        # two; the 2-row mask keeps exactly the consistent rows
        base = Permutation.identity(4)
        bad = Permutation([0, 1, 3, 2])
        cfg = MatchConfig(3, 4, {(0, 1): base, (0, 2): base, (1, 2): bad})
        keep = keep_masks(cfg, InlierEstimate(2, "consistency"))
        for k in range(3):
            assert np.array_equal(keep[k], [True, True, False, False])
        masked = inlier_mask(cfg.get(1, 2), keep[1])
        assert masked[2:].sum() == 0.0
        assert masked[:2].sum() == 2.0

    def test_idempotent(self, rng):
        cfg = random_config(rng, 4, 4)
        est = InlierEstimate(2, "consistency")
        keep = keep_masks(cfg, est)
        x = cfg.get(0, 2)
        once = inlier_mask(x, keep[0])
        twice = inlier_mask(once, keep[0])
        assert np.array_equal(once, twice)

    def test_affinity_mode_needs_kset(self, rng):
        cfg = random_config(rng, 3, 3)
        with pytest.raises(ValueError):
            keep_masks(cfg, InlierEstimate(2, "affinity"))

    @pytest.mark.parametrize("n_est", [2.5, float("nan"), 0, -1])
    def test_bad_estimate_rejected_naming_it(self, n_est):
        with pytest.raises(ValueError, match=rf"n_est must be an integer >= 1, got {n_est!r}"):
            InlierEstimate(n_est)

    def test_estimate_must_be_inlier_estimate(self):
        # a bare count used to fail inside, reading 3.n_est
        with pytest.raises(TypeError, match="est must be an InlierEstimate, got int"):
            keep_masks(MatchConfig.identity(3, 4), 3)

    def test_ties_break_toward_low_index(self):
        cfg = MatchConfig.identity(3, 4)
        keep = keep_masks(cfg, InlierEstimate(2, "consistency"))
        assert np.array_equal(keep[0], [True, True, False, False])


class TestElicitedMetrics:
    def test_keep_all_fully_consistent(self):
        cfg = MatchConfig.identity(4, 3)
        est = InlierEstimate(3, "consistency")
        keep = keep_masks(cfg, est)
        assert unary_consistency_all(cfg, keep)[0] == 1.0
        assert pairwise_consistency(cfg.get(0, 1), cfg, 0, 1, keep) == 1.0

    def test_keep_all_reduces_to_plain_metrics(self, rng):
        for _ in range(20):
            cfg = random_config(rng, 4, 4)
            est = InlierEstimate(4, "consistency")
            keep = keep_masks(cfg, est)
            for k in range(4):
                assert unary_consistency_all(cfg, keep)[k] == pytest.approx(
                    unary_consistency_all(cfg)[k], abs=1e-12)
            for i in range(3):
                for j in range(i + 1, 4):
                    x = cfg.get(i, j)
                    assert pairwise_consistency(x, cfg, i, j, keep) == \
                        pytest.approx(pairwise_consistency(x, cfg, i, j), abs=1e-12)

    def test_outlier_only_contradictions_invisible(self):
        base = Permutation.identity(4)
        bad = Permutation([0, 1, 3, 2])
        cfg = MatchConfig(3, 4, {(0, 1): base, (0, 2): base, (1, 2): bad})
        keep = keep_masks(cfg, InlierEstimate(2, "consistency"))
        for k in range(3):
            assert unary_consistency_all(cfg, keep)[k] == 1.0

    def test_matches_naive_masked_reference(self, rng):
        for _ in range(10):
            cfg = random_config(rng, 4, 4)
            est = InlierEstimate(2, "consistency")
            keep = keep_masks(cfg, est)
            got_u = unary_consistency_all(cfg, keep)
            for k in range(4):
                assert got_u[k] == pytest.approx(
                    naive_elicited_unary(k, cfg, est, keep), abs=1e-12)
            got_p = pairwise_consistency_all(cfg, keep)
            for i in range(3):
                for j in range(i + 1, 4):
                    ref = naive_elicited_pairwise(cfg.get(i, j), cfg, est, i, j, keep)
                    assert got_p[i, j] == pytest.approx(ref, abs=1e-12)


class TestElicitedScore:
    def test_keep_all_equals_plain_score(self, rng):
        cfg = random_config(rng, 3, 4)
        kset = random_kset(rng, 3, 4)
        est = InlierEstimate(4, "consistency")
        x = cfg.get(0, 1)
        assert affinity_score(x, kset.get(0, 1), keep_masks(cfg, est)[0]) == pytest.approx(
            affinity_score(x, kset.get(0, 1)), rel=1e-12)

    def test_outlier_mass_removed(self):
        # all affinity sits on the edge between the two masked-out nodes
        base = Permutation.identity(4)
        bad = Permutation([0, 1, 3, 2])
        cfg = MatchConfig(3, 4, {(0, 1): base, (0, 2): base, (1, 2): bad})
        k = np.zeros((16, 16))
        k[3 * 4 + 2, 2 * 4 + 3] = k[2 * 4 + 3, 3 * 4 + 2] = 5.0   # edge (2,3)x(3,2)
        est = InlierEstimate(2, "consistency")
        val = affinity_score(cfg.get(0, 1), AffinityMatrix(k), keep_masks(cfg, est)[0])
        assert val == 0.0

    def test_masked_never_exceeds_unmasked(self, rng):
        for _ in range(10):
            cfg = random_config(rng, 4, 4)
            kset = random_kset(rng, 4, 4)
            est = InlierEstimate(int(rng.integers(1, 5)), "consistency")
            keep = keep_masks(cfg, est)
            for i, j, x in cfg.pairs():
                masked = affinity_score(x, kset.get(i, j), keep[i])
                assert masked <= affinity_score(x, kset.get(i, j)) + 1e-12

    def test_matches_naive_masked_quadratic_form(self, rng):
        cfg = random_config(rng, 4, 4)
        kset = random_kset(rng, 4, 4)
        est = InlierEstimate(2, "affinity")
        keep = keep_masks(cfg, est, kset)
        for i, j, x in cfg.pairs():
            masked_mat = inlier_mask(x, keep[i])
            ref = naive_quad_form(masked_mat, kset.get(i, j).dense())
            got = affinity_score(x, kset.get(i, j), keep[i])
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


def _mask_users():
    """Every public call taking a keep mask, as f(cfg, kset, keep); the
    row users get graph 0's row of an (N, n) mask."""
    x = Permutation.identity(4)
    return {
        "unary_all": lambda cfg, kset, keep: unary_consistency_all(cfg, keep),
        "pairwise_all": lambda cfg, kset, keep: pairwise_consistency_all(cfg, keep),
        "pairwise": lambda cfg, kset, keep: pairwise_consistency(x, cfg, 0, 1, keep),
        "affinity_score": lambda cfg, kset, keep: affinity_score(x, kset.get(0, 1), keep[0]),
        "inlier_mask": lambda cfg, kset, keep: inlier_mask(x, keep[0]),
    }


BAD_MASKS = {
    # fault: (mask of a 3-graph, 4-node configuration, message naming it)
    "shape": (np.ones((3, 5), dtype=bool), r"shape \(3, 5\)|shape \(5,\)"),
    "dtype": (np.ones((3, 4), dtype=np.int64), "boolean array, got int64"),
    "unequal": (np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]], dtype=bool),
                r"counts \[2, 1, 2\]"),
    "all_false": (np.zeros((3, 4), dtype=bool), r"positive number of rows .*counts \[0"),
}


# a single graph's row has no other count to disagree with
MASK_CASES = [(name, fault) for name in sorted(_mask_users()) for fault in sorted(BAD_MASKS)
              if fault != "unequal" or name not in ("affinity_score", "inlier_mask")]


class TestKeepMask:
    @pytest.mark.parametrize("name, fault", MASK_CASES)
    def test_bad_mask_raises_naming_fault(self, name, fault, rng):
        cfg = random_config(rng, 3, 4)
        kset = random_kset(rng, 3, 4)
        mask, message = BAD_MASKS[fault]
        with pytest.raises(ValueError, match=message):
            _mask_users()[name](cfg, kset, mask)

    @settings(max_examples=60, deadline=None)
    @given(n_graphs=st.integers(3, 6), n=st.integers(2, 5), data=st.data())
    def test_masked_metrics_match_naive_references(self, n_graphs, n, data):
        # any mask keeping the same count in every graph, not only a
        # ranked one: each metric counts the kept rows and is normalized
        # by that count, so the metrics of stored matchings stay in (0, 1]
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        kept = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, n_graphs, n)
        keep = np.zeros((n_graphs, n), dtype=bool)
        for g in range(n_graphs):
            keep[g, rng.choice(n, kept, replace=False)] = True
        est = InlierEstimate(kept)
        cu = unary_consistency_all(cfg, keep)
        cp = pairwise_consistency_all(cfg, keep)
        for k in range(n_graphs):
            assert 0.0 < cu[k] <= 1.0
            assert cu[k] == pytest.approx(naive_elicited_unary(k, cfg, est, keep), abs=1e-12)
        for i in range(n_graphs):
            for j in range(n_graphs):
                ref = naive_elicited_pairwise(cfg.get(i, j), cfg, est, i, j, keep)
                got = pairwise_consistency(cfg.get(i, j), cfg, i, j, keep)
                for val in (cp[i, j], got):
                    assert 0.0 < val <= 1.0
                    assert val == pytest.approx(ref, abs=1e-12)
                # a candidate outside the configuration may score 0
                foreign = Permutation.random(n, rng)
                assert pairwise_consistency(foreign, cfg, i, j, keep) == pytest.approx(
                    naive_elicited_pairwise(foreign, cfg, est, i, j, keep), abs=1e-12)


REMOVED_NAMES = ("elicited_unary_consistency", "elicited_unary_consistency_all",
                 "elicited_pairwise_consistency", "elicited_pairwise_consistency_all",
                 "elicited_score", "unary_consistency", "node_consistency",
                 "node_affinity", "check_node_index", "compose", "normalized_score",
                 "build_affinity_gauss", "build_affinity_len_angle", "_pair_matrix",
                 "quad_form", "shape", "SolverOptions", "best_anchor", "EVAL_KINDS",
                 "kernel_blocks", "DENSE_NODE_LIMIT", "kernel_sums", "dense_stack",
                 "is_dense", "SWEEP_BATCH_ENTRIES", "_is_dense")


def test_public_names():
    # a star import brings functions and classes, not the submodules
    modules = [name for name in mgmboost.__all__
               if isinstance(getattr(mgmboost, name), types.ModuleType)]
    assert not modules
    assert all(hasattr(mgmboost, name) for name in mgmboost.__all__)
    for owner in (mgmboost, mgmboost.consistency, mgmboost.core, mgmboost.synthgen,
                  mgmboost.pairwise, mgmboost.boost, mgmboost.AffinityMatrix,
                  mgmboost.AffinitySet):
        assert not [name for name in REMOVED_NAMES if hasattr(owner, name)]


def test_public_names_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert not [name for name in mgmboost.__all__
                if not re.search(rf"\b{name}\b", readme)]


def test_mode_table_documents_every_mode():
    # one row per mode in README's "Algorithm modes" table, no more
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Algorithm modes", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(mgmboost.boost.MODES)
