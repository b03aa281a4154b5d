"""Consistency metrics, node metrics, eliciting masks, keep-masked metrics.

Property coverage:
- all metrics in (0, 1], exactly 1 iff residuals vanish (N <= 5, n <= 4)
- mean unary == mean pairwise consistency to 1e-12 (200 random configs)
- C_p symmetric under index swap
- masks idempotent when rankings are computed once
- optimized implementations match naive triple-loop references to 1e-12
- keep-masked metrics in (0, 1] and equal to the naive masked references
  for random masks keeping the same count per graph
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgmboost
from mgmboost import (AffinityMatrix, AffinitySet, InlierEstimate, MatchConfig,
                      Permutation, affinity_score, best_anchor, inlier_mask,
                      is_fully_consistent, keep_masks, node_affinity_all,
                      node_consistency_all, overall_consistency,
                      pairwise_consistency, pairwise_consistency_all,
                      unary_consistency_all)

from conftest import (ReferenceAffinitySet, builder_affinity_sets,
                      commuted_node_affinity_all,
                      naive_elicited_pairwise, naive_elicited_unary,
                      naive_node_affinity, naive_node_consistency,
                      naive_pairwise_consistency, naive_quad_form,
                      naive_unary_consistency, random_config, random_kset)


def three_graph_example():
    """N=3, n=2 with X_01 = X_12 = I and X_02 = swap: one contradictory
    triangle."""
    ident, swap = Permutation.identity(2), Permutation([1, 0])
    return MatchConfig(3, 2, {(0, 1): ident, (0, 2): swap, (1, 2): ident})


def _index_users():
    """Every public call taking a graph index, as f(cfg, kset, est, g);
    the elicited calls pass the estimate's keep masks."""
    x = Permutation.identity(3)
    return {
        "get_row": lambda cfg, kset, est, g: cfg.get(g, 0),
        "get_col": lambda cfg, kset, est, g: cfg.get(0, g),
        "pairwise_i": lambda cfg, kset, est, g: pairwise_consistency(x, cfg, g, 0),
        "pairwise_j": lambda cfg, kset, est, g: pairwise_consistency(x, cfg, 0, g),
        "elicited_pairwise_i": lambda cfg, kset, est, g:
            pairwise_consistency(x, cfg, g, 0, keep_masks(cfg, est)),
        "elicited_pairwise_j": lambda cfg, kset, est, g:
            pairwise_consistency(x, cfg, 0, g, keep_masks(cfg, est)),
        "best_anchor_i": lambda cfg, kset, est, g: best_anchor(g, 0, cfg, kset, "score"),
        "best_anchor_j": lambda cfg, kset, est, g: best_anchor(0, g, cfg, kset, "score"),
    }


@pytest.mark.parametrize("graph", [-1, -4, 4])
@pytest.mark.parametrize("name", sorted(_index_users()))
def test_graph_index_out_of_range_raises(name, graph, rng):
    # negative indices must not wrap around to the last graphs
    cfg = random_config(rng, 4, 3)
    kset = random_kset(rng, 4, 3)
    with pytest.raises(IndexError, match=f"graph index {graph}"):
        _index_users()[name](cfg, kset, InlierEstimate(2, "consistency"), graph)


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
        # k > i, dense (n <= 12) or CSR; and ranking the nodes builds no
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


class TestInlierMask:
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
                 "quad_form", "shape")


def test_public_names():
    # a star import brings functions and classes, not the submodules
    modules = [name for name in mgmboost.__all__
               if isinstance(getattr(mgmboost, name), types.ModuleType)]
    assert not modules
    assert all(hasattr(mgmboost, name) for name in mgmboost.__all__)
    for owner in (mgmboost, mgmboost.consistency, mgmboost.core, mgmboost.synthgen,
                  mgmboost.AffinityMatrix):
        assert not [name for name in REMOVED_NAMES if hasattr(owner, name)]
