"""Core types: permutations, composition, affinity scores.

Property coverage:
- compose associativity and tree-path closure (enumerated, N <= 5, n <= 4)
- gather score == dense vec quadratic form (1e-9; dense K at n <= 6,
  CSR at n = 13)
- score invariance under simultaneous consistent relabeling (n <= 4)
"""

import itertools
import pickle
import re

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mgmboost import (AffinityMatrix, MatchConfig, Permutation, ScoreNormalizer,
                      affinity_score, solve_pairwise)

from conftest import naive_quad_form, random_affinity


# floats that are not whole numbers: fractions, nan and +-inf
NON_INTEGER = st.floats().filter(lambda f: not f.is_integer())


class TestPermutation:
    def test_rejects_non_permutations(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])
        with pytest.raises(ValueError):
            Permutation([0, 2])
        with pytest.raises(ValueError):
            Permutation([])

    @pytest.mark.parametrize("bad", [[0.7, 1.2], [0.0, float("nan")], ["0", "1"]])
    def test_rejects_non_integer_indices(self, bad):
        with pytest.raises(ValueError, match="integer"):
            Permutation(bad)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), data=st.data(), value=NON_INTEGER)
    def test_non_integer_index_named(self, n, data, value):
        # Permutation and MatchConfig.from_table share one index check
        named = re.escape(f"index {value!r} is not an integer")
        perm = np.arange(n, dtype=float)
        perm[data.draw(st.integers(0, n - 1))] = value
        with pytest.raises(ValueError, match=named):
            Permutation(perm)
        table = MatchConfig.identity(3, n).perm_table().astype(float)
        table[0, data.draw(st.integers(1, 2)), data.draw(st.integers(0, n - 1))] = value
        with pytest.raises(ValueError, match=named):
            MatchConfig.from_table(table)

    def test_accepts_whole_floats(self):
        assert Permutation([1.0, 0.0]) == Permutation([1, 0])

    def test_matrix_roundtrip(self, rng):
        for _ in range(10):
            p = Permutation.random(5, rng)
            assert Permutation.from_matrix(p.matrix) == p

    def test_from_matrix_rejects_zero_padded(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = bad[1, 1] = 1.0   # third row all zero
        with pytest.raises(ValueError):
            Permutation.from_matrix(bad)

    def test_invariants(self, rng):
        p = Permutation.random(6, rng)
        m = p.matrix
        assert np.array_equal(m.sum(axis=0), np.ones(6))
        assert np.array_equal(m.sum(axis=1), np.ones(6))
        assert np.array_equal(m @ m.T, np.eye(6))

    def test_inverse_is_transpose(self, rng):
        p = Permutation.random(5, rng)
        assert np.array_equal(p.inverse().matrix, p.matrix.T)


class TestCompose:
    def test_identity(self, rng):
        x = Permutation.random(4, rng)
        assert Permutation.identity(4).compose(x) == x
        assert x.compose(Permutation.identity(4)) == x

    def test_swap_involution(self):
        swap = Permutation([1, 0])
        assert swap.compose(swap) == Permutation.identity(2)

    def test_all_three_node_products(self):
        # exhaustive check: composition always equals the matrix product
        perms = [Permutation(list(p)) for p in itertools.permutations(range(3))]
        shift = Permutation([1, 2, 0])
        assert shift.compose(shift) == Permutation([2, 0, 1])
        for a in perms:
            for b in perms:
                assert np.array_equal(a.compose(b).matrix, a.matrix @ b.matrix)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).compose(Permutation.identity(4))

    def test_associative_and_closed_on_paths(self, rng):
        # composing along any path of a configuration yields a permutation
        for n_graphs, n in [(3, 2), (4, 3), (5, 4)]:
            cfg = MatchConfig.random(n_graphs, n, rng)
            for path in itertools.permutations(range(n_graphs)):
                acc = Permutation.identity(n)
                for a, b in zip(path, path[1:]):
                    acc = acc.compose(cfg.get(a, b))
                assert np.bincount(acc.perm, minlength=n).max() == 1
        a, b, c = (Permutation.random(4, rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


class TestAffinityScore:
    def test_identity_affinity_counts_nodes(self, rng):
        for n in (2, 3, 5):
            k = AffinityMatrix(np.eye(n * n))
            x = Permutation.random(n, rng)
            assert affinity_score(x, k) == n

    def test_two_node_cross_entry(self):
        # K holds 3 at the (node 1 with 1, node 2 with 2) edge pair and its
        # mirror; the identity matching collects both -> 6, by direct
        # expansion of the 4-vector quadratic form
        k = np.zeros((4, 4))
        k[0, 3] = k[3, 0] = 3.0
        vec = np.eye(2).flatten(order="F")
        assert vec @ k @ vec == 6.0
        assert affinity_score(Permutation.identity(2), AffinityMatrix(k)) == 6.0

    def test_dimension_mismatch(self, rng):
        k = AffinityMatrix(np.zeros((9, 9)))
        with pytest.raises(ValueError):
            affinity_score(Permutation.identity(2), k)

    def test_index_vector_scores_like_permutation(self, rng):
        k = random_affinity(rng, 4)
        x = Permutation.random(4, rng)
        assert affinity_score(x.perm.tolist(), k) == affinity_score(x, k)
        for bad in ([0, 0, 1, 2], [-1, 0, 1, 2], [0, 1, 2, 4]):
            with pytest.raises(ValueError, match="not a permutation"):
                affinity_score(bad, k)

    def test_invalid_input_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 0] = bad[1, 1] = 1.0
        with pytest.raises(ValueError):
            Permutation.from_matrix(bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 13])
    def test_gather_matches_dense_quadratic_form(self, n, rng):
        # row-gather vs the dense vec reference: dense K for n <= 12, CSR
        # at n = 13
        for _ in range(5):
            k = random_affinity(rng, n)
            assert k.is_sparse == (n > 12)
            x = Permutation.random(n, rng)
            ref = naive_quad_form(x.matrix, k.dense())
            assert affinity_score(x, k) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relabeling_invariance(self, n, rng):
        # score(P^T X Q, K relabeled accordingly) == score(X, K)
        for _ in range(5):
            k = random_affinity(rng, n)
            x = Permutation.random(n, rng)
            p = rng.permutation(n)   # relabel rows: node i becomes p[i]
            q = rng.permutation(n)   # relabel cols: node a becomes q[a]
            new_perm = np.empty(n, dtype=np.int64)
            new_perm[p[np.arange(n)]] = q[x.perm]
            x2 = Permutation(new_perm)
            old_idx = np.arange(n * n)
            i_old, a_old = old_idx % n, old_idx // n
            sigma = q[a_old] * n + p[i_old]
            k2 = np.zeros((n * n, n * n))
            k2[np.ix_(sigma, sigma)] = k.dense()
            assert affinity_score(x2, AffinityMatrix(k2)) == pytest.approx(
                affinity_score(x, k), rel=1e-12)

    def test_rejects_asymmetric_or_negative(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            AffinityMatrix(bad)
        with pytest.raises(ValueError):
            AffinityMatrix(-np.eye(4))

    @pytest.mark.parametrize("n", [2, 13])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_naming_entry(self, value, n):
        # a symmetric pair, so neither the symmetry nor the sign check
        # can be what rejects it; K is dense at n = 2 and CSR at n = 13
        m = np.eye(n * n)
        m[1, 3] = m[3, 1] = value
        named = re.escape(f"affinity entry (1, 3) = {value} is not finite")
        with pytest.raises(ValueError, match=named):
            AffinityMatrix(m)
        with pytest.raises(ValueError, match=named):
            solve_pairwise(m)


class TestNormalizedScore:
    def test_plain_ratio(self):
        k = AffinityMatrix(5.0 * np.eye(4))
        x = Permutation.identity(2)
        norm = ScoreNormalizer(20.0)
        assert affinity_score(x, k) / norm.value == 0.5

    def test_argmax_pair_is_one_initially(self, rng):
        from conftest import random_kset
        cfg = MatchConfig.random(4, 3, rng)
        kset = random_kset(rng, 4, 3)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        vals = [affinity_score(x, kset.get(i, j)) / norm.value for i, j, x in cfg.pairs()]
        assert max(vals) == pytest.approx(1.0, abs=1e-15)

    def test_boosted_pair_can_exceed_one(self):
        # 3 graphs, n = 2: the composition through graph 2 beats every
        # initial score, so its normalized value exceeds 1 (no clamping)
        ident, swap = Permutation.identity(2), Permutation([1, 0])
        pairs = {(0, 1): ident, (0, 2): swap, (1, 2): ident}
        cfg = MatchConfig(3, 2, pairs)
        low = np.zeros((4, 4))
        low[0, 3] = low[3, 0] = 1.0           # identity scores 2
        high = np.zeros((4, 4))
        high[0, 3] = high[3, 0] = 10.0        # identity would score 20
        mats = {(0, 1): AffinityMatrix(low), (1, 2): AffinityMatrix(low),
                (0, 2): AffinityMatrix(high)}
        from conftest import ReferenceAffinitySet
        kset = ReferenceAffinitySet(3, mats)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        composed = cfg.get(0, 1).compose(cfg.get(1, 2))   # identity
        assert affinity_score(composed, kset.get(0, 2)) / norm.value > 1.0

    def test_zero_normalizer_rejected(self):
        with pytest.raises(ValueError):
            ScoreNormalizer(0.0)


class TestAffinityOrientation:
    def test_commuted_matches_freshly_built_swap(self, rng):
        # the set's swapped orientation must equal the index-swapped matrix
        # and building the affinity matrix with the arguments swapped
        # (independent construction)
        from mgmboost import SynthParams, build_affinity_set, gen_random_graphs
        p = SynthParams(n_graphs=2, inliers=4, deform=0.1, density=0.8,
                        sigma2=0.1, seed=33)
        g1, g2 = gen_random_graphs(p)
        kset = build_affinity_set([g1, g2], p.sigma2)
        x = np.arange(16)
        sigma = (x % 4) * 4 + x // 4
        k01, k10 = kset.get(0, 1).dense(), kset.get(1, 0).dense()
        assert np.array_equal(k01[np.ix_(sigma, sigma)], k10)
        assert np.array_equal(build_affinity_set([g2, g1], p.sigma2).get(0, 1).dense(), k10)
        assert np.array_equal(build_affinity_set([g1, g2], p.sigma2).get(0, 1).dense(), k01)

    def test_score_invariant_under_orientation(self, rng):
        # J(X) against K_ij equals J(X^T) against the swapped orientation
        from conftest import random_kset
        kset = random_kset(rng, 3, 4)
        for _ in range(5):
            x = Permutation.random(4, rng)
            a = affinity_score(x, kset.get(0, 1))
            b = affinity_score(x.inverse(), kset.get(1, 0))
            assert a == pytest.approx(b, rel=1e-12)


class TestMatchConfig:
    def test_transpose_by_construction(self, rng):
        cfg = MatchConfig.random(4, 3, rng)
        for i in range(4):
            for j in range(4):
                assert np.array_equal(cfg.get(i, j).matrix, cfg.get(j, i).matrix.T)

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            MatchConfig(3, 2, {(0, 1): Permutation.identity(2)})

    def test_from_basis_composes_through_reference(self, rng):
        # X_ij = basis[i] followed by the inverse of basis[j], pair by pair
        for _ in range(10):
            n_graphs, n = int(rng.integers(2, 6)), int(rng.integers(1, 6))
            basis = [Permutation.random(n, rng) for _ in range(n_graphs)]
            cfg = MatchConfig.from_basis([b.perm for b in basis])
            for i in range(n_graphs):
                for j in range(n_graphs):
                    assert cfg.get(i, j) == basis[i].compose(basis[j].inverse())

    def test_perm_table_consistent_with_get(self, rng):
        cfg = MatchConfig.random(4, 3, rng)
        t = cfg.perm_table()
        for i in range(4):
            for j in range(4):
                assert np.array_equal(t[i, j], cfg.get(i, j).perm)

    def test_perm_table_read_only_and_shared(self, rng):
        cfg = MatchConfig.random(4, 3, rng)
        t = cfg.perm_table()
        assert t is cfg.perm_table()
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 1, 0] = t[0, 1, 1]
        with pytest.raises(ValueError):
            cfg.get(0, 1).perm[0] = 0
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and not back.perm_table().flags.writeable
        assert not pickle.loads(pickle.dumps(cfg.get(0, 1))).perm.flags.writeable

    def test_from_table_round_trip(self, rng):
        for n_graphs, n in [(2, 1), (3, 4), (5, 6)]:
            cfg = MatchConfig.random(n_graphs, n, rng)
            back = MatchConfig.from_table(cfg.perm_table())
            assert back == cfg
            assert hash(back) == hash(cfg)
            assert np.array_equal(back.perm_table(), cfg.perm_table())

    def test_from_table_fills_lower_triangle(self, rng):
        # only the upper triangle is read; inverses and identities are derived
        cfg = MatchConfig.random(4, 5, rng)
        scribbled = cfg.perm_table().copy()
        for i in range(4):
            for j in range(i + 1):
                scribbled[i, j] = rng.permutation(5)
        assert MatchConfig.from_table(scribbled) == cfg

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 4), (3, 3, 0), (1, 1, 3)])
    def test_from_table_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError):
            MatchConfig.from_table(np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("row", [[0, 0, 1], [0, 1, 3], [-1, 0, 1]])
    def test_from_table_rejects_non_permutation_upper_row(self, row):
        t = MatchConfig.identity(3, 3).perm_table().copy()
        t[1, 2] = row
        with pytest.raises(ValueError, match=r"pair \(1, 2\)"):
            MatchConfig.from_table(t)

    def test_from_table_rejects_non_integer_indices(self):
        t = MatchConfig.identity(3, 2).perm_table().astype(float)
        t[0, 1] = [0.7, 1.2]
        with pytest.raises(ValueError, match="integer"):
            MatchConfig.from_table(t)
