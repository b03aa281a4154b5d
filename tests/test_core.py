"""Core types: permutations, composition, affinity scores.

Property coverage:
- compose associativity and tree-path closure (enumerated, N <= 5, n <= 4)
- gather score == dense vec quadratic form (1e-9; dense K at n <= 6, at
  n = 13 at fills 0.84 and 0.10 and at n = 17 with fill 0.84, CSR at
  n = 17 with fill 0.10)
- score invariance under simultaneous consistent relabeling (n <= 4)
- K is dense at any fill while a solver stack holds two of them (n <= 16
  at 2^17 entries, n <= 19 at 2^18), and above only from a third full
- every real-valued, choice and count parameter of the public entry
  points either takes a value or rejects it with a ValueError, raised in
  mgmboost, that names the parameter (strings, booleans, None, NaN, +-inf,
  out-of-range numbers, arrays)
"""

import functools
import hashlib
import itertools
import math
import os
import pickle
import re
import traceback

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import mgmboost
import mgmboost.core as core
from mgmboost import (AffinityMatrix, BoostParams, ExperimentSpec, InlierEstimate, MatchConfig,
                      Permutation, ScoreNormalizer, SynthParams, affinity_score,
                      build_affinity_set, enforce_full_consistency, gen_random_graphs,
                      gen_random_points, init_config, run_boost, solve_pairwise)
from mgmboost.core import check_count

from conftest import naive_quad_form, random_affinity, reference_from_basis


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

    @pytest.mark.parametrize("mask", [[True, False], np.array([False, True]), [True, 0, 2]])
    def test_rejects_boolean_indices(self, mask):
        # a mask once read as the indices 1 and 0, and [True, 0, 2] as [1, 0, 2]
        with pytest.raises(ValueError, match=f"index {mask[0]} is a boolean, not an integer"):
            Permutation(mask)
        with pytest.raises(ValueError, match="got dtype bool"):
            Permutation(np.zeros(0, dtype=bool))

    def test_matrix_roundtrip(self, rng):
        for _ in range(10):
            p = Permutation.random(5, rng)
            assert Permutation(np.argmax(p.matrix, axis=1)) == p

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
        # anything AffinityMatrix accepts, as power_iteration takes it
        assert affinity_score(Permutation.identity(2), k) == 6.0

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

    def test_invalid_input_rejected(self, rng):
        # a (zero-padded) matrix in place of an index vector
        bad = np.zeros((3, 3))
        bad[0, 0] = bad[1, 1] = 1.0
        with pytest.raises(ValueError, match="1-D index vector"):
            affinity_score(bad, random_affinity(rng, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 13, 17])
    def test_gather_matches_dense_quadratic_form(self, n, rng):
        # row-gather vs the dense vec reference: dense K for n <= 16 and
        # for the 84% full K at n = 17, CSR for the 10% full one at n = 17
        low_fill = np.random.default_rng(n)
        for _ in range(5):
            k = random_affinity(rng, n)
            assert not k.is_sparse
            x = Permutation.random(n, rng)
            ref = naive_quad_form(x.matrix, k.dense())
            assert affinity_score(x, k) == pytest.approx(ref, rel=1e-9)
            k = random_affinity(low_fill, n, density=0.05)
            assert k.is_sparse == (n > 16)
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

    def test_rejects_empty(self):
        # a (0, 0) matrix is square with n = 0: no pair of graphs has it
        with pytest.raises(ValueError, match=re.escape("must not be empty, got shape (0, 0)")):
            AffinityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("n", [2, 17])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_naming_entry(self, value, n):
        # a symmetric pair, so neither the symmetry nor the sign check
        # can be what rejects it; K is dense at n = 2 and CSR at n = 17
        m = np.eye(n * n)
        m[1, 3] = m[3, 1] = value
        named = re.escape(f"affinity entry (1, 3) = {value} is not finite")
        with pytest.raises(ValueError, match=named):
            AffinityMatrix(m)
        with pytest.raises(ValueError, match=named):
            solve_pairwise(m)

    @pytest.mark.parametrize(("entries", "largest"), [(1 << 17, 16), (1 << 18, 19)])
    def test_dense_below_fill_while_a_stack_holds_two(self, entries, largest, monkeypatch):
        # K is dense at any fill up to the largest n whose K a solver stack
        # of STACK_ENTRIES holds twice; above it, only from a third full
        monkeypatch.setattr(core, "STACK_ENTRIES", entries)
        for n, dense in ((largest, True), (largest + 1, False)):
            for nnz in (0, (n ** 4 - 1) // 3):
                assert core.dense_by_fill(n, nnz) is dense
            assert core.dense_by_fill(n, -(-n ** 4 // 3))
            assert AffinityMatrix(np.eye(n * n)).is_sparse is not dense


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

    def test_all_zero_initial_scores_name_the_cause(self):
        # graphs without edges build a set, and init_config solves it, but
        # no score can be normalized
        synth = SynthParams(n_graphs=3, inliers=4, density=0.0, seed=0)
        kset = build_affinity_set(gen_random_graphs(synth), synth.sigma2)
        cfg = init_config(kset, synth.coverage, synth.seed)
        message = ("every initial pair score is 0: no two graphs have edges with a "
                   "positive kernel")
        with pytest.raises(ValueError) as exc:
            ScoreNormalizer.from_initial(cfg, kset)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            run_boost(cfg, kset, BoostParams())
        assert str(exc.value) == message

    def test_infinite_normalizer_rejected(self):
        # inf was accepted and made every normalized score 0
        with pytest.raises(ValueError) as exc:
            ScoreNormalizer(float("inf"))
        assert str(exc.value) == "normalizer must be finite and > 0, got inf"


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

    @settings(max_examples=60, deadline=None)
    @given(n_graphs=st.integers(2, 7), n=st.integers(1, 7), data=st.data())
    def test_from_basis_equals_full_table(self, n_graphs, n, data):
        basis = [data.draw(st.permutations(range(n))) for _ in range(n_graphs)]
        cfg = MatchConfig.from_basis(basis)
        assert cfg == reference_from_basis(basis)
        assert cfg.perm_table().dtype == np.int64 and not cfg.perm_table().flags.writeable

    @pytest.mark.parametrize(("basis", "graph"), [
        ([[0, 1], [0, 0]], 1),
        ([[0, 2, 1], [2, 1, 0], [1, 2, 3]], 2),
        ([[-1, 0], [1, 0]], 0),
    ])
    def test_from_basis_rejects_non_permutation_row(self, basis, graph):
        with pytest.raises(ValueError, match=rf"basis row of graph {graph}: .* not a permutation"):
            MatchConfig.from_basis(basis)

    @pytest.mark.parametrize("shape", [(2,), (3, 0), (2, 2, 2), ()])
    def test_from_basis_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"basis must have shape (N, n) with n >= 1, got {shape}")):
            MatchConfig.from_basis(np.zeros(shape, dtype=np.int64))

    def test_from_basis_rejects_non_integer_indices(self):
        with pytest.raises(ValueError, match="integer"):
            MatchConfig.from_basis([[0.5, 1.0], [1.0, 0.0]])

    def test_random_draws_unchanged(self):
        # each pair draws rng.permutation(n), in row-major pair order; any
        # other draw order or count moves this digest
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for n_graphs, n in [(2, 1), (3, 4), (6, 5), (9, 3), (4, 12)]:
            table = MatchConfig.random(n_graphs, n, rng).perm_table()
            digest.update(np.ascontiguousarray(table, dtype="<i8").tobytes())
        assert digest.hexdigest() == ("691cae510b18cf7c871fc245d1a02c86"
                                      "ab941b13ea3d75a0b941fea55264e262")

    @pytest.mark.parametrize("make", [
        lambda: MatchConfig.identity(1, 3),
        lambda: MatchConfig.identity(3, 0),
        lambda: MatchConfig.random(1, 3, np.random.default_rng(0)),
        lambda: MatchConfig.random(3, 0, np.random.default_rng(0)),
    ], ids=["identity-N1", "identity-n0", "random-N1", "random-n0"])
    def test_needs_two_graphs_and_one_node(self, make):
        with pytest.raises(ValueError, match="need N >= 2 graphs and n >= 1 nodes"):
            make()

    @pytest.mark.parametrize("value", [2.5, 3.0, -1, "3", None])
    @pytest.mark.parametrize("make", [
        lambda n: Permutation.identity(n),
        lambda n: Permutation.random(n, np.random.default_rng(0)),
        lambda n: MatchConfig.identity(3, n),
        lambda n: MatchConfig.random(3, n, np.random.default_rng(0)),
        lambda n: MatchConfig(2, n, {(0, 1): Permutation.identity(3)}),
    ], ids=["perm-identity", "perm-random", "identity", "random", "dict"])
    def test_non_integer_node_count_named(self, make, value):
        with pytest.raises(ValueError, match=re.escape(
                f"n_nodes must be an integer >= 0, got {value!r}")):
            make(value)

    def test_numpy_integer_counts_accepted(self):
        assert Permutation.identity(np.int32(3)) == Permutation([0, 1, 2])
        cfg = MatchConfig.random(np.int64(4), np.uint8(3), np.random.default_rng(0))
        assert cfg.perm_table().shape == (4, 4, 3)
        assert MatchConfig.identity(np.int16(3), np.int64(2)) == MatchConfig.identity(3, 2)

    @pytest.mark.parametrize("value", [np.array([1, 0]), [1, 0], None])
    def test_dict_value_not_permutation_named(self, value):
        pairs = {(0, 1): Permutation.identity(2), (0, 2): value, (1, 2): Permutation.identity(2)}
        with pytest.raises(ValueError, match=re.escape(
                f"pair (0, 2) holds {type(value).__name__}, expected a Permutation")):
            MatchConfig(3, 2, pairs)

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

    @pytest.mark.parametrize("table", [
        [[[0, 1], [True, 0]], [[1, 0], [0, 1]]],       # once read as X_01 = [1, 0]
        [[[0, 1], [1, 0]], [[1, 0], [False, 1]]],      # on the diagonal, never read
        [[[0, 1], np.array([1, 0])], [[True, 0], [0, 1]]],
    ], ids=["upper", "diagonal", "lower"])
    def test_from_table_rejects_boolean_in_list(self, table):
        with pytest.raises(ValueError, match="index (True|False) is a boolean, not an integer"):
            MatchConfig.from_table(table)

    @pytest.mark.parametrize("pairs", [None, [Permutation.identity(2)] * 3, 5])
    def test_pairs_not_a_mapping_named(self, pairs):
        with pytest.raises(TypeError, match=re.escape(
                "pairs must be a mapping of (i, j) to Permutation, "
                f"got {type(pairs).__name__}")):
            MatchConfig(3, 2, pairs)


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(("name", "make"), [
    ("seed", lambda v: check_count("seed", v)),
    ("n_nodes", lambda v: MatchConfig.identity(3, v)),
    ("t_max", lambda v: BoostParams(t_max=v)),
    ("n_est", lambda v: InlierEstimate(v)),
    ("seed", lambda v: SynthParams(n_graphs=2, inliers=3, seed=v)),
    ("outliers", lambda v: SynthParams(n_graphs=2, inliers=3, outliers=v)),
], ids=["check_count", "MatchConfig", "BoostParams", "InlierEstimate", "SynthParams-seed",
        "SynthParams-outliers"])
def test_bool_count_rejected(name, make, value):
    # bool is a subclass of int, but True is no count of anything
    with pytest.raises(ValueError, match=rf"{name} must be an integer.*, got {value!r}$"):
        make(value)


@functools.cache
def _small_set():
    """Point-set instances, their affinity set and an initial configuration."""
    graphs = gen_random_points(SynthParams(n_graphs=3, inliers=4, deform=0.05, seed=1))
    kset = build_affinity_set(graphs, 0.05)
    return graphs, kset, init_config(kset, 1.0, 0)


def _spec(**fields):
    return ExperimentSpec(**{"generator": "random_graph", "base": SynthParams(3, 3),
                             "sweep_param": "deform", "sweep_values": (0.1,),
                             "algorithms": (("a", BoostParams()),), **fields})


# (the parameter's name in the message, a call passing it the value)
BOUNDARY = [
    *[(name, lambda v, name=name: BoostParams(**{name: v}))
      for name in ("mode", "t0", "t_max", "lambda0", "beta", "gamma", "sample_rate", "seed")],
    *[(name, lambda v, name=name: SynthParams(**{"n_graphs": 3, "inliers": 3, name: v}))
      for name in ("n_graphs", "inliers", "outliers", "deform", "density", "sigma2",
                   "coverage", "seed")],
    ("n_est", InlierEstimate),
    ("mode", lambda v: InlierEstimate(2, v)),
    ("normalizer", ScoreNormalizer),
    *[(name, lambda v, name=name: _spec(**{name: v}))
      for name in ("generator", "trials", "seed_base", "affinity")],
    ("beta_w", lambda v: _spec(affinity="len_angle", beta_w=v)),
    ("beta_w", lambda v: _spec(affinity="gauss", beta_w=v)),
    ("coverage", lambda v: init_config(_small_set()[1], v, 0)),
    ("seed", lambda v: init_config(_small_set()[1], 1.0, v)),
    ("sigma2", lambda v: build_affinity_set(_small_set()[0], v)),
    ("affinity", lambda v: build_affinity_set(_small_set()[0], 0.05, kind=v)),
    ("beta_w", lambda v: build_affinity_set(_small_set()[0], 0.05, "len_angle", v)),
    ("beta_w", lambda v: build_affinity_set(_small_set()[0], 0.05, "gauss", v)),
    ("gamma", lambda v: enforce_full_consistency(_small_set()[2], _small_set()[1], v)),
]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(BOUNDARY), value=st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.integers(-3, 3), st.floats(-3, 3),
    st.sampled_from([math.nan, math.inf, -math.inf, np.True_, np.float64(-0.5),
                     np.int64(-1), np.array(["isb", "isb"])])))
def test_boundary_value_named(case, value):
    # a string once met a bare '<=' TypeError, and a boolean passed as a number
    name, call = case
    try:
        call(value)
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must "), str(exc)
        raised_in = traceback.extract_tb(exc.__traceback__)[-1].filename
        assert os.path.dirname(raised_in) == os.path.dirname(mgmboost.__file__)


@pytest.mark.parametrize("call", [
    lambda: build_affinity_set(_small_set()[0], 0.05, "gauss", beta_w="a"),
    lambda: _spec(affinity="gauss", beta_w="a"),
    lambda: _spec(affinity="gauss", beta_w=5),
], ids=["build_affinity_set", "ExperimentSpec-str", "ExperimentSpec-5"])
def test_gauss_beta_w_rejected(call):
    # each passed silently while only len_angle checked beta_w; the fuzz
    # above also accepts a call that succeeds, so it cannot catch that
    with pytest.raises(ValueError, match=r"^beta_w must lie in \[0, 1\], got "):
        call()


def test_numpy_count_shown_as_number():
    # the message read 'got np.int64(-1)', where check_real shows -1
    with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, got -1")
                       + "$"):
        SynthParams(3, 3, seed=np.int64(-1))
