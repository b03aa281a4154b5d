"""Pairwise solver: Hungarian discretizer, power iteration, full solve.

Property coverage:
- hungarian total == brute-force max over all permutations (n <= 6)
- solve_pairwise always returns a valid permutation, any K conditioning
- identical-graph instances (n <= 5): solver attains the brute-force
  optimal quadratic-assignment score
- hungarian and power_iteration equal their vectorized references in
  conftest bit for bit, on exact ties and extreme magnitudes too
"""

import itertools
import warnings

import numpy as np
import pytest

from mgmboost import (AffinityMatrix, Permutation, SolverOptions, SynthParams,
                      affinity_score, build_affinity_set, gen_random_graphs,
                      hungarian, power_iteration, solve_pairwise)

from conftest import (brute_assignment_best, brute_qap_best,
                      builder_affinity_sets, random_affinity,
                      reference_hungarian, reference_power_iteration)


def _profits(rng, n):
    """Profit matrices that stress the column scan: uniform, integer
    valued with exact ties, constant, all zero, negative, and mixed
    magnitudes from 1e-12 to 1e12."""
    yield rng.uniform(size=(n, n))
    yield rng.integers(1, 9, size=(n, n)).astype(float)
    yield np.full((n, n), 2.5)
    yield np.zeros((n, n))
    yield -rng.uniform(0.0, 10.0, size=(n, n))
    yield (rng.choice([-1.0, 1.0], size=(n, n)) * rng.uniform(1.0, 10.0, size=(n, n))
           * 10.0 ** rng.integers(-12, 12, size=(n, n)))


class TestHungarian:
    def test_identity_profit(self):
        for n in (1, 2, 4, 7):
            p = hungarian(np.eye(n))
            assert p == Permutation.identity(n)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("value", [0.0, 2.5])
    def test_constant_profit_is_identity(self, n, value):
        # every assignment ties; the solver must still pick the identity
        assert hungarian(np.full((n, n), value)) == Permutation.identity(n)

    def test_two_by_two(self):
        # [[2,1],[1,2]]: identity totals 4, the swap totals 2
        profit = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert hungarian(profit) == Permutation.identity(2)
        totals = {perm: profit[0, perm[0]] + profit[1, perm[1]]
                  for perm in itertools.permutations(range(2))}
        assert max(totals.values()) == 4.0

    def test_dominant_antidiagonal(self):
        n = 4
        profit = np.eye(n) + 5.0 * np.fliplr(np.eye(n))
        assert hungarian(profit) == Permutation(np.arange(n)[::-1])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian(np.ones((2, 3)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, n, rng):
        for _ in range(20):
            profit = rng.normal(size=(n, n))
            got = hungarian(profit)
            total = float(profit[np.arange(n), got.perm].sum())
            assert total == pytest.approx(brute_assignment_best(profit), rel=1e-12)


    @pytest.mark.parametrize("n", range(1, 21))
    def test_equals_vectorized_reference(self, n, rng):
        for _ in range(3):
            for profit in _profits(rng, n):
                assert np.array_equal(hungarian(profit).perm, reference_hungarian(profit))


class TestPowerIteration:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_norm_reference(self, seed):
        opts = SolverOptions()
        for kset in builder_affinity_sets(seed):
            for i, j in kset.pairs():
                k = kset.get(i, j)
                assert np.array_equal(power_iteration(k, opts),
                                      reference_power_iteration(k, opts))

    # K is dense at n = 3 and CSR at n = 13
    @pytest.mark.parametrize("n", [3, 13], ids=["dense", "sparse"])
    def test_zero_matrix_equals_norm_reference(self, n):
        k = AffinityMatrix(np.zeros((n * n, n * n)))
        opts = SolverOptions()
        assert np.array_equal(power_iteration(k, opts), reference_power_iteration(k, opts))

    def test_nonconvergence_equals_norm_reference(self):
        opts = SolverOptions(max_power_iters=1)
        for kset in builder_affinity_sets(2):
            k = kset.get(0, 1)
            with pytest.warns(UserWarning, match="did not converge"):
                got = power_iteration(k, opts)
            with pytest.warns(UserWarning, match="did not converge"):
                ref = reference_power_iteration(k, opts)
            assert np.array_equal(got, ref)


    def test_identity_returns_uniform(self):
        v = power_iteration(AffinityMatrix(np.eye(9)))
        assert np.allclose(v, np.full(9, 1.0 / 3.0))

    def test_dominant_diagonal(self):
        k = np.diag([3.0, 1.0, 1.0, 1.0])
        v = power_iteration(AffinityMatrix(k), SolverOptions(max_power_iters=2000, tol=1e-12))
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-5)

    def test_matches_dense_eigensolver(self, rng):
        # n^2 = 16 random symmetric non-negative matrix vs numpy's eigh
        for _ in range(5):
            k = random_affinity(rng, 4, density=1.0)
            v = power_iteration(k, SolverOptions(max_power_iters=20000, tol=1e-13))
            vals, vecs = np.linalg.eigh(k.dense())
            lead = vecs[:, -1]
            lead = lead if lead.sum() >= 0 else -lead
            assert np.linalg.norm(v - lead) < 1e-6

    def test_unit_norm_and_nonnegative(self, rng):
        k = random_affinity(rng, 13)
        v = power_iteration(k)
        assert v.min() >= 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_warns_not_raises(self, rng):
        k = random_affinity(rng, 4, density=1.0)
        with pytest.warns(UserWarning, match="did not converge"):
            v = power_iteration(k, SolverOptions(max_power_iters=1, tol=1e-16))
        assert v.shape == (16,)


class TestSolvePairwise:
    def test_single_node(self):
        assert solve_pairwise(AffinityMatrix(np.zeros((1, 1)))) == Permutation.identity(1)

    def test_zero_affinity_returns_identity(self):
        assert solve_pairwise(AffinityMatrix(np.zeros((16, 16)))) == Permutation.identity(4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_identical_graphs_reach_optimum(self, n, rng):
        # two exact copies: the solver must recover the relabeling, which
        # is the brute-force argmax for generic weights
        params = SynthParams(n_graphs=2, inliers=n, deform=0.0, density=1.0,
                             sigma2=0.01, seed=int(rng.integers(1 << 30)))
        g1, g2 = gen_random_graphs(params)
        k = build_affinity_set([g1, g2], params.sigma2).get(0, 1)
        x = solve_pairwise(k)
        got = affinity_score(x, k)
        assert got == pytest.approx(brute_qap_best(k.dense(), n), rel=1e-9)
        truth = g1.truth.compose(g2.truth.inverse())
        assert x == truth

    def test_always_feasible_on_hostile_affinities(self, rng):
        mats = [np.zeros((9, 9)), np.ones((9, 9)),
                1e12 * random_affinity(rng, 3).dense()]
        for m in mats:
            x = solve_pairwise(AffinityMatrix(m))
            assert isinstance(x, Permutation) and x.n == 3

    def test_beats_random_permutations_on_average(self, rng):
        k = random_affinity(rng, 5, density=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solved = affinity_score(solve_pairwise(k), k)
        rand_scores = [affinity_score(Permutation.random(5, rng), k) for _ in range(200)]
        assert solved >= np.mean(rand_scores)
