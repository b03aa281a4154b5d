"""Pairwise solver: Hungarian discretizer, power iteration, full solve.

Property coverage:
- hungarian total == brute-force max over all permutations (n <= 6)
- solve_pairwise always returns a valid permutation, any K conditioning
- identical-graph instances (n <= 5): solver attains the brute-force
  optimal quadratic-assignment score
- hungarian and power_iteration equal their vectorized references in
  conftest bit for bit, on exact ties and extreme magnitudes too
- a raw dense or scipy sparse K is solved exactly as its AffinityMatrix
- a stack of B <= 40 matrices (n <= 16) power-iterates to the per-matrix
  vectors bit for bit, non-converging members included, and so does a
  stack compacted when most of its members settle on one step
- stacked_hungarian equals hungarian bit for bit on either side of
  LOCKSTEP_BATCH, on tied, signed-zero and extreme profits and on real
  power-iteration grids
"""

import itertools
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mgmboost import (AffinityMatrix, Permutation, SynthParams,
                      affinity_score, build_affinity_set, gen_random_graphs,
                      hungarian, power_iteration, solve_pairwise)
from mgmboost.pairwise import (LOCKSTEP_BATCH, stacked_hungarian,
                               stacked_power_iteration)

from conftest import (brute_assignment_best, brute_qap_best,
                      builder_affinity_sets, random_affinity,
                      reference_hungarian, reference_power_iteration)


# the star K_{1,3} as a 4 x 4 (n = 2) affinity matrix: it is bipartite, so
# power iteration from the uniform start alternates between two vectors
# and never converges
STAR = np.array([[0.0, 1.0, 1.0, 1.0],
                 [1.0, 0.0, 0.0, 0.0],
                 [1.0, 0.0, 0.0, 0.0],
                 [1.0, 0.0, 0.0, 0.0]])


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


def _profit_stacks(rng, b, n):
    """(B, n, n) profit stacks by kind: uniform, rounded to one decimal
    (ties), constant, integer valued, all zero, signed zeros, +-1e300,
    and one whose problems mix all of these."""
    shape = (b, n, n)
    kinds = {
        "uniform": rng.uniform(size=shape),
        "rounded": np.round(rng.uniform(size=shape), 1),
        "constant": np.full(shape, 2.5),
        "integer": rng.integers(1, 9, size=shape).astype(float),
        "zero": np.zeros(shape),
        "signed-zero": rng.choice([0.0, -0.0], size=shape),
        "huge": rng.choice([-1e300, 1e300], size=shape) * rng.uniform(0.5, 1.0, size=shape),
    }
    pick = rng.integers(len(kinds), size=b)
    kinds["mixed"] = np.stack(list(kinds.values()))[pick, np.arange(b)]
    return kinds


def _per_problem(profits):
    return np.array([hungarian(p).perm for p in profits]).reshape(profits.shape[:2])


class TestStackedHungarian:
    @pytest.mark.parametrize("b", [LOCKSTEP_BATCH - 1, LOCKSTEP_BATCH, 3 * LOCKSTEP_BATCH],
                             ids=["scalar", "lockstep", "lockstep-3x"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 16])
    def test_equals_per_problem(self, b, n, rng):
        for kind, profits in _profit_stacks(rng, b, n).items():
            got = stacked_hungarian(profits)
            assert got.shape == (b, n)
            assert np.array_equal(got, _per_problem(profits)), kind

    def test_power_iteration_grids(self):
        # all 496 pairs of a dense_many-sized set: N = 32, n = 8
        params = SynthParams(n_graphs=32, inliers=8, deform=0.1, density=0.9,
                             sigma2=0.05, seed=5)
        kset = build_affinity_set(gen_random_graphs(params), params.sigma2)
        i, j = np.array(kset.pairs()).T
        grids = stacked_power_iteration(kset._dense_stack(i, j)).reshape(-1, 8, 8)
        grids = grids.transpose(0, 2, 1)
        assert len(grids) >= LOCKSTEP_BATCH
        assert np.array_equal(stacked_hungarian(grids), _per_problem(grids))

    def test_empty_stack(self):
        assert stacked_hungarian(np.zeros((0, 3, 3))).shape == (0, 3)

    def test_rejects_empty_profit(self):
        with pytest.raises(ValueError, match=re.escape(
                "profit must have n >= 1 rows and columns, got shape (0, 0)")):
            hungarian(np.zeros((0, 0)))
        with pytest.raises(ValueError, match=re.escape(
                "profit must have n >= 1 rows and columns, got shape (2, 0, 0)")):
            stacked_hungarian(np.zeros((2, 0, 0)))

    @pytest.mark.parametrize("b", [2, LOCKSTEP_BATCH])
    def test_rejects_bad_input(self, b):
        with pytest.raises(ValueError, match="profit matrix must be square"):
            stacked_hungarian(np.ones((b, 2, 3)))
        with pytest.raises(ValueError, match="profit matrix must be square"):
            stacked_hungarian(np.ones((3, 3)))
        profits = np.ones((b, 3, 3))
        profits[-1, 2, 1] = np.nan
        with pytest.raises(ValueError, match=r"profit\[.+\] = .+ is not finite"):
            stacked_hungarian(profits)
        # the first non-finite entry in index order is named
        profits[-1, 1, 2] = -np.inf
        with pytest.raises(ValueError, match=re.escape(
                f"profit[{b - 1}, 1, 2] = -inf is not finite")):
            stacked_hungarian(profits)
        with pytest.raises(ValueError, match=re.escape(
                "profit[1, 2] = -inf is not finite")):
            hungarian(profits[-1])


class TestPowerIteration:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_norm_reference(self, seed):
        for kset in builder_affinity_sets(seed):
            for i, j in kset.pairs():
                k = kset.get(i, j)
                assert np.array_equal(power_iteration(k), reference_power_iteration(k))

    # K is dense at n = 3 and CSR at n = 17
    @pytest.mark.parametrize("n", [3, 17], ids=["dense", "sparse"])
    def test_zero_matrix_equals_norm_reference(self, n):
        k = AffinityMatrix(np.zeros((n * n, n * n)))
        assert np.array_equal(power_iteration(k), reference_power_iteration(k))

    def test_nonconvergence_equals_norm_reference(self):
        k = AffinityMatrix(STAR)
        with pytest.warns(UserWarning, match="did not converge"):
            got = power_iteration(k)
        with pytest.warns(UserWarning, match="did not converge"):
            ref = reference_power_iteration(k)
        assert np.array_equal(got, ref)

    # K is dense at n = 3 and 13, and at n = 17 when 84% full; CSR at
    # n = 17 when 10% full
    @pytest.mark.parametrize(("n", "density"), [(3, 0.6), (13, 0.6), (17, 0.05)],
                             ids=["dense", "sparse", "csr"])
    def test_raw_matrix_equals_affinity_matrix(self, n, density, rng):
        k = random_affinity(rng, n, density)
        assert k.is_sparse == (density < 0.1)
        want = power_iteration(k)
        for raw in (k.dense(), sp.csr_matrix(k.dense())):
            assert np.array_equal(power_iteration(raw), want)


    def test_identity_returns_uniform(self):
        v = power_iteration(AffinityMatrix(np.eye(9)))
        assert np.allclose(v, np.full(9, 1.0 / 3.0))

    def test_dominant_diagonal(self):
        k = np.diag([3.0, 1.0, 1.0, 1.0])
        v = power_iteration(AffinityMatrix(k))
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-5)

    def test_matches_dense_eigensolver(self, rng):
        # n^2 = 16 random symmetric non-negative matrix vs numpy's eigh
        for _ in range(5):
            k = random_affinity(rng, 4, density=1.0)
            v = power_iteration(k)
            vals, vecs = np.linalg.eigh(k.dense())
            lead = vecs[:, -1]
            lead = lead if lead.sum() >= 0 else -lead
            assert np.linalg.norm(v - lead) < 1e-6

    def test_unit_norm_and_nonnegative(self, rng):
        k = random_affinity(rng, 13)
        v = power_iteration(k)
        assert v.min() >= 0.0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_nonconvergence_warns_not_raises(self):
        with pytest.warns(UserWarning, match="did not converge"):
            v = power_iteration(AffinityMatrix(STAR))
        assert v.shape == (4,)


class TestStackedPowerIteration:
    def test_star_beside_converging_pairs(self, rng):
        ks = [random_affinity(rng, 2, density=1.0).dense() for _ in range(3)]
        stack = np.stack([ks[0], STAR, ks[1], STAR, ks[2]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = stacked_power_iteration(stack)
        assert sum("did not converge" in str(w.message) for w in caught) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, v in zip(stack, got):
                assert np.array_equal(v, power_iteration(AffinityMatrix(k)))

    def test_compaction_beside_nonconverging_member(self, rng):
        # the five copies of one matrix settle on one step, leaving three of
        # eight members live, so the stack is compacted around the star;
        # the zero matrix vanishes on the first step
        same = random_affinity(rng, 2, density=1.0).dense()
        other = random_affinity(rng, 2, density=1.0).dense()
        stack = np.stack([same, STAR, same, same, other, same, np.zeros((4, 4)), same])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = stacked_power_iteration(stack)
        assert sum("did not converge" in str(w.message) for w in caught) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k, v in zip(stack, got):
                assert np.array_equal(v, power_iteration(AffinityMatrix(k)))
        assert sum("did not converge" in str(w.message) for w in caught) == 1

    def test_every_finishing_route_equals_reference(self, rng):
        # the uniform start is an eigenvector of the all-ones matrix, which
        # settles on the first step beside the zero matrix, which vanishes
        # there; the shift K[i, i + 1] = 1 is nilpotent, so its product
        # first vanishes on the fifth step, beside live members and the
        # dead zero matrix; the star never settles
        shift = np.eye(4, k=1)
        other = random_affinity(rng, 2, density=1.0).dense()
        stack = np.stack([np.ones((4, 4)), np.zeros((4, 4)), shift, STAR, other])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = stacked_power_iteration(stack)
        assert sum("did not converge" in str(w.message) for w in caught) == 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for k, v in zip(stack, got):
                assert np.array_equal(v, reference_power_iteration(AffinityMatrix._wrap(2, k)))
        assert sum("did not converge" in str(w.message) for w in caught) == 1
        assert np.array_equal(got[2], [1.0, 0.0, 0.0, 0.0])   # the shift's last iterate

    # no member settles, so no live mask is made; or the all-ones matrix
    # settles on the first step, and the two stars leave under a live mask
    # never compacted, as two of three members stay live
    @pytest.mark.parametrize("members", [(STAR, 2.0 * STAR, STAR),
                                         (STAR, np.ones((4, 4)), 2.0 * STAR)],
                             ids=["unmasked", "masked"])
    def test_unsettled_members_warn_once_each(self, members):
        stack = np.stack(members)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = stacked_power_iteration(stack)
        stars = sum(not np.array_equal(k, np.ones((4, 4))) for k in stack)
        assert sum("did not converge" in str(w.message) for w in caught) == stars
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, v in zip(stack, got):
                assert np.array_equal(v, reference_power_iteration(AffinityMatrix(k)))

    @settings(max_examples=30, deadline=None)
    @given(b=st.integers(1, 40), n=st.integers(2, 16), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_equals_per_pair(self, b, n, seed):
        # a BLAS whose stacked matmul/vecdot round unlike the one-matrix
        # products fails here; matrices range from all zero to full
        rng = np.random.default_rng(seed)
        d = n * n
        fill = rng.choice([0.0, 0.05, 0.5, 1.0], size=(b, 1, 1))
        k = rng.uniform(size=(b, d, d))
        k *= rng.uniform(size=(b, d, d)) < fill
        k += k.transpose(0, 2, 1).copy()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = stacked_power_iteration(k)
            for kb, v in zip(k, got):
                assert np.array_equal(v, power_iteration(AffinityMatrix._wrap(n, kb)))


class TestSolvePairwise:
    def test_single_node(self):
        assert solve_pairwise(AffinityMatrix(np.zeros((1, 1)))) == Permutation.identity(1)

    def test_zero_affinity_returns_identity(self):
        assert solve_pairwise(AffinityMatrix(np.zeros((16, 16)))) == Permutation.identity(4)

    # K is dense at n = 3 and 13, and at n = 17 when 84% full; CSR at
    # n = 17 when 10% full
    @pytest.mark.parametrize(("n", "density"), [(3, 0.6), (13, 0.6), (17, 0.05)],
                             ids=["dense", "sparse", "csr"])
    def test_raw_matrix_equals_affinity_matrix(self, n, density, rng):
        k = random_affinity(rng, n, density)
        assert k.is_sparse == (density < 0.1)
        want = solve_pairwise(k)
        for raw in (k.dense(), sp.csr_matrix(k.dense())):
            assert solve_pairwise(raw) == want

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
