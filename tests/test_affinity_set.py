"""The edge-kernel affinity set: candidate scores against explicit K.

Property coverage:
- kernel-block scores equal the quadratic form of get(i, j): bit for bit
  where K is dense (n <= 12), to 1e-12 where it is CSR, masked and
  unmasked, in both orientations, per pair and as one all-pair batch
- get(j, i) is the index-swapped get(i, j)
- chunked batches equal unchunked ones, each chunk within its budget
- the set, its scores and a boosting sweep stay O(N n^2) in memory
"""

import tracemalloc

import numpy as np
import pytest

import mgmboost.core as core
from mgmboost import (BoostParams, MatchConfig, ScoreNormalizer, SynthParams,
                      affinity_score, build_affinity_set, gen_random_graphs,
                      run_boost, total_score)
from mgmboost.core import kernel_sums, pair_scores

from conftest import builder_affinity_sets, naive_quad_form


def _candidates(rng, n, count):
    return np.array([rng.permutation(n) for _ in range(count)])


def _reference(kset, i, j, perms, keep=None):
    """Scores from the explicit matrix: affinity_score and the dense vec
    form."""
    k = kset.get(i, j)
    fast = np.array([affinity_score(p, k, keep) for p in perms])
    naive = []
    for p in perms:
        x = np.zeros((kset.n, kset.n))
        x[np.arange(kset.n), p] = 1.0
        if keep is not None:
            x[~keep] = 0.0
        naive.append(naive_quad_form(x, k.dense()))
    return fast, np.array(naive)


def _assert_scores(got, fast, naive, n):
    if n <= core.DENSE_NODE_LIMIT:
        assert np.array_equal(got, fast)
    else:
        np.testing.assert_allclose(got, fast, rtol=1e-12)
    np.testing.assert_allclose(got, naive, rtol=1e-12)


@pytest.mark.parametrize("seed", [0, 1])
def test_scores_equal_explicit_quadratic_form(seed):
    # gauss on random graphs and len_angle on point sets with outliers, at
    # n <= 12 and n > 12; i < j and i > j; with and without a row mask
    rng = np.random.default_rng(seed)
    for kset in builder_affinity_sets(seed):
        n = kset.n
        for i, j in [(0, 1), (2, 1), (3, 0), (1, 3)]:
            perms = _candidates(rng, n, 6)
            keep = rng.uniform(size=n) < 0.6
            for rows in (None, np.flatnonzero(keep)):
                got = kernel_sums(kset, i, j, perms[None], rows)[0]
                fast, naive = _reference(kset, i, j, perms,
                                         None if rows is None else keep)
                _assert_scores(got, fast, naive, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_all_pair_batch_equals_single_pair_calls(seed):
    rng = np.random.default_rng(seed)
    for kset in builder_affinity_sets(seed):
        cfg = MatchConfig.random(kset.N, kset.n, rng)
        batch = pair_scores(cfg, kset)
        single = np.array([kernel_sums(kset, i, j, x.perm[None, None])[0, 0]
                           for i, j, x in cfg.pairs()])
        assert np.array_equal(batch, single)
        fast = np.array([affinity_score(x, kset.get(i, j)) for i, j, x in cfg.pairs()])
        _assert_scores(batch, fast, fast, kset.n)
        assert total_score(cfg, kset) == pytest.approx(fast.sum(), rel=1e-12)
        assert ScoreNormalizer.from_initial(cfg, kset).value == pytest.approx(fast.max(),
                                                                             rel=1e-12)
        # both orientations in one batch: graph i as the row graph of X_ij
        # and graph j as the row graph of X_ji
        t = cfg.perm_table()
        iu, ju = np.triu_indices(kset.N, 1)
        rows_i = np.concatenate([iu, ju])
        rows_j = np.concatenate([ju, iu])
        both = kernel_sums(kset, rows_i, rows_j, t[rows_i, rows_j][:, None])[:, 0]
        assert np.array_equal(both[:len(iu)], batch)
        swapped = np.array([affinity_score(t[j, i], kset.get(j, i)) for i, j in zip(iu, ju)])
        _assert_scores(both[len(iu):], swapped, swapped, kset.n)


def test_swapped_orientation_is_index_swap():
    for kset in builder_affinity_sets(3):
        n = kset.n
        x = np.arange(n * n)
        sigma = (x % n) * n + x // n
        for i, j in [(0, 1), (1, 3)]:
            k_ij, k_ji = kset.get(i, j).dense(), kset.get(j, i).dense()
            assert np.array_equal(k_ij[np.ix_(sigma, sigma)], k_ji)
            assert np.array_equal(k_ij, k_ij.T)
            assert kset.get(i, j).is_sparse == (n > core.DENSE_NODE_LIMIT)


def test_chunked_batch_equals_one_chunk(monkeypatch):
    # 40 pairs x 3 candidates, each pair with its own kept rows
    rng = np.random.default_rng(5)
    kset = builder_affinity_sets(5)[1]       # len_angle, two channels, n = 10
    perms = np.array([_candidates(rng, kset.n, 3) for _ in range(40)])
    i = rng.integers(0, kset.N, size=40)
    j = (i + 1 + rng.integers(0, kset.N - 1, size=40)) % kset.N
    rows = np.sort([rng.choice(kset.n, size=4, replace=False) for _ in range(40)], axis=1)
    whole = kernel_sums(kset, i, j, perms, rows)
    for p in range(40):
        keep = np.isin(np.arange(kset.n), rows[p])
        fast, _ = _reference(kset, i[p], j[p], perms[p], keep)
        assert np.array_equal(whole[p], fast)
    monkeypatch.setattr(core, "BLOCK_CHUNK_ENTRIES", 2 * 3 * 4 ** 2)
    blocks = list(kset.kernel_blocks(i, j, perms, rows))
    assert len(blocks) == 20
    assert all(b.shape == (2, 3, 4, 4) and b.flags.c_contiguous for b in blocks)
    assert np.array_equal(np.concatenate([b.sum(axis=(2, 3)) for b in blocks]), whole)


def test_memory_stays_linear_in_graphs():
    # N=12, n=20: an explicit affinity store would hold 66 matrices of
    # 400 x 400 (87 MiB dense); the edge-kernel set holds (12, 20, 20)
    instances = gen_random_graphs(SynthParams(n_graphs=12, inliers=20, deform=0.05,
                                              density=0.9, seed=0))
    cfg0 = MatchConfig.random(12, 20, np.random.default_rng(0))
    tracemalloc.start()
    try:
        kset = build_affinity_set(instances, 0.05)
        total_score(cfg0, kset)
        run_boost(cfg0, kset, BoostParams(mode="isb", t_max=1,
                                          enforce_final_consistency=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20

