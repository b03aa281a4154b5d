"""The edge-kernel affinity set: candidate scores against explicit K.

Property coverage:
- _dense_stack equals the full broadcast of the edge kernel byte for byte,
  at n = 1-3, on padded sets and in both orientations
- kernel-block scores equal the quadratic form of get(i, j): bit for bit
  where K is dense whatever its fill (n <= 16), to 1e-12 above (CSR K),
  masked and unmasked, in both orientations, per pair and as one
  all-pair batch
- get(j, i) is the index-swapped get(i, j)
- chunked batches equal unchunked ones, and chunking bounds their memory
- any subset or reordering of the candidate rows scores bit for bit as
  those rows of the full call, with and without a keep mask
- kernel sums from each block's m + 1 slot values equal the kernel at all
  m^2 block entries bit for bit (gauss and len_angle, n = 1-16, all rows
  or a keep mask whose rows differ between graphs, scores and row sums)
- the set, its scores and a boosting sweep stay O(N n^2) in memory; a
  whole run at N = 60 stays under 4 MiB with its cross-sweep sum cache,
  and so does a second-order sweep at N = 30
- the constructor rejects a self-loop or an asymmetric mask edge, and a
  non-finite or asymmetric attribute on an edge, naming the first one
- _dense_stack, _kernel_sums and get with NaN off the edges equal, byte for
  byte, the kernel with +inf and -inf off the edges (gauss at edge
  density 0-1 and len_angle, dense and CSR pairs), and raise no
  floating-point flag
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgmboost.core as core
from mgmboost import (AffinitySet, BoostParams, GraphInstance, MatchConfig,
                      ScoreNormalizer, SynthParams, affinity_score, build_affinity_set,
                      gen_random_graphs, gen_random_points, run_boost, total_score)
from mgmboost.core import pair_scores

from conftest import (builder_affinity_sets, naive_quad_form, reference_dense_stack,
                      reference_kernel, reference_kernel_sums)


def _candidates(rng, n, count):
    return np.array([rng.permutation(n) for _ in range(count)])


def _pair_indices(rng, kset, size):
    """Graph indices i and j != i of ``size`` random ordered pairs."""
    i = rng.integers(0, kset.N, size=size)
    return i, (i + 1 + rng.integers(0, kset.N - 1, size=size)) % kset.N


def _random_keep(rng, kset, kept):
    """An (N, n) keep mask in which each graph keeps ``kept`` rows of its
    own, drawn at random."""
    return rng.permuted(np.broadcast_to(np.arange(kset.n) < kept, (kset.N, kset.n)), axis=1)


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
    if core.dense_by_fill(n, 0):
        assert np.array_equal(got, fast)
    else:
        np.testing.assert_allclose(got, fast, rtol=1e-12)
    np.testing.assert_allclose(got, naive, rtol=1e-12)


def test_dense_stack_equals_full_broadcast():
    # gauss at n = 1, 2 and 3 and len_angle at n = 3; the builders' gauss
    # and len_angle sets at n = 8-14; gauss on point sets of 5-8 nodes,
    # padded with isolated dummy nodes to 8
    sets = [build_affinity_set(gen_random_graphs(SynthParams(n_graphs=3, inliers=n,
                                                             deform=0.1, seed=n)), 0.05)
            for n in (1, 2, 3)]
    sets.append(build_affinity_set(gen_random_points(SynthParams(n_graphs=3, inliers=3,
                                                                 deform=0.1, seed=3)),
                                   0.05, "len_angle"))
    sets += builder_affinity_sets(0)
    unequal = [gen_random_points(SynthParams(n_graphs=2, inliers=5, outliers=k, deform=0.05,
                                             seed=4))[0] for k in (3, 0, 2, 1)]
    sets.append(build_affinity_set([GraphInstance(g.adjacency, g.inlier_count, g.truth)
                                    for g in unequal], 0.05))
    assert [kset.n for kset in sets] == [1, 2, 3, 3, 8, 10, 14, 17, 8]
    for kset in sets:
        iu, ju = np.triu_indices(kset.N, 1)
        for i, j in ((iu, ju), (ju, iu)):
            got, want = kset._dense_stack(i, j), reference_dense_stack(kset, i, j)
            assert got.shape == want.shape == (len(iu), kset.n ** 2, kset.n ** 2)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_scores_equal_explicit_quadratic_form(seed):
    # gauss on random graphs and len_angle on point sets with outliers, at
    # n <= 16 (dense K) and n = 17 (CSR K); i < j and i > j; with and
    # without a keep mask
    rng = np.random.default_rng(seed)
    for kset in builder_affinity_sets(seed):
        n = kset.n
        for i, j in [(0, 1), (2, 1), (3, 0), (1, 3)]:
            perms = _candidates(rng, n, 6)
            for keep in (None, _random_keep(rng, kset, rng.integers(1, n + 1))):
                got = kset._kernel_sums(np.full(6, i), np.full(6, j), perms, keep)
                fast, naive = _reference(kset, i, j, perms, None if keep is None else keep[i])
                _assert_scores(got, fast, naive, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_all_pair_batch_equals_single_pair_calls(seed):
    rng = np.random.default_rng(seed)
    for kset in builder_affinity_sets(seed):
        cfg = MatchConfig.random(kset.N, kset.n, rng)
        batch = pair_scores(cfg, kset)
        single = np.array([kset._kernel_sums(np.array([i]), np.array([j]), x.perm[None])[0]
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
        both = kset._kernel_sums(rows_i, rows_j, t[rows_i, rows_j])
        assert np.array_equal(both[:len(iu)], batch)
        swapped = np.array([affinity_score(t[j, i], kset.get(j, i)) for i, j in zip(iu, ju)])
        _assert_scores(both[len(iu):], swapped, swapped, kset.n)


@lru_cache(maxsize=None)
def _kernel_set(kind, n, density=0.7):
    """Four graphs on n nodes: gauss on random graphs at the edge
    density, or the two len_angle channels, on Delaunay point sets with
    outliers at n >= 3 and, below, where there is no triangulation, on
    random symmetric lengths and angles over every edge."""
    if kind == "gauss":
        return build_affinity_set(gen_random_graphs(SynthParams(
            n_graphs=4, inliers=n, deform=0.1, density=density, seed=n)), 0.05)
    if n >= 3:
        return build_affinity_set(gen_random_points(SynthParams(
            n_graphs=4, inliers=n - n // 3, outliers=n // 3, deform=0.05, seed=n)),
            0.05, "len_angle")
    lengths, angles = np.random.default_rng(n).uniform(size=(2, 4, n, n))
    mask = np.broadcast_to(~np.eye(n, dtype=bool), (4, n, n))
    return AffinitySet(mask, [(0.9, lengths + lengths.transpose(0, 2, 1), 0.05),
                              (0.1, angles + angles.transpose(0, 2, 1), 0.05)])


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["gauss", "len_angle"]), n=st.sampled_from([1, 2, 3, 8, 14, 16]),
       masked=st.booleans(), axis=st.sampled_from([(1, 2), 2]), size=st.integers(1, 20),
       data=st.data())
def test_kernel_sums_equal_full_block_reference(kind, n, masked, axis, size, data):
    # the kernel at each candidate's m + 1 slots, expanded through the slot
    # map, sums bit for bit as the kernel at all m^2 entries of its block
    kset = _kernel_set(kind, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    i, j = _pair_indices(rng, kset, size)
    perms = rng.permuted(np.broadcast_to(np.arange(n), (size, n)), axis=1)
    kept = data.draw(st.one_of(st.just(1), st.integers(1, n))) if masked else n
    keep = _random_keep(rng, kset, kept) if masked else None
    got = kset._kernel_sums(i, j, perms, keep, axis)
    want = reference_kernel_sums(kset, i, j, perms, keep, axis)
    assert got.shape == want.shape == ((size,) if axis == (1, 2) else (size, kept))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind, density", [("gauss", 0.0), ("gauss", 0.5), ("gauss", 0.9),
                                           ("gauss", 1.0), ("len_angle", None)])
@pytest.mark.parametrize("n", [8, 14, 17])
def test_nan_off_the_edges_equals_infinite_sentinels(kind, density, n):
    # exp(NaN) turned into +0.0 by fmax gives the bytes of exp(-inf), with
    # no floating-point flag raised (inf - inf would raise "invalid")
    kset = _kernel_set(kind, n, density)
    rng = np.random.default_rng(n)
    iu, ju = np.triu_indices(kset.N, 1)
    i, j = np.concatenate([iu, ju]), np.concatenate([ju, iu])
    # five candidates per ordered pair, one per row
    fi, fj = np.repeat(i, 5), np.repeat(j, 5)
    perms = rng.permuted(np.broadcast_to(np.arange(n), (len(fi), n)), axis=1)
    keep = _random_keep(rng, kset, n - 3)
    want = reference_dense_stack(kset, i, j, reference_kernel)
    with np.errstate(all="raise"):
        assert kset._dense_stack(i, j).tobytes() == want.tobytes()
        csr = 0
        for b, (g, h) in enumerate(zip(i.tolist(), j.tolist())):
            k = kset.get(g, h)
            csr += k.is_sparse
            assert k.dense().tobytes() == want[b].tobytes()
        for k in (None, keep):
            for axis in ((1, 2), 2):
                got = kset._kernel_sums(fi, fj, perms, k, axis)
                assert got.tobytes() == reference_kernel_sums(kset, fi, fj, perms, k, axis,
                                                              reference_kernel).tobytes()
    # the CSR branch of get is taken at n = 17 below 1/3 fill
    assert (csr > 0) == (n == 17 and density in (None, 0.0, 0.5))


def test_swapped_orientation_is_index_swap():
    for kset in builder_affinity_sets(3):
        n = kset.n
        x = np.arange(n * n)
        sigma = (x % n) * n + x // n
        for i, j in [(0, 1), (1, 3)]:
            k_ij, k_ji = kset.get(i, j).dense(), kset.get(j, i).dense()
            assert np.array_equal(k_ij[np.ix_(sigma, sigma)], k_ji)
            assert np.array_equal(k_ij, k_ij.T)
            stored = np.count_nonzero(k_ij)
            assert kset.get(i, j).is_sparse == (not core.dense_by_fill(n, stored))


def test_chunked_batch_equals_one_chunk(monkeypatch):
    # 120 candidates of random pairs, each graph keeping rows of its own
    rng = np.random.default_rng(5)
    kset = builder_affinity_sets(5)[1]       # len_angle, two channels, n = 10
    perms = _candidates(rng, kset.n, 120)
    i, j = _pair_indices(rng, kset, 120)
    keep = _random_keep(rng, kset, 4)
    whole = kset._kernel_sums(i, j, perms, keep)
    for s in range(120):
        fast, _ = _reference(kset, i[s], j[s], perms[s:s + 1], keep[i[s]])
        assert np.array_equal(whole[s:s + 1], fast)
    monkeypatch.setattr(core, "BLOCK_CHUNK_ENTRIES", 6 * 4 ** 2)   # 20 chunks
    assert np.array_equal(kset._kernel_sums(i, j, perms, keep), whole)


@pytest.mark.parametrize("seed", [0, 1])
def test_row_subsets_score_bit_for_bit(seed):
    # gauss at n = 8 and 14 and len_angle at n = 10 and 17; a sweep
    # scores only its stale candidates and caches their sums next to
    # those of earlier calls, and takes its winners' sums from the batch
    rng = np.random.default_rng(seed)
    for kset in builder_affinity_sets(seed):
        n, size = kset.n, 30
        i, j = _pair_indices(rng, kset, size)
        perms = _candidates(rng, n, size)
        keep = _random_keep(rng, kset, n - 3)
        for pick in (rng.permutation(size), np.sort(rng.choice(size, 7, replace=False)),
                     rng.choice(size, 12), np.array([size - 1])):
            for k in (None, keep):
                for axis in ((1, 2), 2):
                    whole = kset._kernel_sums(i, j, perms, k, axis)
                    part = kset._kernel_sums(i[pick], j[pick], perms[pick], k, axis)
                    assert part.tobytes() == whole[pick].tobytes()


def test_kernel_sums_memory_stays_chunked():
    # 1,200 candidates at n = 20: all blocks at once hold 480,000 entries,
    # 3.7 MiB per temporary (8.9 MiB peak); a chunk holds 81 blocks, 32,400
    rng = np.random.default_rng(6)
    kset = build_affinity_set(gen_random_graphs(SynthParams(n_graphs=4, inliers=20,
                                                            deform=0.1, density=0.9,
                                                            seed=6)), 0.05)
    perms = _candidates(rng, kset.n, 1200)
    i, j = _pair_indices(rng, kset, 1200)
    tracemalloc.start()
    try:
        kset._kernel_sums(i, j, perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


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


def test_run_memory_at_sixty_graphs():
    # one isb_gc run at N=60, n=10: the cross-sweep sum cache holds
    # P N 9 bytes = 0.9 MiB; the run peaks at about 3.8 MiB (an (N, N, N)
    # float64 cache would add 1.7 MiB of its own)
    instances = gen_random_graphs(SynthParams(n_graphs=60, inliers=10, deform=0.1,
                                              density=0.9, seed=0))
    kset = build_affinity_set(instances, 0.05)
    cfg0 = MatchConfig.random(60, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        run_boost(cfg0, kset, BoostParams(mode="isb_gc", t_max=2,
                                          enforce_final_consistency=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_second_order_sweep_memory_at_thirty_graphs():
    # one isb_2nd sweep at N=30, n=10: a group of 3 pairs holds their
    # (3, 786, 10) candidates; the sweep peaks at about 1.9 MiB (groups of
    # 14 pairs take 5.4 MiB, first-order groups of 109 pairs 35 MiB)
    instances = gen_random_graphs(SynthParams(n_graphs=30, inliers=10, deform=0.1,
                                              density=0.9, seed=0))
    kset = build_affinity_set(instances, 0.05)
    cfg0 = MatchConfig.random(30, 10, np.random.default_rng(0))
    tracemalloc.start()
    try:
        run_boost(cfg0, kset, BoostParams(mode="isb_2nd", t_max=1,
                                          enforce_final_consistency=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _valid_set_arrays():
    """Edge mask and two attribute channels of 3 graphs on 4 nodes, every
    graph the path 0-1-2-3 with symmetric attributes."""
    mask = np.zeros((3, 4, 4), dtype=bool)
    u, v = np.arange(3), np.arange(1, 4)
    mask[:, u, v] = mask[:, v, u] = True
    attr = np.zeros((3, 4, 4))
    attr[:, u, v] = attr[:, v, u] = [0.5, 0.25, 0.75]
    return mask, attr, attr + 1.0


@pytest.mark.parametrize("fault, message", [
    ("self_loop", "edge mask has a self-loop at (graph, u, v) = (1, 2, 2)"),
    ("mask_asym", "edge mask is not symmetric at (graph, u, v) = (1, 0, 2)"),
    ("nan", "edge attribute 1 is not finite at (graph, u, v) = (1, 1, 2): nan, mirror 1.25"),
    ("inf", "edge attribute 0 is not finite at (graph, u, v) = (2, 1, 0): inf, mirror 0.5"),
    ("attr_asym", "edge attribute 1 is not symmetric at (graph, u, v) = (0, 2, 3): "
                  "1.75, mirror 1.5")],
    ids=["self_loop", "mask_asym", "nan", "inf", "attr_asym"])
def test_constructor_rejects_first_bad_entry(fault, message):
    mask, first, second = _valid_set_arrays()
    AffinitySet(mask, [(0.9, first, 0.1), (0.1, second, 0.1)])
    if fault == "self_loop":
        mask[1, 2, 2] = mask[2, 3, 3] = True
    elif fault == "mask_asym":
        mask[1, 0, 2] = True
    elif fault == "nan":
        second[1, 1, 2] = np.nan
    elif fault == "inf":
        first[2, 1, 0] = np.inf
    else:
        second[0, 3, 2] = 1.5
    with pytest.raises(ValueError) as exc:
        AffinitySet(mask, [(0.9, first, 0.1), (0.1, second, 0.1)])
    assert str(exc.value) == message


@pytest.mark.parametrize("channel, message", [
    ((-1.0, 0.1), "channel 1 weight must be finite and >= 0, got -1.0"),
    ((np.nan, 0.1), "channel 1 weight must be finite and >= 0, got nan"),
    ((0.1, 0.0), "channel 1 bandwidth must be finite and > 0, got 0.0"),
    ((0.1, -0.01), "channel 1 bandwidth must be finite and > 0, got -0.01")],
    ids=["negative_weight", "nan_weight", "zero_bandwidth", "negative_bandwidth"])
def test_constructor_rejects_bad_channel(channel, message):
    # each would build a K with negative, all-zero or non-finite entries
    mask, first, second = _valid_set_arrays()
    weight, sigma2 = channel
    with pytest.raises(ValueError) as exc:
        AffinitySet(mask, [(0.9, first, 0.1), (weight, second, sigma2)])
    assert str(exc.value) == message


def test_constructor_rejects_channel_not_a_triple():
    # (weight, attribute) failed with "not enough values to unpack"
    mask, first, _ = _valid_set_arrays()
    for channels, got in (([(1.0, first)], "2 values"), ([1.0], "float")):
        with pytest.raises(ValueError) as exc:
            AffinitySet(mask, channels)
        assert str(exc.value) == f"channel 0 must be (weight, attribute, bandwidth), got {got}"


def test_constructor_rejects_no_channels():
    mask, _, _ = _valid_set_arrays()
    with pytest.raises(ValueError, match="need at least one kernel channel"):
        AffinitySet(mask, [])


@pytest.mark.parametrize("weights", [[0.0], [0.0, 0.0]])
def test_constructor_rejects_all_zero_weights(weights):
    # every K would be all zero: init_config would solve every pair on it
    # and only run_boost would fail, on the score normalizer
    mask, first, second = _valid_set_arrays()
    channels = list(zip(weights, [first, second], [0.1, 0.1]))
    with pytest.raises(ValueError) as exc:
        AffinitySet(mask, channels)
    assert str(exc.value) == f"channel weights {weights} are all 0, so every affinity would be 0"
    channels[0] = (0.5, first, 0.1)     # one weighted channel is enough
    assert AffinitySet(mask, channels).get(0, 1).dense().any()


def test_constructor_ignores_attributes_off_the_edges():
    mask, first, second = _valid_set_arrays()
    first[0, 0, 2] = np.nan
    first[1, 0, 3] = 4.0
    kset = AffinitySet(mask, [(0.9, first, 0.1), (0.1, second, 0.1)])
    assert np.isfinite(kset.get(0, 1).dense()).all()


@pytest.mark.parametrize("kept", [None, 2], ids=["all_rows", "kept_rows"])
@pytest.mark.parametrize("axis", [(1, 2), 2])
def test_kernel_sums_of_no_pairs_is_empty(kept, axis):
    # an empty batch once failed in np.concatenate
    kset = _kernel_set("gauss", 8)
    empty = np.zeros(0, dtype=np.int64)
    keep = None if kept is None else _random_keep(np.random.default_rng(0), kset, kept)
    got = kset._kernel_sums(empty, empty, np.zeros((0, kset.n), dtype=np.int64), keep, axis)
    assert got.dtype == np.float64
    assert got.shape == ((0,) if axis == (1, 2) else (0, kept or kset.n))


@pytest.mark.parametrize("graph", [0.5, 1.0, True, np.bool_(True)])
def test_get_rejects_graph_index_not_an_integer(graph):
    # 0.5 once passed the range check and failed indexing a Python list
    kset = _kernel_set("gauss", 8)
    for i, j in ((graph, 2), (2, graph)):
        with pytest.raises(ValueError, match=f"graph index {graph!r} is not an integer"):
            kset.get(i, j)
    assert kset.get(np.int64(1), 2).n == kset.get(1, 2).n
