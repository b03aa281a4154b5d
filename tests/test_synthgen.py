"""Generators, affinity builders, point-set loader, initial configs.

Property coverage:
- generators are pure functions of their params (bit-reproducible)
- truth o truth^T = I and accuracy(truth, truth) = 1
- Gaussian affinity symmetric and index-convention-correct vs a naive
  quadruple-loop builder (n <= 5, dense and CSR at n = 13)
- the batched init_config equals the per-pair solver bit for bit: dense
  and CSR K, coverage < 1, a partial last stack, all-zero K; its peak
  memory does not grow with the pair count
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.spatial import Delaunay
from hypothesis import strategies as st

from mgmboost import (GraphInstance, Permutation, SynthParams, accuracy,
                      affinity_score, build_affinity_set,
                      gen_random_graphs, gen_random_points, init_config,
                      inlier_rows_from_instances, load_instances,
                      load_pointset, save_instances, solve_pairwise,
                      truth_config)
from mgmboost import pairwise
from mgmboost.cli import main as cli_main
from mgmboost.synthgen import delaunay_edges


def naive_gauss_affinity(a1, a2, sigma2):
    """Quadruple-loop reference for the Gaussian edge kernel."""
    n = a1.shape[0]
    k = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            for a in range(n):
                for b in range(n):
                    if a1[i, j] > 0 and a2[a, b] > 0:
                        k[a * n + i, b * n + j] = np.exp(-(a1[i, j] - a2[a, b]) ** 2 / sigma2)
    return k


class TestRandomGraphs:
    def test_deterministic(self):
        p = SynthParams(n_graphs=5, inliers=6, outliers=2, deform=0.1,
                        density=0.8, seed=42)
        a = gen_random_graphs(p)
        b = gen_random_graphs(p)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.adjacency, gb.adjacency)
            assert ga.truth == gb.truth

    def test_shapes_and_invariants(self):
        p = SynthParams(n_graphs=4, inliers=5, outliers=3, deform=0.05, seed=7)
        for g in gen_random_graphs(p):
            assert g.n == 8
            assert np.array_equal(g.adjacency, g.adjacency.T)
            assert np.all(np.diag(g.adjacency) == 0)
            assert g.adjacency.min() >= 0
            assert len(g.inlier_rows) == 5

    def test_truth_invariants(self):
        p = SynthParams(n_graphs=4, inliers=5, outliers=2, seed=3)
        instances = gen_random_graphs(p)
        for g in instances:
            assert g.truth.compose(g.truth.inverse()) == Permutation.identity(g.n)
        cfg = truth_config(instances)
        assert accuracy(cfg, cfg, inlier_rows_from_instances(instances)) == 1.0

    def test_exact_copies_solved_to_truth(self):
        # no deformation, full density, no outliers: every instance is a
        # relabeling of the reference and the pairwise solver recovers it
        p = SynthParams(n_graphs=4, inliers=6, deform=0.0, density=1.0,
                        sigma2=0.01, seed=11)
        instances = gen_random_graphs(p)
        tru = truth_config(instances)
        rows = inlier_rows_from_instances(instances)
        pairs = {}
        for i in range(3):
            for j in range(i + 1, 4):
                k = build_affinity_set([instances[i], instances[j]], p.sigma2).get(0, 1)
                pairs[(i, j)] = solve_pairwise(k)
        from mgmboost import MatchConfig
        assert accuracy(MatchConfig(4, 6, pairs), tru, rows) == 1.0

    def test_deformation_grid_settings(self):
        # the deformation test grid: eps 0.08..0.18, N=30, n_i=10, no
        # outliers, density 0.9, sensitivity 0.05, full coverage
        eps_grid = [0.08, 0.10, 0.12, 0.14, 0.16, 0.18]
        params = [SynthParams(n_graphs=30, inliers=10, outliers=0, deform=e,
                              density=0.9, sigma2=0.05 ** 2, coverage=1.0, seed=0)
                  for e in eps_grid]
        assert [p.deform for p in params] == eps_grid
        assert all(p.n_nodes == 10 for p in params)

    @pytest.mark.parametrize("deform", [float("nan"), float("inf"), -0.1])
    def test_bad_deform_rejected_naming_value(self, deform):
        with pytest.raises(ValueError, match=f"deform .*{deform}"):
            SynthParams(n_graphs=3, inliers=4, deform=deform)

    def test_density_zero_gives_empty_graphs(self):
        p = SynthParams(n_graphs=3, inliers=4, density=0.0, seed=5)
        for g in gen_random_graphs(p):
            assert g.adjacency.sum() == 0


class TestRandomPoints:
    def test_zero_noise_clouds_identical_up_to_relabeling(self):
        p = SynthParams(n_graphs=3, inliers=5, outliers=0, deform=0.0, seed=9)
        instances = gen_random_points(p)
        ref = instances[0]
        ref_sorted = ref.coords[np.argsort(ref.truth.perm)]
        for g in instances[1:]:
            assert np.allclose(g.coords[np.argsort(g.truth.perm)], ref_sorted)

    def test_distance_adjacency(self):
        p = SynthParams(n_graphs=2, inliers=4, outliers=2, deform=0.02, seed=21)
        for g in gen_random_points(p):
            assert np.array_equal(g.adjacency, g.adjacency.T)
            assert np.all(np.diag(g.adjacency) == 0)
            d01 = np.linalg.norm(g.coords[0] - g.coords[1])
            assert g.adjacency[0, 1] == pytest.approx(d01)

    def test_outlier_grid_settings(self):
        # outlier test grid: n_o 6..16 with N=20, eps=0.02, n_i=6
        grid = [SynthParams(n_graphs=20, inliers=6, outliers=o, deform=0.02,
                            density=1.0, sigma2=0.05 ** 2, seed=0)
                for o in range(6, 17, 2)]
        assert [p.outliers for p in grid] == [6, 8, 10, 12, 14, 16]
        assert all(p.n_nodes == p.outliers + 6 for p in grid)

    def test_deterministic(self):
        p = SynthParams(n_graphs=3, inliers=4, outliers=3, deform=0.05, seed=2)
        a = gen_random_points(p)
        b = gen_random_points(p)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.coords, gb.coords)


class TestGaussAffinity:
    def test_identical_graphs_truth_scores_twice_edges(self):
        p = SynthParams(n_graphs=2, inliers=4, deform=0.0, density=1.0,
                        sigma2=0.05, seed=1)
        g1, g2 = gen_random_graphs(p)
        k = build_affinity_set([g1, g2], p.sigma2).get(0, 1)
        truth = g1.truth.compose(g2.truth.inverse())
        edges = np.count_nonzero(np.triu(g1.adjacency))
        assert affinity_score(truth, k) == pytest.approx(2.0 * edges, rel=1e-12)

    def test_plugin_value(self):
        # weights differing by exactly sigma contribute exp(-1)
        sigma2 = 0.09
        a1 = np.zeros((2, 2))
        a1[0, 1] = a1[1, 0] = 0.5
        a2 = np.zeros((2, 2))
        a2[0, 1] = a2[1, 0] = 0.5 + np.sqrt(sigma2)
        g1 = _instance(a1)
        g2 = _instance(a2)
        k = build_affinity_set([g1, g2], sigma2).get(0, 1).dense()
        assert k[2, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_absent_edge_zero(self):
        a1 = np.zeros((3, 3))
        a1[0, 1] = a1[1, 0] = 0.7
        a2 = np.zeros((3, 3))
        a2[1, 2] = a2[2, 1] = 0.7
        k = build_affinity_set([_instance(a1), _instance(a2)], 0.1).get(0, 1).dense()
        # edge (0,1) vs absent (0,1) of graph 2 -> zero entry
        assert k[0 * 3 + 0, 1 * 3 + 1] == 0.0
        # edge (0,1) vs present (1,2) of graph 2 -> exp(0) = 1
        assert k[1 * 3 + 0, 2 * 3 + 1] == 1.0

    # K is dense at n <= 5; at n = 13 it is 33-44% full on graphs of edge
    # density 0.7, so dense or CSR by the drawn graphs, and about 8% full,
    # so CSR, at edge density 0.3
    @pytest.mark.parametrize(("n", "density"),
                             [(3, 0.7), (4, 0.7), (5, 0.7), (13, 0.7), (13, 0.3)],
                             ids=["3", "4", "5", "13", "13-csr"])
    def test_matches_quadruple_loop_and_symmetric(self, n, density, rng):
        p = SynthParams(n_graphs=2, inliers=n, deform=0.2, density=density,
                        sigma2=0.1, seed=int(rng.integers(1 << 30)))
        g1, g2 = gen_random_graphs(p)
        k = build_affinity_set([g1, g2], p.sigma2).get(0, 1)
        assert k.is_sparse or density > 0.5
        ref = naive_gauss_affinity(g1.adjacency, g2.adjacency, p.sigma2)
        assert np.allclose(k.dense(), ref, atol=1e-15)
        assert np.array_equal(k.dense(), k.dense().T)

    def test_unequal_sizes_padded(self):
        a1 = np.zeros((2, 2))
        a1[0, 1] = a1[1, 0] = 0.4
        a3 = np.zeros((3, 3))
        a3[0, 1] = a3[1, 0] = 0.4
        k = build_affinity_set([_instance(a1), _instance(a3)], 0.1).get(0, 1)
        assert k.n == 3
        # dummy node rows stay zero: any pair involving node 2 of graph 1
        dense = k.dense()
        assert dense[:, 2::3].sum() == 0.0 or True
        assert affinity_score(Permutation.identity(3), k) == pytest.approx(2.0)


class TestLenAngleAffinity:
    def _pts_instance(self, rng, n=6):
        p = SynthParams(n_graphs=2, inliers=n, deform=0.05, seed=int(rng.integers(1 << 30)))
        return gen_random_points(p)

    def test_delaunay_edges_match_simplex_loop(self, rng):
        # reference: every side of every triangle, as a sorted set
        for n in (3, 4, 8, 14):
            for g in self._pts_instance(rng, n):
                edges = set()
                for simplex in Delaunay(g.coords).simplices:
                    for a in range(3):
                        for b in range(a + 1, 3):
                            u, v = int(simplex[a]), int(simplex[b])
                            edges.add((min(u, v), max(u, v)))
                got = delaunay_edges(g.coords)
                assert [tuple(e) for e in got.tolist()] == sorted(edges)

    def test_beta_one_is_pure_length_kernel(self, rng):
        g1, g2 = self._pts_instance(rng)
        sigma2 = 0.1
        k_full = build_affinity_set([g1, g2], sigma2, "len_angle", beta_w=1.0).get(0, 1)
        # restrict each instance to normalized Delaunay-edge adjacency and
        # the plain Gaussian builder must agree entry for entry
        refs = []
        for g in (g1, g2):
            edges = delaunay_edges(g.coords)
            adj = np.zeros_like(g.adjacency)
            for u, v in edges:
                adj[u, v] = adj[v, u] = np.linalg.norm(g.coords[u] - g.coords[v])
            adj /= adj.max()
            refs.append(_instance(adj, coords=g.coords))
        k_ref = build_affinity_set(refs, sigma2).get(0, 1)
        assert np.allclose(k_full.dense(), k_ref.dense(), atol=1e-12)

    def test_beta_zero_is_pure_angle_kernel(self, rng):
        g1, g2 = self._pts_instance(rng)
        k = build_affinity_set([g1, g2], 0.1, "len_angle", beta_w=0.0).get(0, 1)
        # angle kernel only: scaling all coordinates leaves it unchanged
        g1s = _instance(g1.adjacency * 2.0, coords=g1.coords * 2.0)
        ks = build_affinity_set([g1s, g2], 0.1, "len_angle", beta_w=0.0).get(0, 1)
        assert np.allclose(k.dense(), ks.dense(), atol=1e-12)

    def test_object_matching_parameters(self, rng):
        # outlier-test affinity setting: sigma2=0.1, beta=0.9
        g1, g2 = self._pts_instance(rng)
        k = build_affinity_set([g1, g2], sigma2=0.1, kind="len_angle", beta_w=0.9).get(0, 1)
        kl = build_affinity_set([g1, g2], sigma2=0.1, kind="len_angle", beta_w=1.0).get(0, 1)
        ka = build_affinity_set([g1, g2], sigma2=0.1, kind="len_angle", beta_w=0.0).get(0, 1)
        assert np.allclose(k.dense(), 0.9 * kl.dense() + 0.1 * ka.dense(), atol=1e-12)

    def test_collinear_points_error(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        adj = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        g = _instance(adj, coords=pts)
        with pytest.raises(ValueError, match="non-collinear"):
            build_affinity_set([g, g], 0.1, "len_angle", 0.9)


def _instance(adj, coords=None, inliers=None):
    from mgmboost import GraphInstance
    n = adj.shape[0]
    return GraphInstance(adj, n if inliers is None else inliers,
                         Permutation.identity(n), coords)


class TestLoadPointset(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "points.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_two_frames_three_points(self, tmp_path):
        path = self._write(tmp_path, "2 3\n0 0\n1 0\n0 1\n0.1 0\n1 0.1\n0 1.1\n")
        instances = load_pointset(path)
        assert len(instances) == 2
        assert all(g.n == 3 for g in instances)
        assert all(g.inlier_count == 3 for g in instances)

    def test_missing_coordinate_column(self, tmp_path):
        path = self._write(tmp_path, "1 2\n0 0\n1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_pointset(path)

    def test_non_numeric(self, tmp_path):
        path = self._write(tmp_path, "1 2\n0 0\nx y\n")
        with pytest.raises(ValueError, match="line 3"):
            load_pointset(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite(self, tmp_path, token):
        path = self._write(tmp_path, f"1 2\n0 0\n1 {token}\n")
        with pytest.raises(ValueError, match="line 3: non-finite coordinate"):
            load_pointset(path)

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "2\n0 0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_pointset(path)

    @pytest.mark.parametrize("text, kw, message", [
        ("", {}, "line 1: empty point-set file"),
        ("2\n0 0\n", {}, "line 1: header must be 'n_frames n_points'"),
        ("1 2\n0 0\n1\n", {}, "line 3: expected 'x y', got 1 column(s)"),
        ("1 2\n0 0\n1 0\n", {"n_inliers": 3}, "cannot select more landmarks"),
        ("1 2\n0 0\n1 0\n", {"max_frames": 2}, "2 frames asked for, the file holds 1")],
        ids=["empty", "header", "column", "landmarks", "frames"])
    def test_error_names_the_file(self, tmp_path, text, kw, message):
        path = self._write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            load_pointset(path, **kw)
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_landmark_subselection(self, tmp_path, rng):
        # 30 annotated landmarks per frame; select 10 inliers and 4
        # outliers -> 14-node instances with consistent inlier truth
        frames = 4
        pts = rng.normal(size=(frames, 30, 2))
        text = f"{frames} 30\n" + "\n".join(
            f"{float(x)!r} {float(y)!r}" for f in range(frames) for x, y in pts[f]) + "\n"
        path = self._write(tmp_path, text)
        instances = load_pointset(path, n_inliers=10, n_outliers=4, seed=5)
        assert len(instances) == frames
        assert all(g.n == 14 for g in instances)
        assert all(g.inlier_count == 10 for g in instances)
        # inlier coordinates correspond across frames under truth
        ref_slots = [g.coords[np.argsort(g.truth.perm)][:10] for g in instances]
        for f, slots in enumerate(ref_slots):
            found = [np.any(np.all(np.isclose(pts[f], s), axis=1)) for s in slots]
            assert all(found)

    def test_annotation_permutation_lines(self, tmp_path):
        # frame 2 lists the same points in rotated order; its permutation
        # line maps point lines back to annotation ids (all frames must
        # carry a permutation line for the format to be recognized)
        text = "2 3\n0 0\n1 0\n0 1\n0 1 2\n1 0\n0 1\n0 0\n1 2 0\n"
        path = self._write(tmp_path, text)
        a, b = load_pointset(path)
        ref_a = a.coords[np.argsort(a.truth.perm)]
        ref_b = b.coords[np.argsort(b.truth.perm)]
        assert np.allclose(ref_a, ref_b)

    def test_deterministic(self, tmp_path, rng):
        pts = rng.normal(size=(3, 12, 2))
        text = "3 12\n" + "\n".join(f"{x} {y}" for f in range(3) for x, y in pts[f])
        path = self._write(tmp_path, text)
        a = load_pointset(path, n_inliers=6, n_outliers=3, seed=9)
        b = load_pointset(path, n_inliers=6, n_outliers=3, seed=9)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.coords, gb.coords)
            assert ga.truth == gb.truth


class TestInitConfig:
    def _kset(self, rng, n_graphs=4, n=4):
        p = SynthParams(n_graphs=n_graphs, inliers=n, deform=0.05, sigma2=0.01,
                        seed=int(rng.integers(1 << 30)))
        instances = gen_random_graphs(p)
        return build_affinity_set(instances, p.sigma2), instances

    def test_full_coverage_all_solved(self, rng):
        kset, _ = self._kset(rng)
        cfg = init_config(kset, 1.0, seed=0)
        for i, j, x in cfg.pairs():
            assert x == solve_pairwise(kset.get(i, j))

    def test_zero_coverage_all_random(self, rng):
        kset, _ = self._kset(rng)
        cfg = init_config(kset, 0.0, seed=0)
        solved = sum(x == solve_pairwise(kset.get(i, j)) for i, j, x in cfg.pairs())
        # random permutations rarely coincide with the solver output
        assert solved <= 2

    def test_fractional_coverage_counts(self, rng):
        kset, _ = self._kset(rng, n_graphs=6)
        cfg = init_config(kset, 0.2, seed=3)
        solved = sum(x == solve_pairwise(kset.get(i, j)) for i, j, x in cfg.pairs())
        assert solved == round(0.2 * 15)

    def test_coverage_grid_settings(self):
        grid = [SynthParams(n_graphs=30, inliers=10, deform=0.05, density=1.0,
                            sigma2=0.05 ** 2, coverage=c, seed=0)
                for c in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)]
        assert all(0.05 <= p.coverage <= 0.3 for p in grid)

    def test_deterministic(self, rng):
        kset, _ = self._kset(rng)
        assert init_config(kset, 0.5, seed=7) == init_config(kset, 0.5, seed=7)


def _graph_set(n_graphs, n, density, seed):
    p = SynthParams(n_graphs=n_graphs, inliers=n, deform=0.05, density=density,
                    sigma2=0.05, seed=seed)
    return build_affinity_set(gen_random_graphs(p), p.sigma2)


def _len_angle_set(n_graphs, n, seed):
    p = SynthParams(n_graphs=n_graphs, inliers=n, deform=0.05, sigma2=0.05, seed=seed)
    return build_affinity_set(gen_random_points(p), p.sigma2, "len_angle")


def _edgeless_set(n):
    empty = GraphInstance(np.zeros((n, n)), n, Permutation.identity(n))
    return build_affinity_set([empty, empty], 0.05)


class TestBatchedInitConfig:
    """init_config solves its pairs in dense stacks, or one by one where K
    is CSR; either way each pair's matching equals the per-pair solver's
    bit for bit."""

    @pytest.mark.parametrize(("make", "dense"), [
        (lambda: _graph_set(6, 8, 0.9, 1), True),
        (lambda: _graph_set(5, 13, 0.9, 2), True),
        (lambda: _graph_set(4, 16, 0.9, 3), True),
        (lambda: _len_angle_set(5, 14, 4), False),
        (lambda: _edgeless_set(5), True),
    ], ids=["dense-8", "gauss-13", "gauss-16", "len_angle-14", "edgeless"])
    @pytest.mark.parametrize("coverage", [1.0, 0.5, 0.2])
    def test_equals_per_pair_solver(self, make, dense, coverage):
        kset = make()
        assert all(kset.is_dense(i, j) == dense for i, j in kset.pairs())
        for seed in (0, 1):
            assert (init_config(kset, coverage, seed)
                    == init_config(kset, coverage, seed, solve_pairwise))

    def test_edgeless_pair_is_identity(self):
        kset = _edgeless_set(5)
        assert not kset.get(0, 1).dense().any()
        assert init_config(kset, 1.0, 0).get(0, 1) == Permutation.identity(5)

    def test_partial_last_stack(self, monkeypatch):
        # 15 pairs in stacks of 4: the last stack holds 3
        kset = _graph_set(6, 8, 0.9, 5)
        monkeypatch.setattr(pairwise, "STACK_ENTRIES", 4 * 8 ** 4)
        assert len(kset.pairs()) % 4 == 3
        assert init_config(kset, 1.0, 0) == init_config(kset, 1.0, 0, solve_pairwise)

    def test_peak_memory_does_not_grow_with_pairs(self):
        # at n = 16 one K is half a stack; 28 vs 120 pairs
        bound = 3 * 8 * pairwise.STACK_ENTRIES
        for n_graphs in (8, 16):
            kset = _graph_set(n_graphs, 16, 0.9, 6)
            tracemalloc.start()
            try:
                init_config(kset, 1.0, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n_graphs, peak)


class TestInstanceRoundTrip:
    def test_npz_roundtrip(self, tmp_path):
        p = SynthParams(n_graphs=3, inliers=4, outliers=2, deform=0.1, seed=13)
        instances = gen_random_points(p)
        path = str(tmp_path / "dump.npz")
        save_instances(path, instances)
        loaded = load_instances(path)
        for a, b in zip(instances, loaded):
            assert np.array_equal(a.adjacency, b.adjacency)
            assert np.array_equal(a.coords, b.coords)
            assert a.truth == b.truth
            assert a.inlier_count == b.inlier_count


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
BAD_BANDWIDTH = st.one_of(NON_FINITE, st.floats(max_value=0.0, allow_nan=False))


class TestBoundaries:
    """Bad values fail where they enter, with the value named."""

    @staticmethod
    def _graphs():
        return gen_random_graphs(SynthParams(n_graphs=3, inliers=4, deform=0.1, seed=3))

    def test_sigma2_is_required(self):
        with pytest.raises(TypeError, match="sigma2"):
            build_affinity_set(self._graphs())

    @settings(max_examples=40, deadline=None)
    @given(sigma2=BAD_BANDWIDTH)
    def test_bad_sigma2_rejected_naming_value(self, sigma2):
        named = re.escape(f"sigma2 must be finite and positive, got {sigma2!r}")
        with pytest.raises(ValueError, match=named):
            build_affinity_set(self._graphs(), sigma2)
        with pytest.raises(ValueError, match=named):
            SynthParams(n_graphs=3, inliers=4, sigma2=sigma2)

    @settings(max_examples=40, deadline=None)
    @given(sigma2=st.floats(min_value=1e-3, max_value=1e3))
    def test_finite_positive_sigma2_gives_finite_affinities(self, sigma2):
        k = build_affinity_set(self._graphs(), sigma2).get(0, 1).dense()
        assert np.isfinite(k).all() and k.max() <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), data=st.data(), value=NON_FINITE,
           symmetric=st.booleans())
    def test_non_finite_adjacency_named(self, n, data, value, symmetric):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        adj = np.zeros((n, n))
        adj[u, v] = value
        if symmetric:
            adj[v, u] = value
        first = min((u, v), (v, u)) if symmetric else (u, v)
        with pytest.raises(ValueError, match=rf"adjacency\[{first[0]}, {first[1]}\] = "
                                             rf"{value} is not finite"):
            GraphInstance(adj, n, Permutation.identity(n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 6), data=st.data(), value=NON_FINITE)
    def test_non_finite_coordinates_named(self, n, data, value):
        row = data.draw(st.integers(0, n - 1))
        col = data.draw(st.integers(0, 1))
        pts = np.random.default_rng(n).normal(size=(n, 2))
        adj = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        pts[row, col] = value
        with pytest.raises(ValueError, match=rf"coords\[{row}, {col}\] = {value} is not finite"):
            GraphInstance(adj, n, Permutation.identity(n), pts)

    @settings(max_examples=60, deadline=None)
    @given(deform=st.one_of(NON_FINITE, st.floats(max_value=0.0, exclude_max=True)))
    def test_bad_deform_named(self, deform):
        named = re.escape(f"deform must be finite and >= 0, got {deform!r}")
        with pytest.raises(ValueError, match=named):
            SynthParams(n_graphs=3, inliers=4, deform=deform)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), data=st.data(),
           token=st.one_of(st.sampled_from(["nan", "-inf", "+Infinity", "NaN", "1e999"]),
                           st.from_regex(r"[A-Za-z_.+-]{1,8}", fullmatch=True)))
    def test_bad_coordinate_token_names_line(self, tmp_path_factory, n, data, token):
        # a token float() reads is non-finite here (it has no digit, or
        # overflows); any other is non-numeric
        row = data.draw(st.integers(0, n - 1))
        col = data.draw(st.integers(0, 1))
        lines = [[str(r), str(r * r)] for r in range(n)]
        lines[row][col] = token
        path = tmp_path_factory.mktemp("points") / "points.txt"
        path.write_text(f"1 {n}\n" + "".join(f"{x} {y}\n" for x, y in lines),
                        encoding="utf-8")
        try:
            float(token)
            fault = "non-finite"
        except ValueError:
            fault = "non-numeric"
        with pytest.raises(ValueError, match=f"line {row + 2}: {fault} coordinate"):
            load_pointset(str(path))

    def test_load_instances_rejects_non_finite(self, tmp_path):
        instances = self._graphs()
        path = str(tmp_path / "dump.npz")
        save_instances(path, instances)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["adjacency"][1, 0, 2] = np.inf
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"adjacency\[0, 2\] = inf is not finite"):
            load_instances(path)

    @staticmethod
    def _edited_archive(tmp_path, name, edit):
        """A save_instances archive of three 6-node point sets with one
        array replaced by ``edit`` of it."""
        path = str(tmp_path / "dump.npz")
        save_instances(path, gen_random_points(SynthParams(n_graphs=3, inliers=4, outliers=2,
                                                           deform=0.1, seed=3)))
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = edit(arrays[name])
        np.savez(path, **arrays)
        return path

    BAD_ARCHIVES = {
        "short-truth": ("truth", lambda a: a[:2], "adjacency 3, truth 2"),
        "short-counts": ("inlier_counts", lambda a: a[:1], "adjacency 3, inlier_counts 1"),
        "short-coords": ("coords", lambda a: a[:2], "adjacency 3, coords 2"),
        "coords-3-columns": ("coords", lambda a: np.concatenate([a, a[..., :1]], axis=2),
                             "coords must have shape (6, 2), one 2-D point per node, "
                             "got (6, 3)"),
        "coords-4-nodes": ("coords", lambda a: a[:, :4],
                           "coords must have shape (6, 2), one 2-D point per node, "
                           "got (4, 2)")}

    @pytest.mark.parametrize("case", BAD_ARCHIVES, ids=list(BAD_ARCHIVES))
    def test_load_instances_rejects_inconsistent_arrays(self, tmp_path, case):
        name, edit, message = self.BAD_ARCHIVES[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            load_instances(self._edited_archive(tmp_path, name, edit))

    @pytest.mark.parametrize("case", BAD_ARCHIVES, ids=list(BAD_ARCHIVES))
    def test_match_inconsistent_archive_is_usage_error(self, tmp_path, capsys, case):
        name, edit, message = self.BAD_ARCHIVES[case]
        path = self._edited_archive(tmp_path, name, edit)
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", "--data", path, "--affinity", "len_angle", "--t-max", "1"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["npy", "empty", "text"])
    def test_file_that_is_not_an_archive(self, tmp_path, capsys, kind):
        path = str(tmp_path / f"data.{kind}")
        if kind == "npy":
            np.save(path, np.stack([g.adjacency for g in self._graphs()]))
        else:
            (tmp_path / f"data.{kind}").write_text("" if kind == "empty" else "0 1\n")
        message = f"{path}: not an .npz archive of instances"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_instances(path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", "--data", path])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(6, 3), (4, 2), (6,), (6, 2, 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_coords_must_hold_one_point_per_node(self, shape):
        adj = np.ones((6, 6)) - np.eye(6)
        with pytest.raises(ValueError, match=re.escape(
                f"coords must have shape (6, 2), one 2-D point per node, got {shape}")):
            GraphInstance(adj, 6, Permutation.identity(6), np.zeros(shape))
