"""Output stability: sha256 digests of the final int64 index tables of
small fixed-seed runs.

The digests pin the exact matchings, so any change to the numerics that
alters one result fails here, even where every property test still
holds. A change that alters an output on purpose updates the digest and
says why. The cases cover every post-processing route, second-order
search on dense affinities of high and low fill (the ``isb_2nd_csr``
cases keep the names of the CSR K their n = 13 pairs had under a fixed
n <= 12 dense bound) and with a subsampled anchor pool, consistency-only
boosting over several sweep groups, and boosting on point sets elicited
under both rankings. Further digests pin the generators' output over a
small parameter grid, ``len_angle`` point-set cases whose pairs are all
dense (n = 14) and all CSR (n = 17), and one case's trace lists.
"""

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from mgmboost import (BoostParams, InlierEstimate, SynthParams, build_affinity_set,
                      enforce_full_consistency, gen_random_graphs,
                      gen_random_points, init_config, is_fully_consistent,
                      overall_consistency, run_boost)

# name: (generator, instance params, boost params, post-processing route)
CASES = {
    "none": (gen_random_graphs,
             SynthParams(n_graphs=5, inliers=6, deform=0.0, sigma2=0.05, seed=1),
             BoostParams(mode="isb_gc", t_max=6), "none"),
    "affinity_mst": (gen_random_graphs,
                     SynthParams(n_graphs=6, inliers=6, deform=0.3, density=0.8,
                                 sigma2=0.05, seed=2),
                     BoostParams(mode="isb", t_max=2, gamma=0.95), "affinity_mst"),
    "consistency_mst": (gen_random_graphs,
                        SynthParams(n_graphs=5, inliers=8, deform=0.2, sigma2=0.05,
                                    seed=3),
                        BoostParams(mode="isb_gc_u", t_max=6, gamma=0.05),
                        "consistency_mst"),
    "spectral": (gen_random_graphs,
                 SynthParams(n_graphs=10, inliers=5, deform=0.15, sigma2=0.05, seed=4),
                 BoostParams(mode="isb_gc_p", t_max=6, gamma=0.05), "spectral"),
    "isb_2nd_csr": (gen_random_graphs,
                    SynthParams(n_graphs=4, inliers=13, deform=0.05, density=0.9,
                                sigma2=0.05, seed=5),
                    BoostParams(mode="isb_2nd", t_max=3), "consistency_mst"),
    "isb_2nd_csr_low_fill": (gen_random_graphs,
                             SynthParams(n_graphs=4, inliers=13, deform=0.05, density=0.4,
                                         sigma2=0.05, seed=5),
                             BoostParams(mode="isb_2nd", t_max=3), "consistency_mst"),
    "isb_2nd_dense": (gen_random_graphs,
                      SynthParams(n_graphs=8, inliers=16, deform=0.05, density=0.9,
                                  sigma2=0.05, seed=8),
                      BoostParams(mode="isb_2nd", t_max=6, sample_rate=0.6),
                      "consistency_mst"),
    "isb_cst": (gen_random_graphs,
                SynthParams(n_graphs=24, inliers=6, deform=0.15, density=0.9,
                            sigma2=0.05, seed=7),
                BoostParams(mode="isb_cst", t_max=4), "spectral"),
    "elicited_consistency_gc_inv": (gen_random_points,
                                    SynthParams(n_graphs=6, inliers=5, outliers=3,
                                                deform=0.05, sigma2=0.05, seed=9),
                                    BoostParams(mode="isb_gc_inv", t0=1, t_max=6,
                                                elicit=InlierEstimate(5, "consistency")),
                                    "consistency_mst"),
    "elicited_points": (gen_random_points,
                        SynthParams(n_graphs=6, inliers=5, outliers=3, deform=0.02,
                                    sigma2=0.05, seed=6),
                        BoostParams(mode="isb_gc", t_max=6,
                                    elicit=InlierEstimate(5, "affinity")),
                        "consistency_mst"),
}

GOLDEN = {
    "affinity_mst": "37864505ea78ac6dec56840b5777ff14dba6ce86ac0ee415ebf978b31f1f6a05",
    "consistency_mst": "ee545f760ebdafd5668c03c06d0adc3e657354bc53ce9b14f8c55378c1165ae7",
    "elicited_consistency_gc_inv":
        "2f42ed63d764f79d78f41ee9f0a8fe01cf791ccab54652be4d2a50da912117f5",
    "elicited_points": "303b84332cb53fc894ba95458570b82d26725d6823b259c874b4110fd10a7350",
    "isb_cst": "0f0198963e6184aad86fcd19921e66ea52ea9ba4a86a123fbcbb7d3b571c0366",
    "isb_2nd_csr": "a9106b488550f8faf6de1e2f514e4f618b44c769fa1490f8d22cc66fcbab7957",
    "isb_2nd_csr_low_fill": "5da4cc377da709dbd3b08180f88b5cd7ffc761535e4d7eded091d8a2f3c3338b",
    "isb_2nd_dense": "b225ed03f0c9ea3afae98172d2fe0fb7114d556bf5b987ede4205b170605cba4",
    "none": "dd75f15b2b80ebec9bf099b0adb55815b4fc8a77a4d91bb23b737bef016dbd5c",
    "spectral": "da3808d641b8a39cac8c24c5c5cd11be1e13fdad8b3816d423fabb9321ba2706",
}


def route(cfg, gamma):
    """The branch enforce_full_consistency takes for cfg."""
    if is_fully_consistent(cfg):
        return "none"
    if overall_consistency(cfg) < gamma:
        return "affinity_mst"
    return "consistency_mst" if cfg.n >= cfg.N else "spectral"


def run_case(name):
    """(route taken, sha256 of the final table) of one case."""
    generate, synth, params, _ = CASES[name]
    instances = generate(synth)
    kset = build_affinity_set(instances, synth.sigma2)
    cfg0 = init_config(kset, synth.coverage, synth.seed)
    boosted, _ = run_boost(cfg0, kset, replace(params, enforce_final_consistency=False))
    final = enforce_full_consistency(boosted, kset, params.gamma)
    table = np.ascontiguousarray(final.perm_table(), dtype="<i8")
    return route(boosted, params.gamma), hashlib.sha256(table.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_final_table_digest(name):
    taken, digest = run_case(name)
    assert taken == CASES[name][3]
    assert digest == GOLDEN[name]


# the random streams of both generators over deform 0, density 0 and 1,
# one inlier and no outliers: (generator, n_graphs, inliers, outliers,
# deform, density, seed)
GENERATOR_GRID = list(itertools.product(
    (gen_random_graphs, gen_random_points), (2, 5), (1, 4), (0, 3), (0.0, 0.1),
    (0.0, 0.5, 1.0), (0, 1)))
GENERATOR_GOLDEN = "252742e50db0755e7bb64f21714b479a58023fa6f34b22b1069d8164400bc855"


def test_generator_output_digest():
    h = hashlib.sha256()
    for generate, n_graphs, inliers, outliers, deform, density, seed in GENERATOR_GRID:
        for g in generate(SynthParams(n_graphs=n_graphs, inliers=inliers, outliers=outliers,
                                      deform=deform, density=density, seed=seed)):
            h.update(np.ascontiguousarray(g.adjacency, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(g.truth.perm, dtype="<i8").tobytes())
            if g.coords is not None:
                h.update(np.ascontiguousarray(g.coords, dtype="<f8").tobytes())
    assert h.hexdigest() == GENERATOR_GOLDEN


@pytest.mark.parametrize(("inliers", "dense", "digest"), [
    (11, True, "ddd6e496fc995c9285a75152f117791c1a3db3537f377e0116d78ae42acd4e0e"),
    (14, False, "58e78d552d791c8c8468674cdc0e4cc56d8c0596908562c83afcff46f3b6578c"),
], ids=["n14-dense", "n17-csr"])
def test_len_angle_points_digest(inliers, dense, digest):
    # Delaunay graphs with 3 outliers: K is about 10% full, so dense for
    # every pair at n = 14, where the solver stacks it, and CSR at n = 17.
    # The n = 14 digest dates from when its pairs were CSR.
    synth = SynthParams(n_graphs=5, inliers=inliers, outliers=3, deform=0.02, sigma2=0.05,
                        seed=10)
    params = BoostParams(mode="isb_gc", t_max=6, elicit=InlierEstimate(inliers, "consistency"))
    kset = build_affinity_set(gen_random_points(synth), synth.sigma2, kind="len_angle")
    assert all(kset.get(i, j).is_sparse != dense for i, j in kset.pairs())
    cfg0 = init_config(kset, synth.coverage, synth.seed)
    boosted, _ = run_boost(cfg0, kset, replace(params, enforce_final_consistency=False))
    assert route(boosted, params.gamma) == "consistency_mst"
    final = enforce_full_consistency(boosted, kset, params.gamma)
    table = np.ascontiguousarray(final.perm_table(), dtype="<i8")
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest


def test_trace_lists_digest():
    # every trace list but the wall times: floats by float.hex, counts as ints
    generate, synth, params, _ = CASES["elicited_points"]
    kset = build_affinity_set(generate(synth), synth.sigma2)
    _, trace = run_boost(init_config(kset, synth.coverage, synth.seed), kset, params)
    text = "\n".join([" ".join(float(v).hex() for v in trace.scores),
                      " ".join(float(v).hex() for v in trace.consistencies),
                      " ".join(str(int(c)) for c in trace.changes),
                      " ".join(str(int(c)) for c in trace.scored)])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e797152d24a5c27015ef4443f0723067dbcdd1841711047b9227a657a5fe9dc0")
