"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or on failure).

Criterion 9 (property floor) is realized by the property tests spread
over the other test modules; test_property_floor_manifest below checks
that every invariant bullet has its named test, and the property modules
themselves run in seconds, far under the three-minute budget.
"""

import importlib
import time

import numpy as np
import pytest

from mgmboost import (BoostParams, InlierEstimate, ScoreNormalizer, SynthParams,
                      accuracy, build_affinity_set,
                      enforce_full_consistency, gen_random_graphs,
                      gen_random_points, hungarian, init_config,
                      inlier_rows_from_instances, is_fully_consistent,
                      overall_consistency, run_boost, truth_config)
from mgmboost.consistency import pairwise_consistency_all, unary_consistency_all

from conftest import brute_assignment_best, random_config, random_kset
from test_boost import EVAL_MODES, exhaustive_anchor_max, naive_eval, sweep_picks


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _grid_trial(eps, seed, algorithms):
    params = SynthParams(n_graphs=15, inliers=8, outliers=0, deform=eps,
                         density=0.9, sigma2=0.05, coverage=1.0, seed=seed)
    instances = gen_random_graphs(params)
    kset = build_affinity_set(instances, params.sigma2)
    cfg0 = init_config(kset, 1.0, seed + 991)
    tru = truth_config(instances)
    rows = inlier_rows_from_instances(instances)
    out = {"init": accuracy(cfg0, tru, rows)}
    for name, bp in algorithms:
        cfg, _ = run_boost(cfg0, kset, bp)
        out[name] = accuracy(cfg, tru, rows)
    return out


@pytest.fixture(scope="module")
def deformation_grid():
    """Shared 25-trial deformation grid for criteria 5 and 6."""
    algorithms = [(m, BoostParams(mode=m, t_max=6, seed=0,
                                  enforce_final_consistency=False))
                  for m in ("isb", "isb_gc", "isb_cst")]
    started = time.perf_counter()
    trials = []
    for eps in (0.10, 0.15):
        for s in range(25):
            trials.append(_grid_trial(eps, 3000 + 97 * s, algorithms))
    elapsed = time.perf_counter() - started
    means = {k: float(np.mean([t[k] for t in trials])) for k in trials[0]}
    return means, elapsed


def test_criterion_1_monotone_convergence():
    """Pure score boosting: non-decreasing total score every iteration and
    a fixed point within 20 iterations, on 50 seeded instances."""
    started = time.perf_counter()
    violations = 0
    for seed in range(50):
        params = SynthParams(n_graphs=10, inliers=8, outliers=0, deform=0.1,
                             density=0.9, sigma2=0.05, coverage=1.0, seed=seed)
        instances = gen_random_graphs(params)
        kset = build_affinity_set(instances, params.sigma2)
        cfg0 = init_config(kset, 1.0, seed + 500)
        _, trace = run_boost(cfg0, kset, BoostParams(
            mode="isb", t_max=20, enforce_final_consistency=False))
        if np.any(np.diff(trace.scores) < 0.0) or trace.changes[-1] != 0:
            violations += 1
    elapsed = time.perf_counter() - started
    _report(1, violations == 0 and elapsed < 30.0,
            f"0 violations required, got {violations}; runtime {elapsed:.1f}s < 30s")


def test_criterion_2_consistency_identity():
    """Mean unary consistency equals mean pairwise consistency to 1e-12
    on 200 random configurations."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        cfg = random_config(rng, int(rng.integers(3, 7)), int(rng.integers(2, 6)))
        unary_mean = unary_consistency_all(cfg).mean()
        cp = pairwise_consistency_all(cfg)
        pair_mean = cp[np.triu_indices(cfg.N, 1)].mean()
        worst = max(worst, abs(unary_mean - pair_mean))
    _report(2, worst < 1e-12, f"max |unary mean - pairwise mean| = {worst:.2e} < 1e-12")


def test_criterion_3_full_consistency_postprocessing():
    """All three post-processing branches produce exactly consistent
    output on 100 random inconsistent configurations."""
    rng = np.random.default_rng(7)
    branches = [(34, 5, 4, 0.999),   # low consistency threshold: affinity tree
                (33, 4, 6, 1e-6),    # n >= N: consistency tree
                (33, 6, 4, 1e-6)]    # n < N: spectral synchronization
    checked = 0
    failures = 0
    for count, n_graphs, n, gamma in branches:
        done = 0
        while done < count:
            cfg = random_config(rng, n_graphs, n)
            if is_fully_consistent(cfg):
                continue
            kset = random_kset(rng, n_graphs, n)
            out = enforce_full_consistency(cfg, kset, gamma=gamma)
            if not (is_fully_consistent(out) and overall_consistency(out) == 1.0):
                failures += 1
            done += 1
            checked += 1
    _report(3, checked == 100 and failures == 0,
            f"{checked} configs over 3 branches, {failures} not exactly consistent")


def test_criterion_4_oracle_equivalence():
    """Anchor selection of a sweep matches exhaustive enumeration for all
    10 pairs in every mode, and the Hungarian discretizer matches brute
    force over all 4! assignments, across a 20-seed suite at N=5, n=4."""
    bad = 0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        cfg = random_config(rng, 5, 4)
        kset = random_kset(rng, 5, 4)
        norm = ScoreNormalizer.from_initial(cfg, kset)
        lam = 0.35
        for mode in EVAL_MODES:
            for i, j, got_k, got_cand in sweep_picks(cfg, kset, mode, norm, lam):
                best, _ = exhaustive_anchor_max(mode, i, j, cfg, kset, norm, lam)
                got = naive_eval(mode, got_cand, got_k, i, j, cfg, kset, norm, lam)
                if abs(got - best) > 1e-9 * max(1.0, abs(best)):
                    bad += 1
        profit = rng.normal(size=(4, 4))
        got_perm = hungarian(profit)
        total = float(profit[np.arange(4), got_perm.perm].sum())
        if abs(total - brute_assignment_best(profit)) > 1e-12 * max(1.0, abs(total)):
            bad += 1
    _report(4, bad == 0, f"20 seeds x 10 pairs x {len(EVAL_MODES)} modes + Hungarian: "
                         f"{bad} oracle mismatches")


def test_criterion_5_boosting_lifts_accuracy(deformation_grid):
    """Graduated boosting beats the initial configuration by at least
    0.03 mean accuracy and stays within 0.01 of pure score boosting."""
    means, elapsed = deformation_grid
    lift = means["isb_gc"] - means["init"]
    gap = means["isb_gc"] - means["isb"]
    ok = lift >= 0.03 and gap >= -0.01 and elapsed < 300.0
    _report(5, ok, f"isb_gc={means['isb_gc']:.3f} init={means['init']:.3f} "
                   f"(lift {lift:+.3f} >= +0.03), isb={means['isb']:.3f} "
                   f"(gap {gap:+.3f} >= -0.01), runtime {elapsed:.0f}s < 300s")


def test_criterion_6_pure_consistency_ordering(deformation_grid):
    """Score boosting is not outperformed by pure consistency boosting
    beyond the 0.005 tolerance."""
    means, _ = deformation_grid
    margin = means["isb"] - means["isb_cst"]
    _report(6, margin >= -0.005,
            f"isb={means['isb']:.3f} isb_cst={means['isb_cst']:.3f} "
            f"(margin {margin:+.3f} >= -0.005)")


def test_criterion_7_inlier_eliciting():
    """Consistency-elicited masks help under heavy outliers and degrade
    smoothly when the inlier estimate is off by two."""
    variants = {"plain": None, "est4": 4, "est6": 6, "est8": 8}
    sums = {k: 0.0 for k in variants}
    trials = 25
    for s in range(trials):
        seed = 5000 + 89 * s
        params = SynthParams(n_graphs=15, inliers=6, outliers=10, deform=0.02,
                             density=1.0, sigma2=0.05, coverage=1.0, seed=seed)
        instances = gen_random_points(params)
        kset = build_affinity_set(instances, params.sigma2)
        cfg0 = init_config(kset, 1.0, seed + 7)
        tru = truth_config(instances)
        rows = inlier_rows_from_instances(instances)
        for name, n_est in variants.items():
            elicit = None if n_est is None else InlierEstimate(n_est, "consistency")
            bp = BoostParams(mode="isb_gc", t_max=6, seed=seed, elicit=elicit,
                             enforce_final_consistency=False)
            cfg, _ = run_boost(cfg0, kset, bp)
            sums[name] += accuracy(cfg, tru, rows)
    means = {k: v / trials for k, v in sums.items()}
    lift = means["est6"] - means["plain"]
    drop = means["est6"] - min(means["est4"], means["est8"])
    ok = lift >= 0.02 and drop <= 0.10
    _report(7, ok, f"elicited={means['est6']:.3f} plain={means['plain']:.3f} "
                   f"(lift {lift:+.3f} >= +0.02); off-by-two drop {drop:.3f} <= 0.10 "
                   f"(est4={means['est4']:.3f}, est8={means['est8']:.3f})")


def test_criterion_8_runtime_scaling():
    """Soft check: log-log slope of pure-score-boosting wall time against
    the graph count, at fixed node count, sits in [2.3, 3.5]."""
    sizes = (8, 16, 32)
    means = []
    for n_graphs in sizes:
        per_instance = []
        for seed in range(6):
            params = SynthParams(n_graphs=n_graphs, inliers=8, outliers=0,
                                 deform=0.1, density=0.9, sigma2=0.05,
                                 coverage=1.0, seed=seed)
            instances = gen_random_graphs(params)
            kset = build_affinity_set(instances, params.sigma2)
            cfg0 = init_config(kset, 1.0, seed + 77)
            reps = []
            for rep in range(3):
                tic = time.perf_counter()
                run_boost(cfg0, kset, BoostParams(mode="isb", t_max=6, seed=rep,
                                                  enforce_final_consistency=False))
                reps.append(time.perf_counter() - tic)
            per_instance.append(np.median(reps))
        means.append(float(np.mean(per_instance)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    _report(8, 2.3 <= slope <= 3.5,
            f"slope {slope:.2f} in [2.3, 3.5]; mean times "
            + ", ".join(f"N={n}: {t * 1000:.0f}ms" for n, t in zip(sizes, means)))


PROPERTY_FLOOR = {
    # core
    "compose associative, tree-path closure": "test_core:TestCompose.test_associative_and_closed_on_paths",
    "sparse gather equals dense quadratic form": "test_core:TestAffinityScore.test_gather_matches_dense_quadratic_form",
    "score invariant under consistent relabeling": "test_core:TestAffinityScore.test_relabeling_invariance",
    # synthgen
    "generators bit-reproducible": "test_synthgen:TestRandomGraphs.test_deterministic",
    "truth involution and perfect self-accuracy": "test_synthgen:TestRandomGraphs.test_truth_invariants",
    "gauss affinity symmetric, index convention": "test_synthgen:TestGaussAffinity.test_matches_quadruple_loop_and_symmetric",
    # pairwise
    "hungarian equals brute force": "test_pairwise:TestHungarian.test_matches_brute_force",
    "solver always feasible": "test_pairwise:TestSolvePairwise.test_always_feasible_on_hostile_affinities",
    "identical graphs solved to optimum": "test_pairwise:TestSolvePairwise.test_identical_graphs_reach_optimum",
    # consistency
    "metrics in (0,1], 1 iff consistent": "test_consistency:TestOverallConsistency.test_one_iff_consistent",
    "unary mean equals pairwise mean": "test_consistency:TestOverallConsistency.test_unary_mean_equals_pairwise_mean",
    "pairwise consistency symmetric": "test_consistency:TestPairwiseConsistency.test_symmetric_under_swap",
    "masks idempotent": "test_consistency:TestInlierMask.test_idempotent",
    "optimized metrics match naive references": "test_consistency:TestUnaryConsistency.test_matches_naive_reference",
    # boost
    "score monotone, finite fixed point": "test_boost:TestRunBoost.test_isb_monotone_and_converges",
    "unary proxy stationary at weight 1": "test_boost:TestRunBoost.test_gc_u_weight_one_reaches_stationary_point",
    "incumbent competition": "test_boost:TestBestAnchor.test_incumbent_competition",
    "post-processing exactly consistent": "test_boost:TestEnforceFullConsistency.test_output_exactly_consistent",
    "seeded determinism": "test_boost:TestRunBoost.test_deterministic_runs",
    "zero-weight blend equals pure boosting": "test_boost:TestRunBoost.test_gc_with_zero_weight_equals_pure_score_boosting",
    # bench
    "self-accuracy is one, relabel-invariant": "test_bench:TestAccuracy.test_symmetric_under_relabeling",
    "identical initial config per trial": "test_bench:TestRunExperiment.test_identical_initial_config_across_algorithms",
    "result accuracies in unit interval": "test_bench:TestRunExperiment.test_accuracies_in_unit_interval",
}


def test_criterion_9_property_floor():
    """Every invariant bullet maps to a named property test that exists."""
    missing = []
    for bullet, target in PROPERTY_FLOOR.items():
        module_name, attr_path = target.split(":")
        obj = importlib.import_module(module_name)
        try:
            for part in attr_path.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{bullet} -> {target}")
    _report(9, not missing, f"{len(PROPERTY_FLOOR)} invariant bullets mapped to "
                            f"existing property tests; missing: {missing or 'none'}")
