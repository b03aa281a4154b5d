"""Workloads of the mgmboost benchmark and the trial that runs them.

A trial makes the calls that one ``mgmboost bench`` trial makes: generate
the instances, build the affinity set, solve the initial configuration,
then run every algorithm of the workload from that configuration. The
library receives only the generated instances; every seed comes from the
benchmark's workload seed and the trial index.

The traced variant of a trial makes the same calls with two splits, so
that each layer gets its own span without touching the library:

- ``init_config`` receives a solver that calls ``power_iteration`` then
  ``hungarian``, exactly as ``solve_pairwise`` does;
- ``run_boost`` runs with ``enforce_final_consistency=False`` and
  ``enforce_full_consistency`` follows it, which is what ``run_boost``
  does internally.

Both must give bit-identical results; the runner checks that they do.
"""

from __future__ import annotations

import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from mgmboost import (BoostParams, InlierEstimate, ScoreNormalizer, SynthParams,
                      accuracy, build_affinity_set, enforce_full_consistency,
                      gen_random_graphs, gen_random_points, hungarian,
                      init_config, inlier_rows_from_instances, is_fully_consistent,
                      keep_masks, overall_consistency, power_iteration, run_boost,
                      total_score, truth_config)
from mgmboost.consistency import pairwise_consistency_all

from spans import TRIAL

# Knobs of every workload, pinned here so that a change of the library's
# defaults does not change what the benchmark measures.
T_MAX = 6
SIGMA2 = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object            # gen_random_graphs or gen_random_points
    synth: SynthParams          # seed is replaced per trial
    algorithms: tuple           # of (label, BoostParams)
    scored_trials: int          # trials whose deterministic outputs are reported

    @property
    def n_pairs(self):
        n = self.synth.n_graphs
        return n * (n - 1) // 2


def _boost(mode, **kw):
    return BoostParams(mode=mode, t_max=T_MAX, **kw)


WORKLOADS = {
    w.name: w for w in (
        Workload("dense_many", gen_random_graphs,
                 SynthParams(n_graphs=32, inliers=8, deform=0.1, density=0.9,
                             sigma2=SIGMA2),
                 (("isb_gc", _boost("isb_gc")),),
                 scored_trials=30),
        Workload("sparse_2nd", gen_random_graphs,
                 SynthParams(n_graphs=8, inliers=16, deform=0.05, density=0.9,
                             sigma2=SIGMA2),
                 (("isb_2nd", _boost("isb_2nd")),),
                 scored_trials=100),
        Workload("outlier_grid", gen_random_points,
                 SynthParams(n_graphs=8, inliers=6, outliers=8, deform=0.02,
                             sigma2=SIGMA2),
                 (("isb_gc", _boost("isb_gc", enforce_final_consistency=False)),
                  ("isb_gc_cst", _boost("isb_gc", enforce_final_consistency=False,
                                        elicit=InlierEstimate(6, "consistency"))),
                  ("isb_gc_afy", _boost("isb_gc", enforce_final_consistency=False,
                                        elicit=InlierEstimate(6, "affinity")))),
                 scored_trials=110),
    )
}

# Post-processing routes of enforce_full_consistency, in its own order.
ROUTES = ("none", "affinity_mst", "consistency_mst", "spectral")

# Spans a trial opens around its calls into the library; the runner
# reports each one's per-trial self time as "<span>_s".
LAYER_SPANS = (
    "synthgen.generate", "synthgen.affinity_build", "synthgen.init_config",
    "pairwise.power_iteration", "pairwise.hungarian",
    "boost.run", "boost.post",
    "core.total_score", "bench.accuracy",
    "consistency.keep_masks", "consistency.pairwise_all", "consistency.overall",
    "consistency.route_probe", "consistency.full_check",
)
# Per-trial counts of the traced run.
COUNTS = ("pairwise.calls", "pairwise.nonconverged", "boost.sweeps",
          "boost.pairs_changed", "boost.candidates")


def smoke(w):
    """The same workload on four graphs, one scored trial."""
    return replace(w, synth=replace(w.synth, n_graphs=4), scored_trials=1)


def trial_seeds(seed, trial):
    """(data, init, boost) seeds of one trial; trial 0 is the warm-up."""
    return tuple(int(s) for s in np.random.SeedSequence([seed, trial]).generate_state(3))


def affinity_bytes(kset):
    """Bytes of every stored affinity matrix: dense ``nbytes``, or CSR
    data + indices + indptr. Computed from the set, not measured."""
    total = 0
    for i, j in kset.pairs():
        d = kset.get(i, j).data
        total += (d.data.nbytes + d.indices.nbytes + d.indptr.nbytes
                  if sp.issparse(d) else d.nbytes)
    return total


def post_route(cfg, gamma):
    """The route enforce_full_consistency will take, from the same tests
    it makes, in the same order."""
    table = cfg.perm_table()
    if is_fully_consistent(cfg, table):
        return "none"
    if overall_consistency(cfg, table) < gamma:
        return "affinity_mst"
    return "consistency_mst" if cfg.n >= cfg.N else "spectral"


def config_error(table, n_graphs, n_nodes):
    """Why the (N, N, n) index table of a configuration is not a valid
    configuration, or None: shape, every X_ij a permutation, X_ji its
    inverse, X_ii the identity."""
    if table.shape != (n_graphs, n_graphs, n_nodes):
        return f"table shape {table.shape}"
    ident = np.arange(n_nodes)
    if not (np.sort(table, axis=2) == ident).all():
        return "a matching is not a permutation"
    if not (np.take_along_axis(table.transpose(1, 0, 2), table, axis=2) == ident).all():
        return "X_ji is not the inverse of X_ij"
    if not (table[np.arange(n_graphs), np.arange(n_graphs)] == ident).all():
        return "X_ii is not the identity"
    return None


@dataclass
class Op:
    """One trial x algorithm: its outputs and whether it failed."""
    label: str
    table: np.ndarray | None = None
    accuracy: float = float("nan")
    score: float = float("nan")
    consistency: float = float("nan")
    error: str | None = None


@dataclass
class Trial:
    index: int
    ops: list
    setup_s: float = float("nan")
    match_s: float = float("nan")
    affinity_bytes: int = 0
    counts: dict = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    sweep_s: list = field(default_factory=list)
    route: list = field(default_factory=list)

    @property
    def ok(self):
        return all(op.error is None for op in self.ops)


def _traced_solver(tracer, counts):
    def solve(k):
        counts["pairwise.calls"] += 1
        with tracer.span("pairwise.power_iteration"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v = power_iteration(k)
        counts["pairwise.nonconverged"] += sum(
            "did not converge" in str(c.message) for c in caught)
        with tracer.span("pairwise.hungarian"):
            return hungarian(v.reshape((k.n, k.n), order="F"))
    return solve


def run_trial(w, seed, index, tracer, traced):
    """Run one trial; failures are recorded on its operations, never
    raised. ``traced`` selects the split calls described above."""
    data_seed, init_seed, boost_seed = trial_seeds(seed, index)
    res = Trial(index, [Op(label) for label, _ in w.algorithms])
    tracer.trial = index
    with tracer.span(TRIAL):
        try:
            _trial_body(w, res, tracer, traced, data_seed, init_seed, boost_seed)
        except Exception:
            # A failure before the algorithms ran fails every operation.
            msg = traceback.format_exc()
            print(f"trial {index} failed:\n{msg}", file=sys.stderr)
            for op in res.ops:
                if op.error is None:
                    op.error = msg.strip().splitlines()[-1]
    return res


def _trial_body(w, res, tracer, traced, data_seed, init_seed, boost_seed):
    span = tracer.span
    tic = time.perf_counter()
    with span("synthgen.generate"):
        instances = w.generate(replace(w.synth, seed=data_seed))
    with span("synthgen.affinity_build"):
        kset = build_affinity_set(instances, w.synth.sigma2)
    res.setup_s = time.perf_counter() - tic
    res.affinity_bytes = affinity_bytes(kset)

    solver = _traced_solver(tracer, res.counts) if traced else None
    tic = time.perf_counter()
    with span("synthgen.init_config"):
        cfg0 = init_config(kset, w.synth.coverage, init_seed, solver)
    match_s = time.perf_counter() - tic

    n_graphs, n_nodes = cfg0.N, cfg0.n
    outputs = []
    for op, (_, params) in zip(res.ops, w.algorithms):
        params = replace(params, seed=boost_seed)
        split = traced and params.enforce_final_consistency
        try:
            tic = time.perf_counter()
            with span("boost.run"):
                cfg, trace = run_boost(cfg0, kset, replace(params, enforce_final_consistency=False)
                                       if split else params)
            match_s += time.perf_counter() - tic
            if split:
                with span("consistency.route_probe"):
                    res.route.append(post_route(cfg, params.gamma))
                tic = time.perf_counter()
                with span("boost.post"):
                    cfg = enforce_full_consistency(cfg, kset, params.gamma)
                match_s += time.perf_counter() - tic
        except Exception:
            msg = traceback.format_exc()
            print(f"trial {res.index} {op.label} failed:\n{msg}", file=sys.stderr)
            op.error = msg.strip().splitlines()[-1]
            continue
        outputs.append((op, params, cfg))
        sweeps = len(trace) - 1
        anchors = n_graphs ** 2 if params.mode == "isb_2nd" else n_graphs
        res.counts["boost.sweeps"] += sweeps
        res.counts["boost.pairs_changed"] += int(sum(trace.changes))
        res.counts["boost.candidates"] += sweeps * w.n_pairs * anchors
        res.sweep_s.extend(np.diff(trace.times).tolist())
    res.match_s = match_s

    truth = truth_config(instances)
    rows = inlier_rows_from_instances(instances)
    norm = ScoreNormalizer.from_initial(cfg0, kset)
    for op, params, cfg in outputs:
        op.table = cfg.perm_table()
        op.error = config_error(op.table, n_graphs, n_nodes)
        if op.error is None and params.enforce_final_consistency:
            with span("consistency.full_check"):
                if not is_fully_consistent(cfg):
                    op.error = "post-processed result is not fully consistent"
        if op.error is not None:
            continue
        with span("bench.accuracy"):
            op.accuracy = accuracy(cfg, truth, rows)
        with span("core.total_score"):
            op.score = total_score(cfg, kset) / norm.value
        with span("consistency.overall"):
            op.consistency = overall_consistency(cfg)
        if not (0.0 <= op.accuracy <= 1.0 and np.isfinite(op.score) and op.score > 0
                and 0.0 < op.consistency <= 1.0):
            op.error = (f"metric out of range: accuracy={op.accuracy} "
                        f"score={op.score} consistency={op.consistency}")

    if traced:
        # Per-snapshot probes of the consistency layer on the initial
        # configuration: the masks of the workload's eliciting variants
        # (or a consistency-ranked mask over the inliers), and C_p.
        ests = [p.elicit for _, p in w.algorithms if p.elicit is not None] or \
            [InlierEstimate(w.synth.inliers, "consistency")]
        for est in ests:
            with span("consistency.keep_masks"):
                keep_masks(cfg0, est, kset)
        with span("consistency.pairwise_all"):
            pairwise_consistency_all(cfg0)
