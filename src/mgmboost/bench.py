"""Experiment harness: the accuracy metric, seeded grid runner, and
CSV/plot-data emission.

A grid sweeps exactly one parameter; for every swept value and trial the
harness generates data, builds affinities, produces one initial
configuration, and runs every algorithm from that identical starting
point, so differences isolate the boosting behavior. Trials are
independent with per-trial seed streams derived from (seed base, sweep
index, trial index) and may run in parallel processes.
"""

from __future__ import annotations

import csv
import logging
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .boost import run_boost
from .consistency import overall_consistency
from .core import ScoreNormalizer, total_score
from .synthgen import (SynthParams, build_affinity_set, gen_random_graphs,
                       gen_random_points, init_config, load_pointset,
                       truth_config)

log = logging.getLogger(__name__)

GENERATORS = ("random_graph", "random_point", "file")
# swept SynthParams field -> its annotated type (the string "int" or "float")
_SWEEPABLE = {f.name: f.type for f in fields(SynthParams) if f.name != "seed"}
CSV_HEADER = ("algorithm,swept_param,swept_value,trial_mean_acc,acc_std,"
              "mean_time_s,mean_consistency,mean_score")


@dataclass(frozen=True)
class ExperimentSpec:
    generator: str
    base: SynthParams
    sweep_param: str
    sweep_values: tuple
    algorithms: tuple              # of (name, BoostParams)
    trials: int = 50
    seed_base: int = 0
    affinity: str = "gauss"        # or "len_angle"
    beta_w: float = 0.9
    file_path: str | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}")
        if self.sweep_param == "seed":
            raise ValueError("seed cannot be swept: each trial derives its data seed "
                             "from seed_base, the swept value's index and the trial")
        if self.sweep_param not in _SWEEPABLE:
            raise ValueError(f"unknown swept parameter {self.sweep_param!r}")
        if not self.sweep_values:
            raise ValueError("need at least one swept value")
        if _SWEEPABLE[self.sweep_param] in ("int", int):
            for value in self.sweep_values:
                if not float(value).is_integer():
                    raise ValueError(f"{self.sweep_param} takes integers, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.generator == "file" and not self.file_path:
            raise ValueError("file generator needs file_path")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        # a value no trial can run with fails here, not once per trial
        for value in self.sweep_values:
            nodes = self.value_params(value).n_nodes
            for name, bp in self.algorithms:
                if bp.elicit is not None and bp.elicit.n_est > nodes:
                    raise ValueError(f"algorithm {name!r}: elicit.n_est={bp.elicit.n_est} "
                                     f"exceeds the node count {nodes} at "
                                     f"{self.sweep_param}={value}")

    def value_params(self, value):
        """The base parameters with the swept field set to ``value``;
        raises the SynthParams error naming a bad field and value."""
        return replace(self.base, **{self.sweep_param: _coerce(self.sweep_param, value)})


@dataclass(frozen=True)
class ResultRow:
    algorithm: str
    swept_param: str
    swept_value: float
    trial_mean_acc: float
    acc_std: float
    mean_time_s: float
    mean_consistency: float
    mean_score: float

    def __post_init__(self):
        if not 0.0 <= self.trial_mean_acc <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")


def inlier_rows_from_instances(instances):
    """Per-graph index arrays of the rows that are common inliers."""
    return [g.inlier_rows for g in instances]


def accuracy(cfg_alg, cfg_truth, inlier_rows):
    """Mean per-pair matching accuracy against ground truth, counting
    only rows that are common inliers; correspondences involving outlier
    rows are ignored entirely."""
    if cfg_alg.N != cfg_truth.N or cfg_alg.n != cfg_truth.n:
        raise ValueError("algorithm and truth configurations differ in shape")
    inlier = np.zeros((cfg_alg.N, cfg_alg.n), dtype=bool)
    for i, rows in enumerate(inlier_rows[:cfg_alg.N]):
        inlier[i, np.asarray(rows, dtype=np.int64)] = True
    counts = inlier.sum(axis=1)
    empty = np.flatnonzero(counts[:-1] == 0)
    if empty.size:
        raise ValueError(f"graph {empty[0]} has no inlier rows; accuracy is undefined")
    iu, ju = np.triu_indices(cfg_alg.N, 1)
    hits = ((cfg_alg.perm_table() == cfg_truth.perm_table()) & inlier[:, None]).sum(axis=2)
    # per-pair ratios added in row-major order, as a loop over the pairs would
    return sum((hits[iu, ju] / counts[iu]).tolist()) / len(iu)


def _coerce(name, value):
    return int(value) if _SWEEPABLE[name] in ("int", int) else float(value)


def make_instances(generator, params, file_path=None):
    """Instances of one of GENERATORS for the given parameters; the file
    generator picks frames, landmarks and outliers with ``params.seed``."""
    if generator == "random_graph":
        return gen_random_graphs(params)
    if generator == "random_point":
        return gen_random_points(params)
    return load_pointset(file_path, n_inliers=params.inliers,
                         n_outliers=params.outliers, seed=params.seed,
                         max_frames=params.n_graphs)


def _run_trial(spec, sweep_idx, trial):
    """One (swept value, trial) cell: returns {algorithm: metrics} or None
    when generation, solving, boosting or scoring fails (logged, cell
    dropped)."""
    value = spec.sweep_values[sweep_idx]
    seeds = np.random.SeedSequence([spec.seed_base, sweep_idx, trial]).generate_state(3)
    data_seed, init_seed, boost_seed = (int(s) for s in seeds)
    try:
        params = replace(spec.value_params(value), seed=data_seed)
        instances = make_instances(spec.generator, params, spec.file_path)
        kset = build_affinity_set(instances, params.sigma2, kind=spec.affinity,
                                  beta_w=spec.beta_w)
        cfg0 = init_config(kset, params.coverage, init_seed)
        cfg_truth = truth_config(instances)
        rows = inlier_rows_from_instances(instances)
        norm = ScoreNormalizer.from_initial(cfg0, kset)
    except Exception:
        log.warning("trial (%s=%s, trial %d) aborted during setup",
                    spec.sweep_param, value, trial, exc_info=True)
        return None
    out = {}
    for name, bp in spec.algorithms:
        run_params = replace(bp, seed=boost_seed)
        try:
            tic = time.perf_counter()
            cfg_out, _ = run_boost(cfg0, kset, run_params)
            elapsed = time.perf_counter() - tic
            out[name] = (accuracy(cfg_out, cfg_truth, rows), elapsed,
                         overall_consistency(cfg_out),
                         total_score(cfg_out, kset) / norm.value)
        except Exception:
            log.warning("trial (%s=%s, trial %d) aborted in algorithm %s",
                        spec.sweep_param, value, trial, name, exc_info=True)
            return None
    return out


def run_experiment(spec, workers=1):
    """Run the whole grid, in ``workers`` parallel processes when above 1,
    and aggregate one ResultRow per (algorithm, swept value) over the
    trials that did not fail. Deterministic given the seed base, except
    wall times."""
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    cells = [(si, tr) for si in range(len(spec.sweep_values)) for tr in range(spec.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, [spec] * len(cells),
                                    [c[0] for c in cells], [c[1] for c in cells]))
    else:
        results = [_run_trial(spec, si, tr) for si, tr in cells]

    by_value = {si: [] for si in range(len(spec.sweep_values))}
    for (si, _), res in zip(cells, results):
        if res is not None:
            by_value[si].append(res)

    rows = []
    for si, value in enumerate(spec.sweep_values):
        trials = by_value[si]
        if not trials:
            log.warning("all trials failed for %s=%s; row dropped", spec.sweep_param, value)
            continue
        if len(trials) < spec.trials:
            log.warning("%d of %d trials failed for %s=%s", spec.trials - len(trials),
                        spec.trials, spec.sweep_param, value)
        for name, _ in spec.algorithms:
            accs, times, cons, scores = np.array([t[name] for t in trials]).T
            rows.append(ResultRow(name, spec.sweep_param, float(value),
                                  float(accs.mean()), float(accs.std()),
                                  float(times.mean()), float(cons.mean()),
                                  float(scores.mean())))
    return rows


def _fmt(x):
    return f"{x:.12g}"


def emit_csv(rows, path):
    """Write rows under the fixed documented header."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for r in rows:
                writer.writerow([r.algorithm, r.swept_param, _fmt(r.swept_value),
                                 _fmt(r.trial_mean_acc), _fmt(r.acc_std),
                                 _fmt(r.mean_time_s), _fmt(r.mean_consistency),
                                 _fmt(r.mean_score)])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def emit_plotdata(rows, prefix):
    """One x/y series file per algorithm, consumable by any plotting tool.
    Returns the written paths."""
    by_alg = {}
    for r in rows:
        by_alg.setdefault(r.algorithm, []).append(r)
    paths = []
    for alg, series in by_alg.items():
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", alg)
        path = f"{prefix}_{safe}.csv"
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["swept_value", "trial_mean_acc", "acc_std", "mean_time_s"])
                for r in sorted(series, key=lambda r: r.swept_value):
                    writer.writerow([_fmt(r.swept_value), _fmt(r.trial_mean_acc),
                                     _fmt(r.acc_std), _fmt(r.mean_time_s)])
        except OSError as exc:
            raise OSError(f"cannot write plot data to {path}: {exc}") from exc
        paths.append(path)
    return paths
