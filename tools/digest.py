"""Print one sha256 line per run of a fixed matrix of boosting runs.

Each line reads ``<case> <route> <outputs> <scored>``. The case names the
instance set, the mode, the eliciting ranking, the anchor sample rate and
the post-processing threshold gamma; the route is the post-processing
branch the boosted configuration takes. The two sha256 digests cover:

- outputs: the generated instances (adjacency, truth and coordinate
  bytes), the initial and the final int64 index tables, and the trace's
  scores and consistencies as ``float.hex`` and pair changes as ints;
- scored: the trace's count of kernel sums computed per iteration, which
  a change to how candidates are scored may move while the outputs stay.

Wall times are left out.

The matrix crosses every mode, eliciting none, by consistency and by
affinity, and sample rates 1 and 0.6, on three seeds of seven instance
sets: random graphs with N > n, with N much larger than n (24 and 5),
with N <= n and without deformation, and point sets under the ``gauss``
kernel and under ``len_angle`` with n = 14, whose pairs are dense, and
n = 17, whose pairs are CSR. Each boosted configuration is post-processed
at two thresholds, so every route is taken somewhere.

After the runs, one line ``kernel/<set>/seed=<s> <kernel>`` per instance
set and seed digests the edge kernel itself: ``_dense_stack`` of every
pair in both orientations, the CSR data, indices and indptr of ``get``
for every ordered pair it builds as CSR, and ``_kernel_sums`` of the
initial table's first-order candidates X_ik X_kj and of fixed random
candidates, each with all rows and with fixed kept rows, as scores and as
row sums.

A change that must keep outputs bit-identical is checked against the
source tree of a git revision::

    PYTHONPATH=src python tools/digest.py --against HEAD~1

This extracts the revision's ``src/`` with ``git archive`` into a
temporary directory, runs the same cases on it in a subprocess while
running them here, and prints each case whose line differs, with the
fields that differ (a change that moves only the number of sums computed
differs in ``scored`` alone), then a count. It exits 1 if any case
differs.

Name cases on the command line to run only those. The script reports on
stderr which ``mgmboost`` it imported, how many lines it printed, and the
total of ``trace.scored`` over the distinct boosted runs behind them: the
kernel sums they computed, so a scoring change can quote its saving.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

import mgmboost
from mgmboost import (BoostParams, InlierEstimate, SynthParams, build_affinity_set,
                      enforce_full_consistency, gen_random_graphs, gen_random_points,
                      init_config, is_fully_consistent, overall_consistency, run_boost)
from mgmboost.boost import MODES
from mgmboost.consistency import compositions

SIGMA2 = 0.05
# name: (generator, instance params, affinity kind)
SETS = {
    "graphs_N8_n6": (gen_random_graphs, SynthParams(n_graphs=8, inliers=6, deform=0.15,
                                                    density=0.9, sigma2=SIGMA2, seed=1),
                     "gauss"),
    "graphs_N24_n5": (gen_random_graphs, SynthParams(n_graphs=24, inliers=5, deform=0.1,
                                                      density=0.9, sigma2=SIGMA2, seed=6),
                      "gauss"),
    "graphs_N5_n8": (gen_random_graphs, SynthParams(n_graphs=5, inliers=7, outliers=1,
                                                    deform=0.2, sigma2=SIGMA2, seed=2),
                     "gauss"),
    "graphs_exact": (gen_random_graphs, SynthParams(n_graphs=4, inliers=5, sigma2=SIGMA2,
                                                    seed=3), "gauss"),
    "points_N6_n8": (gen_random_points, SynthParams(n_graphs=6, inliers=5, outliers=3,
                                                    deform=0.05, sigma2=SIGMA2, seed=4),
                     "gauss"),
    "len_angle_N5_n14": (gen_random_points, SynthParams(n_graphs=5, inliers=11, outliers=3,
                                                        deform=0.02, sigma2=SIGMA2, seed=5),
                         "len_angle"),
    "len_angle_N5_n17": (gen_random_points, SynthParams(n_graphs=5, inliers=14, outliers=3,
                                                        deform=0.02, sigma2=SIGMA2, seed=5),
                         "len_angle"),
}
SEEDS = (1, 2, 3)
ELICIT = ("none", "consistency", "affinity")
SAMPLE_RATES = (1.0, 0.6)
GAMMAS = (0.3, 0.95)
ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("route", "outputs", "scored")


def _sha(h, array, dtype):
    h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())


def route(cfg, gamma):
    """The branch ``enforce_full_consistency`` takes for ``cfg``."""
    if is_fully_consistent(cfg):
        return "none"
    if overall_consistency(cfg) < gamma:
        return "affinity_mst"
    return "consistency_mst" if cfg.n >= cfg.N else "spectral"


@lru_cache(maxsize=None)
def instance_set(name, seed):
    """(instance params, affinity set, initial configuration, hash of the
    instances and the initial table) of one set and seed, built once."""
    generate, synth, kind = SETS[name]
    synth = replace(synth, seed=seed)
    instances = generate(synth)
    h = hashlib.sha256()
    for g in instances:
        _sha(h, g.adjacency, "<f8")
        _sha(h, g.truth.perm, "<i8")
        if g.coords is not None:
            _sha(h, g.coords, "<f8")
    kset = build_affinity_set(instances, synth.sigma2, kind=kind)
    cfg0 = init_config(kset, synth.coverage, synth.seed)
    _sha(h, cfg0.perm_table(), "<i8")
    return synth, kset, cfg0, h


def case_names():
    """Every case of the matrix, in the order they are printed."""
    for cell in itertools.product(SETS, SEEDS, MODES, ELICIT, SAMPLE_RATES, GAMMAS):
        yield "{}/seed={}/mode={}/elicit={}/rate={}/gamma={}".format(*cell)
    for cell in itertools.product(SETS, SEEDS):
        yield "kernel/{}/seed={}".format(*cell)


def _kernel_primitives(kset):
    """``kset``'s ``_dense_stack`` and flat ``_kernel_sums``. Older
    revisions have them public, with ``kernel_sums`` over (P, A, n)
    candidate stacks; ``--against`` runs this script on those revisions
    too, so there the flat call is made as one candidate per pair."""
    if hasattr(kset, "_kernel_sums"):
        return kset._dense_stack, kset._kernel_sums

    def kernel_sums(i, j, perms, rows=None, axis=(1, 2)):
        return kset.kernel_sums(i, j, perms[:, None], rows,
                                (2, 3) if axis == (1, 2) else 3)[:, 0]

    return kset.dense_stack, kernel_sums


def kernel_line(set_name, seed):
    """The printed line of one set's kernel case."""
    _, kset, cfg0, _ = instance_set(set_name, seed)
    dense_stack, kernel_sums = _kernel_primitives(kset)
    n, h = kset.n, hashlib.sha256()
    iu, ju = np.triu_indices(kset.N, 1)
    i, j = np.concatenate([iu, ju]), np.concatenate([ju, iu])
    _sha(h, dense_stack(i, j), "<f8")
    for g, k in zip(i.tolist(), j.tolist()):
        pair = kset.get(g, k)
        if pair.is_sparse:
            csr = pair.data
            _sha(h, csr.data, "<f8")
            _sha(h, csr.indices, "<i8")
            _sha(h, csr.indptr, "<i8")
    rng = np.random.default_rng(seed)
    fixed = rng.permuted(np.broadcast_to(np.arange(n), (len(i), 4, n)), axis=2)
    rows = np.sort(rng.permuted(np.broadcast_to(np.arange(n), (len(i), n)), axis=1)
                   [:, :max(1, n - n // 3)], axis=1)
    # each pair's candidates as consecutive rows, so the sums come in the
    # order of a (P, A) array of them
    for perms in (compositions(cfg0.perm_table(), i, j), fixed):
        count = perms.shape[1]
        fi, fj = np.repeat(i, count), np.repeat(j, count)
        for r in (None, np.repeat(rows, count, axis=0)):
            for axis in ((1, 2), 2):
                _sha(h, kernel_sums(fi, fj, perms.reshape(-1, n), r, axis), "<f8")
    return f"kernel/{set_name}/seed={seed} {h.hexdigest()}"


@lru_cache(maxsize=None)
def _boosted(set_name, seed, mode, elicit, rate):
    synth, kset, cfg0, h = instance_set(set_name, seed)
    est = None if elicit == "none" else InlierEstimate(synth.inliers, elicit)
    params = BoostParams(mode=mode, sample_rate=rate, elicit=est, seed=synth.seed,
                         enforce_final_consistency=False)
    cfg, trace = run_boost(cfg0, kset, params)
    h = h.copy()
    for values in (trace.scores, trace.consistencies):
        h.update(" ".join(float(v).hex() for v in values).encode() + b";")
    h.update(_counts(trace.changes))
    return kset, cfg, h, hashlib.sha256(_counts(trace.scored)).hexdigest(), sum(trace.scored)


def _counts(counts):
    return " ".join(str(int(c)) for c in counts).encode() + b";"


def _run(name):
    """The ``_boosted`` arguments of a boosting case and its gamma."""
    set_name, *fields = name.split("/")
    f = dict(field.split("=") for field in fields)
    return (set_name, int(f["seed"]), f["mode"], f["elicit"], float(f["rate"])), float(f["gamma"])


def digest_line(name):
    """The printed line of one case."""
    if name.startswith("kernel/"):
        _, set_name, seed = name.split("/")
        return kernel_line(set_name, int(seed.split("=")[1]))
    run, gamma = _run(name)
    kset, cfg, h, scored, _ = _boosted(*run)
    h = h.copy()
    _sha(h, enforce_full_consistency(cfg, kset, gamma).perm_table(), "<i8")
    return f"{name} {route(cfg, gamma)} {h.hexdigest()} {scored}"


def against(rev, cases):
    """Run ``cases`` (all when empty) here and, in a subprocess at the same
    time, on the ``src/`` of git revision ``rev`` of the repository at
    ROOT; print each case whose line differs, with the fields that differ,
    and a count. Returns the count."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    names = cases or list(case_names())
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        src, out, err = (os.path.join(tmp, name) for name in ("src", "out", "err"))
        # files, not pipes: the child never waits for this process to read
        with open(out, "w") as stdout, open(err, "w") as stderr:
            run = subprocess.Popen([sys.executable, __file__, *cases], stdout=stdout,
                                   stderr=stderr, env={**os.environ, "PYTHONPATH": src})
            try:
                here = [digest_line(name) for name in names]
            finally:
                run.wait()
        there, log = Path(out).read_text().splitlines(), Path(err).read_text()
    if run.returncode or len(there) != len(names) or not log.startswith(f"mgmboost from {src}"):
        raise SystemExit(f"the digest of {rev} failed:\n{log}")
    differ = 0
    for name, a, b in zip(names, there, here):
        fields = ("kernel",) if name.startswith("kernel/") else FIELDS
        moved = [f for f, x, y in zip(fields, a.split()[1:], b.split()[1:]) if x != y]
        if moved:
            differ += 1
            print(f"{name}: {', '.join(moved)} differ", flush=True)
    print(f"{differ} of {len(names)} cases differ from {rev}")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", help="case names to run (default: all)")
    parser.add_argument("--against", metavar="REV",
                        help="compare each case with its line on the src/ of git revision "
                             "REV; exit 1 if any differs")
    args = parser.parse_args(argv)
    names = args.cases or list(case_names())
    unknown = sorted(set(names) - set(case_names()))
    if unknown:
        parser.error(f"unknown case {unknown[0]!r}")
    print(f"mgmboost from {mgmboost.__file__}", file=sys.stderr)
    if args.against:
        return int(against(args.against, args.cases) > 0)
    for name in names:
        print(digest_line(name), flush=True)
    runs = {_run(name)[0] for name in names if not name.startswith("kernel/")}
    computed = sum(_boosted(*run)[4] for run in runs)
    print(f"{len(names)} lines; {len(runs)} boosted runs computed {computed} kernel sums",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
