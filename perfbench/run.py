"""End-to-end and per-layer benchmark of mgmboost.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense_many --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 35        # every workload, one process each
    python3 perfbench/run.py --smoke                      # tiny N, one trial per workload

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs every trial twice, untraced and traced, checks
that both give the same outputs, and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for
the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread, pinned before numpy is first imported: with two
# threads, the first eigh of a process sometimes stalls for about a
# second (see NOTES.md). One is at most nproc on every machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "match_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "accuracy": "ratio",
    "score": "ratio",
    "consistency": "ratio",
}


def _pin_blas():
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _use_checkout_sources():
    """Put the checkout's own sources first on the import path; exit with
    code 2 when the checkout holds no mgmboost sources."""
    if not os.path.isfile(os.path.join(SRC, "mgmboost", "__init__.py")):
        print(f"perfbench: no mgmboost sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def environment(warmup):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
            "warmup_trials": int(warmup)}


# Host-speed probe. The machine is shared: the same trial takes up to
# 1.8 times as long when other tenants load the host, for stretches of
# 10 to 60 seconds, and CPU time drifts with wall time, so it is cache
# and core contention, not descheduling. A probe that does not touch
# mgmboost runs before the first trial and after every trial; each
# trial's times are scaled by PROBE_REF_S over the median of the probes
# around it. A change of the program moves the trial times and not the
# probe. The probe mixes the kinds of work a trial does: Python
# bytecode, numpy calls on small arrays, and matrix-vector products
# over a few MiB of small dense matrices. PROBE_REF_S is the probe's
# median between trials on the quiet 2-core machine of NOTES.md, so
# there the scaled times equal the wall times.
PROBE_REF_S = 0.002
_PROBE_DATA = {}


def host_probe():
    """Geometric mean of the three probe loops, in seconds."""
    import numpy as np
    if not _PROBE_DATA:
        _PROBE_DATA["small"] = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
        # 128 matrices of 64 x 64, 4 MiB: counted in peak_rss_mib.
        _PROBE_DATA["stack"] = (np.arange(128, dtype=float)[:, None, None] % 7 + 1.0) \
            * np.ones((128, 64, 64)) / 64.0
    small, stack = _PROBE_DATA["small"], _PROBE_DATA["stack"]
    times = []
    tic = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    times.append(time.perf_counter() - tic)
    tic = time.perf_counter()
    b = small
    for _ in range(100):
        b = np.tanh(small @ b)
        b = b[:, np.argsort(b[0])]
    times.append(time.perf_counter() - tic)
    tic = time.perf_counter()
    v = np.ones(64)
    for _ in range(2):
        for k in stack:
            v = k @ v
            v /= v.sum()
    times.append(time.perf_counter() - tic)
    return (times[0] * times[1] * times[2]) ** (1.0 / 3.0)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def _check_fidelity(ref, traced):
    """Fail each traced operation whose untraced twin failed, or whose
    final matchings or metrics differ from the twin's."""
    for a, b in zip(ref.ops, traced.ops):
        if b.error is not None:
            continue
        if a.error is not None:
            b.error = a.error
        elif not (a.table.shape == b.table.shape and (a.table == b.table).all()
                  and (a.accuracy, a.score, a.consistency)
                  == (b.accuracy, b.score, b.consistency)):
            b.error = "traced run differs from untraced run"


def required_trials(w, traced):
    """Trials every run makes whatever its length: the scored trials, or
    half as many when each trial runs twice (traced), so that a traced
    run takes about as long as an untraced one."""
    return max(1, w.scored_trials // 2) if traced else w.scored_trials


def measure(w, seed, seconds, traced, warmup):
    """Run trials 1, 2, ... until ``seconds`` have passed and at least the
    required trials are done. Returns (refs, traced trials, tracer, ops,
    host probe times): one probe before the first trial and one after
    each."""
    from spans import NullTracer, Tracer
    from workloads import run_trial

    null, tracer = NullTracer(), Tracer()
    ops = []
    if warmup:
        ops += run_trial(w, seed, 0, null, traced=False).ops
    refs, traces, probes = [], [], [host_probe()]
    start = time.perf_counter()
    index = 1
    while index <= required_trials(w, traced) or time.perf_counter() - start < seconds:
        if traced:
            # Alternate which pass goes first, so neither gets warmer caches.
            order = (False, True) if index % 2 else (True, False)
            done = {t: run_trial(w, seed, index, tracer if t else null, traced=t)
                    for t in order}
            _check_fidelity(done[False], done[True])
            refs.append(done[False])
            traces.append(done[True])
            ops += done[True].ops
        else:
            refs.append(run_trial(w, seed, index, null, traced=False))
            ops += refs[-1].ops
        probes.append(host_probe())
        index += 1
    return refs, traces, tracer, ops, probes


# Probes on each side of a trial that set its host factor. One probe in
# about 50 takes twice as long as its neighbours (an interrupt or a
# context switch), so one probe alone would mis-scale a trial.
PROBE_WINDOW = 3


def host_factors(probes):
    """Per trial: PROBE_REF_S over the median of the PROBE_WINDOW probes
    before it and the PROBE_WINDOW probes after it. Trial k runs between
    probes k and k + 1."""
    return [PROBE_REF_S / _median(probes[max(0, k + 1 - PROBE_WINDOW):k + 1 + PROBE_WINDOW])
            for k in range(len(probes) - 1)]


def end_to_end(w, refs, factors):
    """End-to-end metrics; the times are scaled to the reference host
    speed, trial by trial."""
    ok = [(t, f) for t, f in zip(refs, factors) if t.ok]
    match = [t.match_s * f for t, f in ok]
    scored = [op for t in refs[:w.scored_trials] for op in t.ops if op.error is None]
    values = {
        "setup_s": _median([t.setup_s * f for t, f in ok]),
        "match_s": _median(match),
        "pairs_per_s": (len(ok) * w.n_pairs * len(w.algorithms) / sum(match)
                        if ok else float("nan")),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": _mean([op.accuracy for op in scored]),
        "score": _mean([op.score for op in scored]),
        "consistency": _mean([op.consistency for op in scored]),
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def per_layer(w, refs, traces, tracer):
    """Per-layer metrics from the traced trials, and whether every
    trial's self times plus remainder add up to its wall time."""
    from spans import TRIAL
    from workloads import COUNTS, LAYER_SPANS, ROUTES

    self_times, walls = [], []
    for t in traces:
        st = tracer.self_times(t.index)
        (wall,) = tracer.durations(t.index, TRIAL)
        self_times.append(st)
        walls.append(wall)
    sums_ok = all(abs(sum(st.values()) - wall) <= 1e-6 * max(1.0, wall)
                  for st, wall in zip(self_times, walls))

    out = {f"{name}_s": (_median([st.get(name, 0.0) for st in self_times]), "s")
           for name in LAYER_SPANS}
    scored = traces[:required_trials(w, True)]
    for name in COUNTS:
        out[name] = (sum(t.counts[name] for t in scored), "count")
    for route in ROUTES:
        out[f"boost.route.{route}"] = (sum(t.route.count(route) for t in scored), "count")
    out["boost.sweep_s"] = (_median([s for t in traces for s in t.sweep_s]), "s")
    out["core.affinity_mib"] = (_median([t.affinity_bytes / 2**20 for t in traces]), "MiB")
    out["trace.remainder_s"] = (_median([st.get(TRIAL, 0.0) for st in self_times]), "s")
    out["trace.trial_s"] = (_median(walls), "s")
    traced_match = _median([t.match_s for t in traces if t.ok])
    untraced_match = _median([t.match_s for t in refs if t.ok])
    out["trace.match_s"] = (traced_match, "s")
    out["trace.overhead_s"] = (traced_match - untraced_match, "s")
    out["trace.trials"] = (len(traces), "count")
    return out, sums_ok


def _number(v):
    return v if isinstance(v, int) or v == v else None   # NaN is not JSON


def report(metrics, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": _number(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_one(args):
    from workloads import WORKLOADS, smoke

    w = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.smoke:
        w, seconds = smoke(w), 0.0
    env = environment(warmup=not args.smoke)
    print("env " + json.dumps(env))
    print(f"workload {w.name}: N={w.synth.n_graphs} n={w.synth.n_nodes} "
          f"algorithms={','.join(a for a, _ in w.algorithms)} seed={args.seed} "
          f"seconds={seconds} trace={args.trace}")
    refs, traces, tracer, ops, probes = measure(w, args.seed, seconds, bool(args.trace),
                                                warmup=env["warmup_trials"] > 0)
    env["host_probe_ms"] = _median(probes) * 1000.0
    print(f"host probe {env['host_probe_ms']:.3f} ms (median of {len(probes)}, "
          f"reference {PROBE_REF_S * 1000.0:.3f} ms)")
    failed = sum(op.error is not None for op in ops)
    for op in ops:
        if op.error is not None:
            print(f"failed {op.label}: {op.error}")
    print(f"trials {len(refs)}, operations {len(ops)} (warm-up included), failed {failed}")
    if args.trace:
        metrics, sums_ok = per_layer(w, refs, traces, tracer)
        if not sums_ok:
            print("layer self times plus remainder do not sum to the trial wall time")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.json")
        tracer.dump(path, {"workload": w.name, "seed": args.seed, "env": env,
                           "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        correct = failed == 0 and sums_ok
    else:
        ok = [t for t in refs if t.ok]
        print(f"raw wall times: setup_s {_median([t.setup_s for t in ok]):.6g} "
              f"match_s {_median([t.match_s for t in ok]):.6g}")
        metrics = end_to_end(w, refs, host_factors(probes))
        correct = failed == 0
    report(metrics, correct, len(ops), failed)
    return 0


def run_all(args, names):
    """Each workload in its own process; a table of every metric, then
    one JSON line whose metric names carry the workload as a prefix."""
    merged, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}")
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, entry in res["metrics"].items():
            value = float("nan") if entry["value"] is None else entry["value"]
            merged[f"{name}.{metric}"] = (value, entry["unit"])
    print("all workloads:")
    report(merged, correct, attempted, failed)
    return 0


def main(argv=None):
    _pin_blas()
    _use_checkout_sources()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload in this process (default: each in its own)")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="measure for at least this long, after the warm-up trial")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run with per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="four graphs, one trial, no warm-up")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
