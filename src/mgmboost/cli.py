"""Command-line interface: generate synthetic datasets, match one
dataset with a chosen algorithm, or run a benchmark grid to CSV."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .bench import (GENERATORS, ExperimentSpec, accuracy, emit_csv, emit_plotdata,
                    inlier_rows_from_instances, make_instances, run_experiment)
from .boost import MODES, BoostParams, run_boost
from .consistency import InlierEstimate, overall_consistency
from .core import ScoreNormalizer, total_score
from .synthgen import (AFFINITY_KINDS, SynthParams, build_affinity_set, init_config,
                       load_instances, load_pointset, save_instances, truth_config)


def _add_synth_flags(p):
    p.add_argument("--generator", choices=GENERATORS, default="random_graph")
    p.add_argument("--file", help="point-set file (generator=file)")
    p.add_argument("--n-graphs", type=int, default=10)
    p.add_argument("--inliers", type=int, default=8)
    p.add_argument("--outliers", type=int, default=SynthParams.outliers)
    p.add_argument("--deform", type=float, default=SynthParams.deform)
    p.add_argument("--density", type=float, default=SynthParams.density)
    p.add_argument("--coverage", type=float, default=SynthParams.coverage)
    p.add_argument("--sigma2", type=float, default=SynthParams.sigma2)
    p.add_argument("--affinity", choices=AFFINITY_KINDS, default=None,
                   help="default: gauss, or len_angle for coordinate data")
    p.add_argument("--beta-w", type=float, default=0.9,
                   help="length/angle kernel weight (len_angle affinity)")
    p.add_argument("--seed", type=int, default=SynthParams.seed)


def _add_boost_flags(p):
    p.add_argument("--mode", choices=MODES, default=BoostParams.mode)
    p.add_argument("--t0", type=int, default=BoostParams.t0)
    p.add_argument("--t-max", type=int, default=BoostParams.t_max)
    p.add_argument("--lambda0", type=float, default=BoostParams.lambda0)
    p.add_argument("--beta", type=float, default=BoostParams.beta)
    p.add_argument("--gamma", type=float, default=BoostParams.gamma)
    p.add_argument("--sample-rate", type=float, default=BoostParams.sample_rate)
    p.add_argument("--elicit", choices=("none", "cst", "afy"), default="none",
                   help="inlier eliciting: consistency- or affinity-ranked masks")
    p.add_argument("--n-est", type=int, default=None,
                   help="assumed common inlier count for eliciting")
    p.add_argument("--no-final-consistency", action="store_true",
                   help="skip the full-consistency post-processing step")


def _synth_params(args):
    return SynthParams(n_graphs=args.n_graphs, inliers=args.inliers,
                       outliers=args.outliers, deform=args.deform,
                       density=args.density, sigma2=args.sigma2,
                       coverage=args.coverage, seed=args.seed)


def _instances(args):
    if args.generator == "file" and not args.file:
        raise ValueError("--file is required with --generator file")
    return make_instances(args.generator, _synth_params(args), args.file)


def _affinity_kind(args):
    if args.affinity:
        return args.affinity
    return "len_angle" if args.generator == "file" else "gauss"


def _boost_params(args):
    elicit = None
    if args.n_est is not None and args.elicit == "none":
        raise ValueError("--n-est needs --elicit")
    if args.elicit != "none":
        if args.n_est is None:
            raise ValueError("--elicit needs --n-est")
        elicit = InlierEstimate(args.n_est,
                                "consistency" if args.elicit == "cst" else "affinity")
    return BoostParams(mode=args.mode, t0=args.t0, t_max=args.t_max,
                       lambda0=args.lambda0, beta=args.beta, gamma=args.gamma,
                       sample_rate=args.sample_rate, elicit=elicit,
                       enforce_final_consistency=not args.no_final_consistency,
                       seed=args.seed)


def _cmd_gen(args):
    try:
        instances = _instances(args)
        save_instances(args.out, instances)
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))
    print(f"wrote {len(instances)} instances of {instances[0].n} nodes to {args.out}")
    return 0


def _cmd_match(args):
    try:
        if args.data:
            instances = load_instances(args.data)
        else:
            instances = _instances(args)
        kset = build_affinity_set(instances, args.sigma2, kind=_affinity_kind(args),
                                  beta_w=args.beta_w)
        cfg0 = init_config(kset, args.coverage, args.seed)
        cfg, trace = run_boost(cfg0, kset, _boost_params(args))
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))
    norm = ScoreNormalizer.from_initial(cfg0, kset)
    truth = truth_config(instances)
    rows = inlier_rows_from_instances(instances)
    print(f"algorithm      : {args.mode}")
    print(f"iterations     : {len(trace) - 1}")
    print(f"initial acc    : {accuracy(cfg0, truth, rows):.4f}")
    print(f"final acc      : {accuracy(cfg, truth, rows):.4f}")
    print(f"consistency    : {overall_consistency(cfg):.4f}")
    print(f"norm. score    : {total_score(cfg, kset) / norm.value:.4f}")
    if args.out:
        try:
            with open(args.out, "wb") as fh:    # np.savez would append .npz to a path
                np.savez(fh, **{f"pair_{i}_{j}": x.perm for i, j, x in cfg.pairs()})
        except OSError as exc:
            args.parser.error(str(exc))
        print(f"wrote matching to {args.out}")
    return 0


def _parse_algorithms(spec_text, template):
    """Comma list of modes, or 'init' for the untouched initial
    configuration; each entry becomes (name, BoostParams). ExperimentSpec
    rejects a repeated entry."""
    algs = []
    for name in spec_text.split(","):
        name = name.strip()
        if not name:
            continue
        if name == "init":
            algs.append((name, BoostParams(mode="isb", t_max=0,
                                           enforce_final_consistency=False)))
        elif name in MODES:
            algs.append((name, replace(template, mode=name)))
        else:
            raise ValueError(f"unknown algorithm {name!r}")
    return tuple(algs)


def _cmd_bench(args):
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError as exc:
        args.parser.error(f"--values {args.values!r}: {exc}")
    trials = args.trials if args.trials is not None else \
        (20 if args.generator == "file" else 50)
    try:
        template = _boost_params(args)
        spec = ExperimentSpec(generator=args.generator, base=_synth_params(args),
                              sweep_param=args.sweep, sweep_values=values,
                              algorithms=_parse_algorithms(args.algorithms, template),
                              trials=trials, seed_base=args.seed,
                              affinity=_affinity_kind(args), beta_w=args.beta_w,
                              file_path=args.file)
        # bad files fail here, not once per trial or after the whole grid;
        # so does a swept value needing more points or frames than the file holds
        if args.generator == "file":
            grid = [spec.value_params(v) for v in values]
            most = max(grid, key=lambda p: p.n_nodes)
            load_pointset(args.file, n_inliers=most.inliers, n_outliers=most.outliers,
                          max_frames=max(p.n_graphs for p in grid))
        open(args.out, "a").close()
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))
    rows = run_experiment(spec, workers=args.workers)
    try:
        emit_csv(rows, args.out)
        print(f"wrote {len(rows)} result rows to {args.out}")
        if args.plot_prefix:
            for path in emit_plotdata(rows, args.plot_prefix):
                print(f"wrote plot series {path}")
    except OSError as exc:
        args.parser.error(str(exc))
    return 0


def _worker_count(text):
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mgmboost",
        description="Multi-graph matching via iterative score boosting with "
                    "graduated consistency regularization.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_synth_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="output .npz path")
    p_gen.set_defaults(func=_cmd_gen, parser=p_gen)

    p_match = sub.add_parser("match", help="match one dataset and print a summary")
    _add_synth_flags(p_match)
    _add_boost_flags(p_match)
    p_match.add_argument("--data", help="instances .npz produced by gen "
                                        "(otherwise generated on the fly)")
    p_match.add_argument("--out", help="optional .npz for the final matchings")
    p_match.set_defaults(func=_cmd_match, parser=p_match)

    p_bench = sub.add_parser("bench", help="run an experiment grid to CSV")
    _add_synth_flags(p_bench)
    _add_boost_flags(p_bench)
    p_bench.add_argument("--sweep", required=True,
                         help="swept parameter (a SynthParams field name)")
    p_bench.add_argument("--values", required=True, help="comma list of swept values")
    p_bench.add_argument("--algorithms", default="init,isb,isb_gc",
                         help="comma list of modes (plus 'init')")
    p_bench.add_argument("--trials", type=int, default=None,
                         help="repetitions per swept value "
                              "(default 50 synthetic, 20 file-based)")
    p_bench.add_argument("--workers", type=_worker_count, default=1,
                         help="parallel trial processes")
    p_bench.add_argument("--out", required=True, help="results CSV path")
    p_bench.add_argument("--plot-prefix", help="also write per-algorithm series files")
    p_bench.set_defaults(func=_cmd_bench, parser=p_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
