"""Experiment harness: accuracy metric, grid runner, CSV emission, CLI.

Property coverage:
- accuracy(cfg, cfg, .) = 1 and symmetry under simultaneous relabeling
- every algorithm in a trial consumes the identical initial configuration
- ResultRow accuracies always lie in [0, 1]
"""

import csv
import logging
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from mgmboost import (BoostParams, ExperimentSpec, MatchConfig, Permutation,
                      ResultRow, SynthParams, accuracy, emit_csv, emit_plotdata,
                      run_experiment)
from mgmboost import bench
from mgmboost.bench import CSV_HEADER, _run_trial
from mgmboost.cli import _boost_params, _synth_params, build_parser
from mgmboost.cli import main as cli_main


def _row(alg="a", value=1.0, acc=0.5):
    return ResultRow(alg, "deform", value, acc, 0.0, 0.0, 1.0, 1.0)


class TestAccuracy:
    def test_equal_configs(self, rng):
        cfg = MatchConfig.random(4, 5, rng)
        rows = [np.arange(5)] * 4
        assert accuracy(cfg, cfg, rows) == 1.0

    def test_derangement_is_zero(self):
        ident = Permutation.identity(3)
        cycle = Permutation([1, 2, 0])   # disagrees with identity in every row
        truth = MatchConfig.identity(3, 3)
        alg = MatchConfig(3, 3, {(0, 1): cycle, (0, 2): cycle, (1, 2): cycle})
        assert accuracy(alg, truth, [np.arange(3)] * 3) == 0.0

    def test_half_rows_correct(self):
        # every pair agrees on rows 0, 1 and disagrees on rows 2, 3:
        # row-count oracle gives 2/4 per pair
        ident = Permutation.identity(4)
        half = Permutation([0, 1, 3, 2])
        truth = MatchConfig.identity(3, 4)
        alg = MatchConfig(3, 4, {(0, 1): half, (0, 2): half, (1, 2): half})
        rows = [np.arange(4)] * 3
        per_pair = sum(int(half.perm[u] == ident.perm[u]) for u in range(4)) / 4
        assert per_pair == 0.5
        assert accuracy(alg, truth, rows) == 0.5

    def test_outlier_rows_ignored(self):
        ident = Permutation.identity(4)
        bad_on_outliers = Permutation([0, 1, 3, 2])
        truth = MatchConfig.identity(3, 4)
        alg = MatchConfig(3, 4, {(0, 1): bad_on_outliers, (0, 2): bad_on_outliers,
                                 (1, 2): bad_on_outliers})
        assert accuracy(alg, truth, [np.arange(2)] * 3) == 1.0

    def test_graph_without_inlier_rows_rejected(self):
        cfg = MatchConfig.identity(3, 3)
        rows = [np.arange(3), np.array([], dtype=np.int64), np.arange(3)]
        with pytest.raises(ValueError, match="graph 1 has no inlier rows"):
            accuracy(cfg, cfg, rows)

    @pytest.mark.parametrize("lists", [8, 3, 2])
    def test_one_row_list_per_graph(self, lists):
        # extra lists were ignored, and too few read as graphs without rows
        cfg = MatchConfig.identity(4, 3)
        with pytest.raises(ValueError, match=f"got {lists} inlier-row lists for 4 graphs"):
            accuracy(cfg, cfg, [np.arange(3)] * lists)

    @pytest.mark.parametrize("row", [-1, 4], ids=["negative", "past_end"])
    def test_inlier_row_out_of_range_rejected(self, row):
        # row -1 would otherwise count node 3 and report 1.0 here
        cfg = MatchConfig.identity(3, 4)
        rows = [np.arange(3), np.array([0, row]), np.arange(3)]
        with pytest.raises(ValueError, match=re.escape(
                f"graph 1: inlier row {row} out of range 0..3")):
            accuracy(cfg, cfg, rows)

    @pytest.mark.parametrize("rows, named", [
        ([[1.9]] * 4, "graph 0: inlier rows: index 1.9 is not an integer"),
        ([[0], [0], [2.5], [0]], "graph 2: inlier rows: index 2.5 is not an integer"),
        ([[True, False]] * 4, "graph 0: inlier rows: index True is a boolean"),
        ([[0], [False, True], [0], [0]], "graph 1: inlier rows: index False is a boolean"),
        ([[True, 2]] * 4, "graph 0: inlier rows: index True is a boolean"),
    ], ids=["fraction", "fraction_in_graph_2", "mask", "mask_in_graph_1", "bool_among_rows"])
    def test_fractional_or_boolean_rows_rejected(self, rows, named):
        # 1.9 was truncated to row 1, a mask read as rows 1 and 0 and [True, 2]
        # as rows 1 and 2: each gave 1.0
        cfg = MatchConfig.identity(4, 3)
        with pytest.raises(ValueError, match=re.escape(named)):
            accuracy(cfg, cfg, rows)

    def test_symmetric_under_relabeling(self, rng):
        # relabeling every graph's nodes consistently leaves accuracy fixed
        n_graphs, n = 3, 4
        alg = MatchConfig.random(n_graphs, n, rng)
        tru = MatchConfig.random(n_graphs, n, rng)
        rows = [np.arange(n)] * n_graphs
        base = accuracy(alg, tru, rows)
        relabel = [Permutation.random(n, rng) for _ in range(n_graphs)]

        def apply(cfg):
            pairs = {}
            for i, j, x in cfg.pairs():
                pairs[(i, j)] = relabel[i].inverse().compose(x).compose(relabel[j])
            return MatchConfig(n_graphs, n, pairs)

        new_rows = [relabel[i].inverse().perm[rows[i]] for i in range(n_graphs)]
        assert accuracy(apply(alg), apply(tru), new_rows) == pytest.approx(base)

    @pytest.mark.parametrize("rows", [None, 3])
    def test_inlier_rows_not_a_list_named(self, rows):
        # None met a bare "has no len()" TypeError
        cfg = MatchConfig.identity(3, 3)
        with pytest.raises(TypeError, match="inlier_rows must be a list of row lists, one per "
                                            f"graph, got {type(rows).__name__}"):
            accuracy(cfg, cfg, rows)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            accuracy(MatchConfig.identity(3, 2), MatchConfig.identity(3, 3), [])

    def test_result_row_bounds(self):
        with pytest.raises(ValueError):
            _row(acc=1.5)
        assert _row(acc=1.0).trial_mean_acc == 1.0


def _tiny_spec(trials=1, algorithms=None, **overrides):
    base = dict(n_graphs=4, inliers=4, outliers=0, deform=0.0, density=1.0,
                sigma2=0.05, coverage=1.0, seed=0)
    base.update(overrides)
    algorithms = algorithms or (
        ("init", BoostParams(mode="isb", t_max=0, enforce_final_consistency=False)),
        ("isb", BoostParams(mode="isb", t_max=3, enforce_final_consistency=False)),
        ("isb_gc", BoostParams(mode="isb_gc", t_max=3, enforce_final_consistency=False)),
    )
    return ExperimentSpec(generator="random_graph", base=SynthParams(**base),
                          sweep_param="deform", sweep_values=(0.0,),
                          algorithms=algorithms, trials=trials, seed_base=7)


class TestRunExperiment:
    def test_exact_copies_all_algorithms_perfect(self):
        rows = run_experiment(_tiny_spec())
        assert len(rows) == 3
        for r in rows:
            assert r.trial_mean_acc == 1.0

    def test_identical_initial_config_across_algorithms(self):
        # two copies of the no-op algorithm must report identical metrics,
        # which they only can when fed the identical initial configuration
        algs = (("a", BoostParams(mode="isb", t_max=0, enforce_final_consistency=False)),
                ("b", BoostParams(mode="isb", t_max=0, enforce_final_consistency=False)))
        spec = _tiny_spec(trials=3, algorithms=algs, deform=0.2, coverage=0.5)
        out = _run_trial(spec, 0, 0)
        assert out["a"][0] == out["b"][0]
        assert out["a"][2] == out["b"][2]
        assert out["a"][3] == out["b"][3]

    def test_boost_failure_drops_only_its_cell(self, monkeypatch, caplog):
        spec = replace(_tiny_spec(trials=2, deform=0.1), sweep_values=(0.0, 0.2))
        real_run_boost = bench.run_boost
        calls = []

        def flaky(cfg0, kset, params):
            calls.append(params.seed)
            if len(calls) == 8:    # cell (deform=0.2, trial 0), algorithm "isb"
                raise RuntimeError("boom")
            return real_run_boost(cfg0, kset, params)

        monkeypatch.setattr(bench, "run_boost", flaky)
        with caplog.at_level(logging.WARNING, logger="mgmboost.bench"):
            rows = run_experiment(spec)
        assert len(calls) == 12   # the failed cell still runs its other algorithms
        (record,) = [r for r in caplog.records if "aborted" in r.getMessage()]
        assert "deform=0.2" in record.getMessage()
        assert "trial 0" in record.getMessage() and "isb" in record.getMessage()
        assert record.exc_info is not None
        (counted,) = [r for r in caplog.records if "trials failed" in r.getMessage()]
        assert counted.getMessage() == "1 of 2 trials failed for deform=0.2 in algorithm isb"
        assert [(r.swept_value, r.algorithm) for r in rows] == [
            (v, a) for v in (0.0, 0.2) for a in ("init", "isb", "isb_gc")]
        monkeypatch.undo()
        full = run_experiment(spec)
        # only the failed algorithm's row at deform=0.2 loses a trial
        assert [r.trial_mean_acc for r in rows if r.algorithm != "isb" or r.swept_value == 0.0] \
            == [r.trial_mean_acc for r in full if r.algorithm != "isb" or r.swept_value == 0.0]
        survivor = _run_trial(spec, 1, 1)
        (isb,) = [r for r in rows if r.algorithm == "isb" and r.swept_value == 0.2]
        assert isb.trial_mean_acc == survivor["isb"][0]
        assert isb.acc_std == 0.0

    def test_algorithm_failing_every_trial_drops_only_its_row(self, monkeypatch, caplog):
        spec = _tiny_spec(trials=2, deform=0.1)
        real_run_boost = bench.run_boost

        def failing(cfg0, kset, params):
            if params.mode == "isb" and params.t_max:    # "isb", not "init"
                raise RuntimeError("boom")
            return real_run_boost(cfg0, kset, params)

        monkeypatch.setattr(bench, "run_boost", failing)
        with caplog.at_level(logging.WARNING, logger="mgmboost.bench"):
            rows = run_experiment(spec)
        assert [r.algorithm for r in rows] == ["init", "isb_gc"]
        assert [r.getMessage() for r in caplog.records if "failed for" in r.getMessage()] \
            == ["all trials failed for deform=0.0 in algorithm isb; row dropped"]

    def test_value_whose_trials_all_fail_is_dropped(self, monkeypatch, caplog):
        spec = replace(_tiny_spec(trials=2, deform=0.1), sweep_values=(0.0, 0.2))
        real_make_instances = bench.make_instances

        def failing(generator, params, file_path=None):
            if params.deform == 0.2:
                raise RuntimeError("boom")
            return real_make_instances(generator, params, file_path)

        monkeypatch.setattr(bench, "make_instances", failing)
        with caplog.at_level(logging.WARNING, logger="mgmboost.bench"):
            rows = run_experiment(spec)
        assert {r.swept_value for r in rows} == {0.0}
        assert [r.getMessage() for r in caplog.records if "failed for" in r.getMessage()] \
            == ["all trials failed for deform=0.2; row dropped"]

    def test_deterministic_apart_from_wall_time(self):
        spec = _tiny_spec(trials=2, deform=0.1)
        rows1 = run_experiment(spec)
        rows2 = run_experiment(spec)
        strip = lambda r: (r.algorithm, r.swept_param, r.swept_value,
                           r.trial_mean_acc, r.acc_std, r.mean_consistency,
                           r.mean_score)
        assert [strip(r) for r in rows1] == [strip(r) for r in rows2]

    def test_accuracies_in_unit_interval(self):
        spec = _tiny_spec(trials=2, deform=0.3, coverage=0.3)
        for r in run_experiment(spec):
            assert 0.0 <= r.trial_mean_acc <= 1.0

    def test_sweep_axis_applied(self):
        spec = ExperimentSpec(
            generator="random_graph",
            base=SynthParams(n_graphs=4, inliers=4, sigma2=0.05, seed=0),
            sweep_param="n_graphs", sweep_values=(3, 5),
            algorithms=(("init", BoostParams(mode="isb", t_max=0,
                                             enforce_final_consistency=False)),),
            trials=1, seed_base=1)
        rows = run_experiment(spec)
        assert [r.swept_value for r in rows] == [3.0, 5.0]

    def test_point_generator(self):
        spec = ExperimentSpec(
            generator="random_point",
            base=SynthParams(n_graphs=4, inliers=5, outliers=2, deform=0.02,
                             sigma2=0.05, seed=0),
            sweep_param="outliers", sweep_values=(2,),
            algorithms=(("isb_gc", BoostParams(mode="isb_gc", t_max=2,
                                               enforce_final_consistency=False)),),
            trials=2, seed_base=3)
        rows = run_experiment(spec)
        assert len(rows) == 1 and 0.0 <= rows[0].trial_mean_acc <= 1.0

    def test_parallel_workers_match_serial(self):
        spec = _tiny_spec(trials=3, deform=0.1)
        strip = lambda r: (r.algorithm, r.swept_value, r.trial_mean_acc, r.acc_std)
        serial = [strip(r) for r in run_experiment(spec, workers=1)]
        parallel = [strip(r) for r in run_experiment(spec, workers=2)]
        assert serial == parallel

    def test_deformation_grid_shape(self):
        # the deformation sweep produces one row per (epsilon, algorithm)
        spec = _tiny_spec(trials=1)
        spec = ExperimentSpec(generator=spec.generator, base=spec.base,
                              sweep_param="deform",
                              sweep_values=(0.08, 0.10, 0.12, 0.14, 0.16, 0.18),
                              algorithms=spec.algorithms, trials=1, seed_base=7)
        rows = run_experiment(spec)
        assert len(rows) == 6 * 3
        assert sorted({r.swept_value for r in rows}) == [0.08, 0.10, 0.12, 0.14, 0.16, 0.18]

    def test_validation(self):
        with pytest.raises(ValueError):
            _tiny_spec(trials=0)
        with pytest.raises(ValueError, match="workers must be an integer >= 1, got 0"):
            run_experiment(_tiny_spec(), workers=0)
        with pytest.raises(ValueError):
            ExperimentSpec(generator="nope", base=SynthParams(n_graphs=3, inliers=3),
                           sweep_param="deform", sweep_values=(0.1,),
                           algorithms=(("x", BoostParams()),))

    def test_repeated_algorithm_name_rejected(self):
        # results are keyed by name, so the first run's would be overwritten
        algs = (("isb", BoostParams(mode="isb", t_max=1)),
                ("isb", BoostParams(mode="isb", t_max=2)))
        with pytest.raises(ValueError, match="algorithm 'isb' is listed twice"):
            _tiny_spec(algorithms=algs)

    @pytest.mark.parametrize("entry", [("a", 3), ("a",), 3], ids=["params", "short", "bare"])
    def test_algorithm_that_is_no_pair_named(self, entry):
        # ("a", 3) met an AttributeError on 'elicit'
        with pytest.raises(TypeError, match=re.escape(
                f"algorithm {entry!r} must be a (name, BoostParams) pair")):
            _tiny_spec(algorithms=(entry,))

    def test_seed_sweep_rejected(self):
        # every trial sets its own data seed, so a swept seed cannot apply
        with pytest.raises(ValueError, match="seed cannot be swept"):
            replace(_tiny_spec(), sweep_param="seed", sweep_values=(1.0, 2.0))

    @pytest.mark.parametrize("seed_base", [1.5, -1, "7", None])
    def test_bad_seed_base_named(self, seed_base):
        # checked with the spec, not when the first trial seeds its streams
        with pytest.raises(ValueError, match=re.escape(
                f"seed_base must be an integer >= 0, got {seed_base!r}")):
            replace(_tiny_spec(), seed_base=seed_base)

    @pytest.mark.parametrize("trials", [1.5, 0, 2.0, "3", None])
    def test_bad_trials_named(self, trials):
        # a float count failed only once the first trial ran
        with pytest.raises(ValueError, match=re.escape(
                f"trials must be an integer >= 1, got {trials!r}")):
            replace(_tiny_spec(), trials=trials)

    @pytest.mark.parametrize(("affinity", "beta_w", "message"), [
        ("foo", 0.9, "affinity must be one of ('gauss', 'len_angle'), got 'foo'"),
        ("len_angle", 1.5, "beta_w must lie in [0, 1], got 1.5"),
        ("len_angle", float("nan"), "beta_w must lie in [0, 1], got nan"),
        # gauss ignores beta_w, but a value outside its range is still refused
        ("gauss", 1.5, "beta_w must lie in [0, 1], got 1.5"),
    ])
    def test_bad_affinity_named(self, affinity, beta_w, message):
        # every trial used to fail inside build_affinity_set, leaving no rows
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(_tiny_spec(), affinity=affinity, beta_w=beta_w)

    @pytest.mark.parametrize(("param", "values", "message"), [
        ("inliers", "34", "sweep_values must be a sequence of numbers, got '34'"),
        ("deform", b"0.1", "sweep_values must be a sequence of numbers, got b'0.1'"),
        ("inliers", (3, "4"), "inliers takes numbers, got '4'"),
        ("deform", (0.1, True), "deform takes numbers, got True"),
        ("deform", (None,), "deform takes numbers, got None"),
    ])
    def test_non_numeric_sweep_values_named(self, param, values, message):
        # the string "34" was once swept as the values 3 and 4
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(_tiny_spec(), sweep_param=param, sweep_values=values)

    def test_fractional_value_of_integer_field_rejected(self):
        with pytest.raises(ValueError, match="inliers takes integers, got 8.5"):
            replace(_tiny_spec(), sweep_param="inliers", sweep_values=(8, 8.5))
        assert replace(_tiny_spec(), sweep_param="inliers", sweep_values=(3.0, 5)).sweep_values


class TestEmission:
    def test_empty_rows_header_only(self, tmp_path):
        path = str(tmp_path / "out.csv")
        emit_csv([], path)
        text = open(path).read().strip()
        assert text == CSV_HEADER

    def test_single_row_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        emit_csv([_row()], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["algorithm"] == "a"
        assert float(rows[0]["trial_mean_acc"]) == 0.5
        assert rows[0]["swept_param"] == "deform"

    def test_grouped_series_files(self, tmp_path):
        rows = [_row(alg, v, 0.5) for alg in ("a1", "a2", "a3")
                for v in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert len(rows) == 15
        path = str(tmp_path / "out.csv")
        emit_csv(rows, path)
        assert len(open(path).read().strip().splitlines()) == 16
        paths = emit_plotdata(rows, str(tmp_path / "series"))
        assert len(paths) == 3
        for p in paths:
            lines = open(p).read().strip().splitlines()
            assert len(lines) == 6   # header + 5 swept values

    def test_io_error_carries_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([_row()], "/no/such/dir/out.csv")

    def test_files_byte_for_byte(self, tmp_path):
        # CRLF line ends, csv quoting, 12 significant digits, series sorted
        # by swept value, and file names with unsafe characters replaced
        rows = [ResultRow("isb_gc", "deform", 0.2, 2 / 3, 0.1, 1.5e-05, 0.875, 1.0000000000001),
                ResultRow("isb_gc", "deform", 0.1, 1.0, 0.0, 123456.789, 1.0, 0.25),
                ResultRow('isb "gc", v2', "deform", 0.1, 0.5, 1 / 7, 2e-300, 1 / 3, 12.0)]
        emit_csv(rows, str(tmp_path / "out.csv"))
        assert (tmp_path / "out.csv").read_bytes() == (
            b"algorithm,swept_param,swept_value,trial_mean_acc,acc_std,mean_time_s,"
            b"mean_consistency,mean_score\r\n"
            b"isb_gc,deform,0.2,0.666666666667,0.1,1.5e-05,0.875,1\r\n"
            b"isb_gc,deform,0.1,1,0,123456.789,1,0.25\r\n"
            b'"isb ""gc"", v2",deform,0.1,0.5,0.142857142857,2e-300,0.333333333333,12\r\n')
        paths = emit_plotdata(rows, str(tmp_path / "series"))
        assert paths == [str(tmp_path / "series_isb_gc.csv"),
                         str(tmp_path / "series_isb__gc___v2.csv")]
        header = b"swept_value,trial_mean_acc,acc_std,mean_time_s\r\n"
        assert open(paths[0], "rb").read() == (header + b"0.1,1,0,123456.789\r\n"
                                               b"0.2,0.666666666667,0.1,1.5e-05\r\n")
        assert open(paths[1], "rb").read() == header + b"0.1,0.5,0.142857142857,2e-300\r\n"

    def test_plot_io_error_carries_path(self):
        with pytest.raises(OSError, match="cannot write plot data to /no/such/dir/s_a.csv"):
            emit_plotdata([_row()], "/no/such/dir/s")


class TestCli:
    def test_gen_match_roundtrip(self, tmp_path, capsys):
        data = str(tmp_path / "data.npz")
        assert cli_main(["gen", "--n-graphs", "4", "--inliers", "5", "--seed", "3",
                         "--out", data]) == 0
        assert cli_main(["match", "--data", data, "--mode", "isb_gc",
                         "--t-max", "3", "--sigma2", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "final acc" in out

    def test_archives_go_to_the_given_paths(self, tmp_path, capsys, monkeypatch):
        # numpy would write data.npz and res.npz, while the CLI reports data and res
        monkeypatch.chdir(tmp_path)
        assert cli_main(["gen", "--n-graphs", "3", "--inliers", "4", "--out", "data"]) == 0
        assert cli_main(["match", "--data", "data", "--t-max", "1", "--out", "res"]) == 0
        out = capsys.readouterr().out
        assert "to data\n" in out and "to res\n" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "res"]
        with np.load("res") as res:
            assert sorted(res.files) == ["pair_0_1", "pair_0_2", "pair_1_2"]

    def test_bench_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "res.csv")
        assert cli_main(["bench", "--n-graphs", "4", "--inliers", "4",
                         "--sigma2", "0.05", "--sweep", "deform",
                         "--values", "0.0,0.1", "--algorithms", "init,isb",
                         "--trials", "1", "--t-max", "2", "--out", out,
                         "--plot-prefix", str(tmp_path / "plot")]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert (tmp_path / "plot_init.csv").exists()
        assert (tmp_path / "plot_isb.csv").exists()

    def test_match_with_eliciting(self, tmp_path, capsys):
        assert cli_main(["match", "--generator", "random_point", "--n-graphs", "4",
                         "--inliers", "4", "--outliers", "3", "--deform", "0.02",
                         "--sigma2", "0.05", "--mode", "isb_gc", "--t-max", "2",
                         "--elicit", "cst", "--n-est", "4",
                         "--no-final-consistency"]) == 0
        assert "algorithm" in capsys.readouterr().out

    def test_bench_bad_value_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", "--sweep", "deform", "--values", "0.1,abc",
                      "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "'abc'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-graphs", "1", "n_graphs must be an integer >= 2, got 1"),
        ("--deform", "-1", "deform must be finite and >= 0, got -1.0"),
        ("--beta-w", "5", "beta_w must lie in [0, 1], got 5.0")])
    def test_match_bad_synth_param_is_usage_error(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_gen_bad_synth_param_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["gen", "--out", str(tmp_path / "x.npz"), "--inliers", "0"])
        assert exc.value.code == 2
        assert "inliers must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()

    def test_match_without_edges_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", "--n-graphs", "3", "--inliers", "4", "--density", "0"])
        assert exc.value.code == 2
        assert ("every initial pair score is 0: no two graphs have edges with a positive "
                "kernel") in capsys.readouterr().err

    def test_match_n_est_above_node_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", "--elicit", "cst", "--n-est", "3", "--inliers", "2",
                      "--n-graphs", "3"])
        assert exc.value.code == 2
        assert "elicit.n_est=3 exceeds the node count 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (["match", "--generator", "file"], "--file is required with --generator file"),
        (["match", "--elicit", "cst"], "--elicit needs --n-est"),
        (["match", "--n-est", "2"], "--n-est needs --elicit"),
        (["bench", "--sweep", "deform", "--values", "0", "--algorithms", "isb,foo",
          "--out", "x.csv"], "unknown algorithm 'foo'"),
        (["bench", "--sweep", "deform", "--values", "0", "--algorithms", "isb,isb_gc, isb",
          "--out", "x.csv"], "algorithm 'isb' is listed twice")],
        ids=["match-no-file", "match-no-n-est", "match-no-elicit", "bench-algorithm",
             "bench-repeated-algorithm"])
    def test_argument_error_is_usage_error(self, command, message, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(command)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mgmboost {command[0]}")
        assert message in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, bad", [
        (["match", "--data", "missing.npz"], "missing.npz"),
        (["match", "--generator", "file", "--file", "missing.txt"], "missing.txt"),
        (["match", "--n-graphs", "3", "--inliers", "3", "--t-max", "1",
          "--out", "no/dir/m.npz"], "no/dir/m.npz"),
        (["gen", "--out", "no/dir/x.npz"], "no/dir/x.npz"),
        (["bench", "--generator", "file", "--file", "missing.txt",
          "--sweep", "deform", "--values", "0", "--out", "x.csv"], "missing.txt"),
        (["bench", "--sweep", "deform", "--values", "0", "--out", "no/dir/x.csv"],
         "no/dir/x.csv")],
        ids=["match-data", "match-file", "match-out", "gen-out", "bench-file", "bench-out"])
    def test_file_error_is_usage_error(self, command, bad, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the file arguments were checked")

        monkeypatch.setattr("mgmboost.cli.run_experiment", no_trials)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(command)
        assert exc.value.code == 2
        assert bad in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--sweep", "inliers", "--values", "0,4"], "inliers must be an integer >= 1, got 0"),
        (["--sweep", "deform", "--values", "0", "--inliers", "4", "--elicit", "cst",
          "--n-est", "9"],
         "algorithm 'isb': elicit.n_est=9 exceeds the node count 4 at deform=0.0"),
        (["--sweep", "deform", "--values", "0", "--workers", "-2"],
         "argument --workers: must be >= 1, got -2"),
        (["--generator", "file", "--file", "points.txt", "--sweep", "outliers",
          "--values", "0,1", "--inliers", "3"],
         "points.txt: cannot select more landmarks than annotated: "
         "3 inliers + 1 outliers of 3"),
        (["--generator", "file", "--file", "points.txt", "--sweep", "n_graphs",
          "--values", "2,10", "--inliers", "3"],
         "points.txt: 10 frames asked for, the file holds 2")],
        ids=["bad-value", "n-est", "workers", "file-points", "file-frames"])
    def test_grid_that_cannot_run_is_usage_error(self, flags, message, tmp_path, capsys,
                                                 monkeypatch):
        # each grid would run trials that all fail, or run serially
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the grid was checked")

        monkeypatch.setattr(bench, "_run_trial", no_trials)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "points.txt").write_text("2 3\n0 0\n1 0\n0 1\n0.1 0\n1 0.1\n0 1.1\n")
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench", *flags, "--out", "x.csv"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--generator", "file", "--file", "points.txt", "--n-graphs", "10",
          "--inliers", "3"], "points.txt: 10 frames asked for, the file holds 2"),
        (["--data", "partial.npz"], "partial.npz: archive lacks adjacency")],
        ids=["file-frames", "data-keys"])
    def test_match_input_that_cannot_run_is_usage_error(self, flags, message, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "points.txt").write_text("2 3\n0 0\n1 0\n0 1\n0.1 0\n1 0.1\n0 1.1\n")
        np.savez(tmp_path / "partial.npz", truth=np.array([[0, 1, 2], [0, 1, 2]]),
                 inlier_counts=np.array([3, 3]), coords=np.empty(0))
        with pytest.raises(SystemExit) as exc:
            cli_main(["match", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_match_flags_set_every_param_field(self):
        # every defaulted field of BoostParams and SynthParams has a flag;
        # a field the CLI cannot set fails here
        args = build_parser().parse_args([
            "match", "--n-graphs", "5", "--inliers", "6", "--outliers", "2",
            "--deform", "0.1", "--density", "0.9", "--coverage", "0.8",
            "--sigma2", "0.01", "--seed", "4", "--mode", "isb_cst", "--t0", "1",
            "--t-max", "3", "--lambda0", "0.5", "--beta", "1.2", "--gamma", "0.4",
            "--sample-rate", "0.5", "--elicit", "afy", "--n-est", "5",
            "--no-final-consistency"])
        for params in (_boost_params(args), _synth_params(args)):
            for f in fields(params):
                if f.default is not MISSING:
                    assert getattr(params, f.name) != f.default, f.name

    def test_match_defaults_are_the_param_defaults(self):
        # 10 graphs of 8 inliers are the CLI's own defaults; every other
        # default is read from the dataclasses
        args = build_parser().parse_args(["match"])
        assert _boost_params(args) == BoostParams()
        assert _synth_params(args) == SynthParams(n_graphs=10, inliers=8)
