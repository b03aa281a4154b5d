"""Smoke test of the benchmark: every workload at four graphs and one
trial, untraced and traced, plus the refusal to run without sources."""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 600


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_reports_every_metric_without_failures():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(ROOT, "--smoke", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True
        assert res["failed"] == 0
        assert res["attempted"] >= len(names)
        expected = {f"{w}.{m['name']}": m["unit"] for w in names for m in spec[kind]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "dense_many", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
