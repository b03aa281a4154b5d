"""The output digest script ``tools/digest.py``: a case prints the same
line on every run, so a difference between two source trees is a
difference in their outputs (third field) or in the kernel sums they
computed (fourth), and a kernel case's line moves with any bit of the
edge kernel (second field). Its stderr totals the kernel sums of each
boosted run once. ``--against REV`` finds no difference between a tree
and itself, names each case a changed tree moves, and totals the kernel
sums of both trees."""

import importlib.util
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from mgmboost import AffinitySet

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
CASES = ["len_angle_N5_n14/seed=1/mode=isb_2nd/elicit=affinity/rate=0.6/gamma=0.3",
         "graphs_N8_n6/seed=2/mode=isb_gc_p/elicit=consistency/rate=1.0/gamma=0.3"]


def _load():
    """A fresh copy of the script, with empty caches."""
    spec = importlib.util.spec_from_file_location("digest_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_cases_print_the_same_lines_twice(capsys):
    runs = []
    for _ in range(2):
        _load().main(CASES)
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[:2] for line in runs[0]] == [[CASES[0], "consistency_mst"],
                                                      [CASES[1], "spectral"]]
    # the outputs' digest, then the digest of the sums computed
    assert all(len(line.split()) == 4 for line in runs[0])
    assert all(len(digest) == 64 for line in runs[0] for digest in line.split()[2:])


def test_every_case_name_is_distinct_and_unknown_ones_rejected(capsys):
    module = _load()
    names = list(module.case_names())
    assert len(names) == len(set(names)) == 1785
    assert sum(name.startswith("kernel/") for name in names) == 21
    assert set(CASES) <= set(names)
    with pytest.raises(SystemExit) as exc:
        module.main(["graphs_N8_n6/seed=9"])
    assert exc.value.code == 2
    assert "unknown case 'graphs_N8_n6/seed=9'" in capsys.readouterr().err


def test_sums_computed_move_only_the_fourth_field():
    lines = []
    for scale in (1, 2):
        module = _load()
        boost = module.run_boost

        def scaled(cfg0, kset, params, scale=scale):
            cfg, trace = boost(cfg0, kset, params)
            trace.scored = [c * scale for c in trace.scored]
            return cfg, trace

        module.run_boost = scaled
        lines.append(module.digest_line(CASES[0]).split())
    assert lines[0][:3] == lines[1][:3] and lines[0][3] != lines[1][3]


def test_stderr_totals_the_sums_of_each_boosted_run_once(capsys):
    twin = CASES[1].replace("gamma=0.3", "gamma=0.95")    # the same boosted run
    totals = []
    for scale in (1, 2):
        module = _load()
        boost = module.run_boost

        def scaled(cfg0, kset, params, scale=scale):
            cfg, trace = boost(cfg0, kset, params)
            trace.scored = [c * scale for c in trace.scored]
            return cfg, trace

        module.run_boost = scaled
        module.main([*CASES, twin])
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(r"3 lines; 2 boosted runs computed \d+ kernel sums", last)
        totals.append(int(last.split()[-3]))
    assert totals[1] == 2 * totals[0] > 0


def test_kernel_case_moves_with_one_bit_of_the_kernel(monkeypatch):
    case = "kernel/len_angle_N5_n14/seed=2"
    lines = [_load().digest_line(case) for _ in range(2)]
    assert lines[0] == lines[1]
    name, digest = lines[0].split()
    assert name == case and len(digest) == 64
    kernel = AffinitySet._kernel
    monkeypatch.setattr(AffinitySet, "_kernel",
                        lambda self, own, other: np.nextafter(kernel(self, own, other), 2.0))
    assert _load().digest_line(case) != lines[0]


# appended to the second commit's package: every kernel value one ulp up
NUDGE = """
import numpy as _np
from .core import AffinitySet as _AffinitySet
_kernel = _AffinitySet._kernel
_AffinitySet._kernel = lambda self, own, other: _np.nextafter(_kernel(self, own, other), 2.0)
"""


def _repository(path):
    """A git repository at ``path`` whose one commit holds this tree's
    src/; returns the git command prefix that works in it."""
    shutil.copytree(SCRIPT.parents[1] / "src", path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(path), "-c", "user.name=digest", "-c",
           "user.email=digest@localhost", "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "src"], check=True)
    subprocess.run(git + ["commit", "-qm", "tree"], check=True)
    return git


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_against_a_revision_names_each_differing_case(tmp_path, capsys):
    # a repository whose first commit holds this tree's src/ and whose
    # second nudges the edge kernel
    git = _repository(tmp_path)
    with open(tmp_path / "src" / "mgmboost" / "__init__.py", "a") as f:
        f.write(NUDGE)
    subprocess.run(git + ["commit", "-qam", "nudged"], check=True)
    module = _load()
    module.ROOT = tmp_path
    kernel = "kernel/graphs_N8_n6/seed=1"
    assert module.main(["--against", "HEAD~1", kernel, CASES[1]]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 2 cases differ from HEAD~1"]
    assert module.main(["--against", "HEAD", kernel, CASES[1]]) == 1
    # the scores move with the kernel; the route and the sums computed do not
    assert capsys.readouterr().out.splitlines() == [f"{kernel}: kernel differ",
                                                    f"{CASES[1]}: outputs differ",
                                                    "2 of 2 cases differ from HEAD"]
    with pytest.raises(SystemExit, match="git archive nosuchrev failed"):
        module.main(["--against", "nosuchrev", kernel])


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_against_a_revision_totals_the_sums_of_both_trees(tmp_path, capsys):
    # this process computes twice the revision's sums
    _repository(tmp_path)
    module = _load()
    module.ROOT = tmp_path
    boost = module.run_boost

    def doubled(cfg0, kset, params):
        cfg, trace = boost(cfg0, kset, params)
        trace.scored = [2 * c for c in trace.scored]
        return cfg, trace

    module.run_boost = doubled
    assert module.main(["--against", "HEAD", *CASES]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "2 of 2 cases differ from HEAD"
    last = re.fullmatch(r"2 lines; 2 boosted runs computed (\d+) kernel sums here, (\d+) at HEAD",
                        err.splitlines()[-1])
    assert last and int(last.group(1)) == 2 * int(last.group(2)) > 0
