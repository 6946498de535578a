"""Tests of the benchmark itself. Run from the checkout root with

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec, {m["name"] for m in spec["end_to_end"]}, \
        {m["name"] for m in spec["per_layer"]}


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _printed_names(stdout: str) -> set[str]:
    return {line.split()[0] for line in stdout.splitlines()
            if line.startswith("  ")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a, b = make_inputs(WORKLOADS[name], 7), make_inputs(WORKLOADS[name], 7)
    other = make_inputs(WORKLOADS[name], 8)
    for field in ("train_X", "train_y", "test_X", "test_y"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.init_seeds, a.shuffle_seeds) == (b.init_seeds, b.shuffle_seeds)
    assert len(set(a.init_seeds)) == WORKLOADS[name].models
    assert not np.array_equal(a.train_X, other.train_X)
    assert a.init_seeds != other.init_seeds


def test_workloads_match_benchmark_json():
    spec, _, _ = _declared()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    assert tracing.self_times(parent, start, end).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_recorder_builds_the_same_tree_and_summary():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    rec = tracing.SpanRecorder(clock=lambda: next(ticks))
    root = rec.open("root")
    a = rec.open("leaf")
    rec.close(a)
    b = rec.open("mid")
    c = rec.open("leaf")
    rec.close(c)
    rec.close(b)
    rec.close(root)
    spans = rec.spans()
    assert spans.parent.tolist() == [-1, 0, 0, 2]
    summary = tracing.summarize(spans)
    assert summary["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert summary["mid"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert summary["leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_install_records_and_uninstall_restores():
    import assoclearn.nn as nn

    before = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
              for owner, attr, _ in tracing._sites()]
    rec = tracing.SpanRecorder()
    installed = tracing.install(rec)
    try:
        nn.matmul(np.ones((2, 3)), np.ones((3, 4)))
        with rec.pause():
            nn.matmul(np.ones((2, 3)), np.ones((3, 4)))
    finally:
        tracing.uninstall(installed)
    for owner, attr, original in before:
        now = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        assert now is original, attr
    spans = rec.spans()
    assert tracing.summarize(spans)["linalg.matmul"]["calls"] == 1
    assert spans.counts == {"linalg.matmul.flop": 2 * 2 * 3 * 4}


def test_untraced_run_prints_declared_metrics_and_installs_nothing(
        monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    code = run.main(["--workload", "deskmlp-bp", "--seed", "3",
                     "--seconds", "0.1", "--trace", "0"])
    out = capsys.readouterr().out
    _, end_to_end, _ = _declared()
    result = _result(out)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == end_to_end
    assert _printed_names(out) == end_to_end


def test_traced_run_prints_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "deskmlp-pipe",
         "--seed", "3", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    _, _, per_layer = _declared()
    result = _result(proc.stdout)
    assert proc.returncode == 0 and result["correct"], proc.stdout
    assert set(result["metrics"]) == per_layer
    assert _printed_names(proc.stdout) == per_layer
    assert result["metrics"]["train.stage.s2.busy_share"]["value"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deskmlp-seq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
