"""tools/bench_pairs.py on two stand-in checkouts whose perfbench/run.py
prints a fixed result line, so the pairing and the verdicts are exact."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPECS = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower",
          "bound": 0.25},
         {"name": "train_samples_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25}]
# Prints one result line; its peak_rss_mb is RSS + the seed's last digit
# / 10. It appends its seed to runs.log beside the checkout, and its
# workload and seed to workloads.log.
RUN_PY = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
workload = sys.argv[sys.argv.index("--workload") + 1]
with open("runs.log", "a") as fh:
    fh.write(f"{seed}\\n")
with open("workloads.log", "a") as fh:
    fh.write(f"{workload} {seed}\\n")
print("human-readable line")
print(json.dumps({"correct": CORRECT, "attempted": 1, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": RSS + seed % 10 / 10,
                                              "unit": "MB"},
                              "train_samples_per_s": {"value": 6000.0,
                                                      "unit": "1/s"}}}))
"""


def checkout(root: Path, rss: float, correct: bool = True) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        RUN_PY.replace("RSS", repr(rss)).replace("CORRECT", repr(correct)))
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}))
    return root


def bench_pairs(parent: Path, change: Path, pairs: int = 4,
                workloads=("w",)):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--pairs",
         str(pairs), "--seconds", "1", "--first-seed", "10"]
        + [arg for w in workloads for arg in ("--workload", w)],
        capture_output=True, text=True, check=False)


def row(stdout: str, metric: str) -> str:
    return next(line for line in stdout.splitlines()
                if line.startswith(metric + " "))


def test_interleaved_pairs_and_verdicts(tmp_path):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0)
    proc = bench_pairs(parent, change)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Every seed in both checkouts, the first side alternating by pair.
    assert (parent / "runs.log").read_text().split() == ["10", "11", "12",
                                                         "13"]
    sides = [line.split()[2] for line in proc.stdout.splitlines()
             if line.startswith("seed ")]
    assert sides == ["parent", "change", "change", "parent"] * 2
    rss = row(proc.stdout, "peak_rss_mb")
    assert "120.15 [120.075, 120.225]" in rss
    assert "117.15 [117.075, 117.225]" in rss
    assert rss.split()[-2:] == ["4/4", "gain"]
    assert row(proc.stdout, "train_samples_per_s").split()[-1] == "0/4"


def test_repeated_workloads_run_in_turn_on_fresh_seeds(tmp_path):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0)
    proc = bench_pairs(parent, change, pairs=2, workloads=("a", "b"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for root in (parent, change):
        assert (root / "workloads.log").read_text().splitlines() == [
            "a 10", "a 11", "b 12", "b 13"]
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith(("a:", "b:"))] == [
        "a: 2 pairs at --seconds 1, seeds 10..11",
        "b: 2 pairs at --seconds 1, seeds 12..13"]
    rss = [line for line in lines if line.startswith("peak_rss_mb ")]
    assert "120.05 [120.025, 120.075]" in rss[0]
    assert "120.25 [120.225, 120.275]" in rss[1]
    assert [row.split()[-2:] for row in rss] == [["2/2", "gain"]] * 2


def test_a_failed_run_in_any_workload_makes_the_exit_code_one(tmp_path):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0)
    (change / "perfbench" / "run.py").write_text(
        (change / "perfbench" / "run.py").read_text().replace(
            '"correct": True', '"correct": workload != "b"'))
    proc = bench_pairs(parent, change, pairs=1, workloads=("a", "b"))
    assert proc.returncode == 1
    assert [line for line in proc.stdout.splitlines()
            if line.startswith(("a:", "b:"))] == [
        "a: 1 pairs at --seconds 1, seeds 10..10",
        "b: 1 pairs at --seconds 1, seeds 11..11"]
    assert "1 run(s) read correct: false or gave no result" in proc.stdout


def test_a_worse_change_is_named(tmp_path):
    proc = bench_pairs(checkout(tmp_path / "parent", 100.0),
                       checkout(tmp_path / "change", 130.0), pairs=2)
    assert proc.returncode == 0
    assert row(proc.stdout, "peak_rss_mb").split()[-2:] == ["0/2", "worse"]


@pytest.mark.parametrize("broken", ["incorrect", "no-result"])
def test_a_failed_run_makes_the_exit_code_one(tmp_path, broken):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0, correct=False)
    if broken == "no-result":
        (change / "perfbench" / "run.py").write_text("raise SystemExit(3)")
    proc = bench_pairs(parent, change, pairs=1)
    assert proc.returncode == 1
    assert "correct=False" in proc.stdout
    assert "1 run(s) read correct: false or gave no result" in proc.stdout


def test_checkouts_with_other_metrics_are_refused(tmp_path):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0)
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    proc = bench_pairs(parent, change, pairs=1)
    assert proc.returncode == 2
    assert "different end-to-end metrics" in proc.stderr
    assert not (parent / "runs.log").exists()


@pytest.mark.parametrize("cached", [("change",), ("parent", "change")])
def test_a_bytecode_cache_on_one_side_only_is_refused(tmp_path, cached):
    roots = {side: checkout(tmp_path / side, 120.0)
             for side in ("parent", "change")}
    for side in cached:
        pycache = roots[side] / "src" / "assoclearn" / "__pycache__"
        pycache.mkdir(parents=True)
        (pycache / "train.cpython-312.pyc").write_bytes(b"")
    proc = bench_pairs(roots["parent"], roots["change"], pairs=1)
    header = proc.stdout.splitlines()[:2]
    assert header == [f"{side}: {roots[side]}, bytecode cache "
                      f"{'present' if side in cached else 'absent'}"
                      for side in ("parent", "change")]
    if len(cached) == 1:
        assert proc.returncode == 2
        assert "only one checkout has a bytecode cache" in proc.stderr
        assert not (roots["parent"] / "runs.log").exists()
    else:
        assert proc.returncode == 0, proc.stdout + proc.stderr
