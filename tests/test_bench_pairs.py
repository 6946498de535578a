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
                workloads=("w",), record: Path | None = None):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--pairs",
         str(pairs), "--seconds", "1", "--first-seed", "10"]
        + [arg for w in workloads for arg in ("--workload", w)]
        + (["--record", str(record)] if record else []),
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


# --record ---------------------------------------------------------------

def test_the_record_holds_every_run_and_the_printed_table(tmp_path):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0)
    plain = bench_pairs(parent, change, pairs=2, workloads=("a", "b"))
    record = tmp_path / "BENCH.json"
    proc = bench_pairs(parent, change, pairs=2, workloads=("a", "b"),
                       record=record)
    # Recording leaves the output and the exit code as they were.
    assert (proc.returncode, proc.stdout) == (plain.returncode, plain.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rec = json.loads(record.read_text())
    assert rec["arguments"] == {
        "parent": str(parent), "change": str(change),
        "workload": ["a", "b"], "pairs": 2, "seconds": 1.0,
        "first_seed": 10, "record": str(record)}
    # Stand-ins: no git work tree, no bytecode, no machine line.
    assert rec["checkouts"] == {side: {"commit": None,
                                       "bytecode_cache": False}
                                for side in ("parent", "change")}
    assert [(r["workload"], r["seed"], r["side"], r["order"])
            for r in rec["runs"]] == [
        ("a", 10, "parent", 1), ("a", 10, "change", 2),
        ("a", 11, "change", 1), ("a", 11, "parent", 2),
        ("b", 12, "parent", 1), ("b", 12, "change", 2),
        ("b", 13, "change", 1), ("b", 13, "parent", 2)]
    for run in rec["runs"]:
        rss = ((120.0 if run["side"] == "parent" else 117.0)
               + run["seed"] % 10 / 10)
        assert run["machine"] is None
        assert (run["correct"], run["attempted"], run["failed"]) == (
            True, 1, 0)
        assert run["metrics"] == {
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "train_samples_per_s": {"value": 6000.0, "unit": "1/s"}}
    # The summary is the printed table, number for number.
    assert list(rec["summary"]) == ["a", "b"]
    rows = rec["summary"]["a"] + rec["summary"]["b"]
    printed = [row(proc.stdout, r["metric"]) for r in rows[:2]]
    printed += [line for line in proc.stdout.split("\nb: ")[1].splitlines()
                if line.startswith(("peak_rss_mb ", "train_samples_per_s "))]
    assert len(printed) == 4
    for r, line in zip(rows, printed):
        cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                 for q in (r["parent"], r["change"])]
        assert line.split() == ([r["metric"]] + " ".join(cells).split()
                                + [f"{r['ratio']:.4f}",
                                   f"{r['wins']}/{r['pairs']}"]
                                + ([r["verdict"]] if r["verdict"] else []))
    assert [r["verdict"] for r in rows] == ["gain", "", "gain", ""]


def test_the_record_keeps_the_machine_line_and_the_commit(tmp_path):
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
           "-c", "init.defaultBranch=main"]
    parent = checkout(tmp_path / "parent", 120.0)
    try:
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "x"]):
            subprocess.run(git + cmd, cwd=parent, check=True,
                           capture_output=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git cannot make a commit here")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=parent,
                          check=True, capture_output=True,
                          text=True).stdout.strip()
    change = checkout(tmp_path / "change", 117.0)
    run_py = change / "perfbench" / "run.py"
    run_py.write_text(run_py.read_text().replace(
        'print("human-readable line")',
        'print("machine " + json.dumps({"nproc": seed}))'))
    record = tmp_path / "BENCH.json"
    proc = bench_pairs(parent, change, pairs=2, record=record)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rec = json.loads(record.read_text())
    assert rec["checkouts"]["parent"]["commit"] == head
    assert rec["checkouts"]["change"]["commit"] is None
    assert [(r["side"], r["machine"]) for r in rec["runs"]] == [
        ("parent", None), ("change", {"nproc": 10}),
        ("change", {"nproc": 11}), ("parent", None)]


@pytest.mark.parametrize("case", ["failed-run", "other-metrics",
                                  "one-cache", "record-exists",
                                  "no-directory"])
def test_no_record_is_written_unless_the_tool_exits_zero(tmp_path, case):
    parent = checkout(tmp_path / "parent", 120.0)
    change = checkout(tmp_path / "change", 117.0,
                      correct=case != "failed-run")
    record = tmp_path / "BENCH.json"
    if case == "other-metrics":
        (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    elif case == "one-cache":
        pycache = change / "src" / "assoclearn" / "__pycache__"
        pycache.mkdir(parents=True)
        (pycache / "train.cpython-312.pyc").write_bytes(b"")
    elif case == "record-exists":
        record.write_text("old")
    elif case == "no-directory":
        record = tmp_path / "missing" / "BENCH.json"
    proc = bench_pairs(parent, change, pairs=1, record=record)
    assert proc.returncode == (1 if case == "failed-run" else 2)
    if case in ("record-exists", "no-directory"):
        assert "--record must name a new file" in proc.stderr
        assert not (parent / "runs.log").exists()
    assert (record.read_text() == "old" if case == "record-exists"
            else not record.exists())
