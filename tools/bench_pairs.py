"""Compare two checkouts on benchmark workloads in interleaved pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload deskmlp-seq \\
        --workload deskmlp-pipe --pairs 10 --seconds 25 --first-seed 601

``--workload`` may repeat; the workloads run in turn, each for all its
pairs. Pair i runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` in both checkouts, each from its own root so that each
imports its own ``src/``; the parent runs first in even pairs and the
change in odd ones. Seeds K count up from ``--first-seed`` across the
workloads, so no seed is used twice. One line per run shows its seed,
side and metrics. Then, per workload and for each end-to-end metric of
``BENCHMARK.json``, a table gives both sides' medians and quartiles, the
change's wins out of the pairs (ties count for neither side), the ratio
of the medians, and a verdict:

- ``gain``: the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the distance between
  the parent's quartiles;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median;
- ``unresolved``: the parent's quartiles lie further apart than that
  bound, so a difference within it cannot be told from noise;
- blank otherwise.

Direction (``better``) and bound come from CHANGE_DIR's
``BENCHMARK.json``, which must declare the same end-to-end metrics as
PARENT_DIR's. The tool reads ``perfbench/`` and ``BENCHMARK.json`` and
changes neither; the runs write their results to each checkout's
``perfbench/out/`` as usual. A run's ``setup_s`` depends on whether its
checkout has compiled bytecode (``src/assoclearn/__pycache__``): on a
2-CPU x86-64 host (Intel Xeon), deskmlp-pipe read 0.053-0.061 s with it and
0.092-0.100 s without. So the header prints each side's cache state,
and the tool refuses, before any run, two checkouts of which only one
has a cache. Exits 1 when any run reads ``correct: false`` or ends
without a result line, 2 on a usage error or that refusal, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def end_to_end(root: Path) -> list[dict]:
    """The end-to-end metric table of root's BENCHMARK.json."""
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


def has_bytecode(root: Path) -> bool:
    """Whether root's package has compiled bytecode to import."""
    return any((root / "src" / "assoclearn" / "__pycache__").glob("*.pyc"))


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced perfbench run in root, or
    {"correct": False, "metrics": {}} when the run printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (isinstance(result, dict) and "metrics" in result):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(spec: dict, parent: list[float], change: list[float],
            wins: int) -> str:
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    gained = cm - pm if spec["better"] == "higher" else pm - cm
    if 10 * wins >= 9 * len(parent) and gained > p3 - p1:
        return "gain"
    if -gained > spec["bound"] * abs(pm):
        return "worse"
    if p3 - p1 > spec["bound"] * abs(pm):
        return "unresolved"
    return ""


def summarize(specs: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One table row per end-to-end metric that every run reported."""
    rows = [f"{'metric':22s} {'parent median [q1, q3]':>34s} "
            f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s}"]
    for spec in specs:
        name = spec["name"]
        try:
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in SIDES}
        except KeyError:
            continue
        parent, change = values["parent"], values["change"]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        qs = [quartiles(side) for side in (parent, change)]
        cells = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in qs]
        pm, cm = qs[0][1], qs[1][1]
        ratio = f"{cm / pm:.4f}" if pm else "-"
        rows.append(f"{name:22s} {cells[0]:>34s} {cells[1]:>34s} "
                    f"{ratio:>7s} {wins:>3d}/{len(parent):<2d} "
                    f"{verdict(spec, parent, change, wins)}")
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of perfbench/run.py; may repeat")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds positive")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    specs = end_to_end(roots["change"])
    if end_to_end(roots["parent"]) != specs:
        p.error("the two checkouts declare different end-to-end metrics")
    cached = {side: has_bytecode(root) for side, root in roots.items()}
    for side in SIDES:
        print(f"{side}: {roots[side]}, bytecode cache "
              f"{'present' if cached[side] else 'absent'}", flush=True)
    if cached["parent"] != cached["change"]:
        p.error("only one checkout has a bytecode cache, which moves "
                "setup_s: remove src/assoclearn/__pycache__ from it or "
                "compile the other")

    failed = 0
    seed = args.first_seed
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        first = seed
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = run_once(roots[side], workload, seed, args.seconds)
                runs[side].append(result)
                failed += not result["correct"]
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items())
                print(f"seed {seed} {side:6s} correct={result['correct']} "
                      f"{values}", flush=True)
            seed += 1
        print(f"\n{workload}: {args.pairs} pairs at --seconds "
              f"{args.seconds:g}, seeds {first}..{seed - 1}")
        print("\n".join(summarize(specs, runs)) + "\n", flush=True)
    if failed:
        print(f"{failed} run(s) read correct: false or gave no result")
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
