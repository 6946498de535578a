"""Compare two checkouts on benchmark workloads in interleaved pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload deskmlp-seq \\
        --workload deskmlp-pipe --pairs 10 --seconds 25 --first-seed 601 \\
        --record pairs.json

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

``--record PATH`` also writes, on exit 0 only, one JSON file: the
arguments as given; per side, its commit (``git rev-parse HEAD`` when the
checkout is the top of a git work tree, else null) and whether it had a
bytecode cache; every run in the order run, with its workload, seed,
side, ``order`` (1 if it ran first in its pair, 2 if second), the
``machine {...}`` line perfbench printed (null if none) and its result
line; and per workload the rows of the printed table, as numbers. PATH
must be a new file in an existing directory, so no record is rewritten.
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


def commit_id(root: Path) -> str | None:
    """root's HEAD commit when root is the top of a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              check=False)
    except OSError:                 # no git
        return None
    out = proc.stdout.split()
    if proc.returncode or len(out) != 2 or Path(out[0]).resolve() != root:
        return None
    return out[1]


def run_once(root: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict | None]:
    """(result line, machine block) of one untraced perfbench run in root.
    The result is {"correct": False, "metrics": {}} when the run printed
    none, and the machine block None when it printed no machine line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("machine {")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (isinstance(result, dict) and "metrics" in result):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "metrics": {}}, machine
    return result, machine


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


def compare(specs: list[dict], runs: dict[str, list[dict]]) -> list[dict]:
    """Per end-to-end metric that every run reported: each side's
    quartiles, the ratio of the medians (None for a zero parent median),
    the change's wins out of the pairs and the verdict."""
    rows = []
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
        qs = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side])))
              for side in SIDES}
        pm, cm = qs["parent"]["median"], qs["change"]["median"]
        rows.append({"metric": name, **qs,
                     "ratio": cm / pm if pm else None,
                     "wins": wins, "pairs": len(parent),
                     "verdict": verdict(spec, parent, change, wins)})
    return rows


def summarize(rows: list[dict]) -> list[str]:
    """The printed table of compare's rows."""
    lines = [f"{'metric':22s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s}"]
    for row in rows:
        cells = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                 for q in (row["parent"], row["change"])]
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.4f}"
        lines.append(f"{row['metric']:22s} {cells[0]:>34s} {cells[1]:>34s} "
                     f"{ratio:>7s} {row['wins']:>3d}/{row['pairs']:<2d} "
                     f"{row['verdict']}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of perfbench/run.py; may repeat")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--record", type=Path,
                   help="a new JSON file to write the whole comparison to")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds positive")
    if args.record and (args.record.exists()
                        or not args.record.parent.is_dir()):
        p.error("--record must name a new file in an existing directory")
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

    record = {"arguments": {k: str(v) if isinstance(v, Path) else v
                            for k, v in vars(args).items()},
              "checkouts": {side: {"commit": commit_id(roots[side]),
                                   "bytecode_cache": cached[side]}
                            for side in SIDES},
              "runs": [], "summary": {}}
    failed = 0
    seed = args.first_seed
    for workload in args.workload:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        first = seed
        for i in range(args.pairs):
            for order, side in enumerate(
                    SIDES if i % 2 == 0 else SIDES[::-1], start=1):
                result, machine = run_once(roots[side], workload, seed,
                                           args.seconds)
                record["runs"].append({"workload": workload, "seed": seed,
                                       "side": side, "order": order,
                                       "machine": machine, **result})
                runs[side].append(result)
                failed += not result["correct"]
                values = " ".join(f"{k}={v['value']:.6g}"
                                  for k, v in result["metrics"].items())
                print(f"seed {seed} {side:6s} correct={result['correct']} "
                      f"{values}", flush=True)
            seed += 1
        rows = compare(specs, runs)
        record["summary"][workload] = rows
        print(f"\n{workload}: {args.pairs} pairs at --seconds "
              f"{args.seconds:g}, seeds {first}..{seed - 1}")
        print("\n".join(summarize(rows)) + "\n", flush=True)
    if failed:
        print(f"{failed} run(s) read correct: false or gave no result")
        return 1
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
