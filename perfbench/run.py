"""Training benchmark for assoclearn on real compute.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deskmlp-seq --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it trains half the time untraced and half with span wrappers installed,
and reports the per-layer metrics. The program is imported from
``src/`` of the checkout and nothing else; the environment, BLAS thread
variables included, is left as found and recorded in the machine block.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_inputs  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def import_program():
    """Import assoclearn from this checkout's src/, never from elsewhere."""
    pkg = SRC / "assoclearn"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {pkg}")
    sys.path.insert(0, str(SRC))
    import assoclearn

    if Path(assoclearn.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported assoclearn from "
                         f"{assoclearn.__file__}, not from {pkg}")


def probe(job: str, workload: str, seed: int) -> str:
    """stdout of one probe.py job, run in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), job, str(SRC), workload,
           str(seed)]
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def report(metrics: dict) -> dict:
    out = {}
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit:6s} ({note})")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    import measure
    import tracing

    wl = WORKLOADS[args.workload]
    machine = measure.machine_block()
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {wl.name} mode {wl.mode} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    inputs = make_inputs(wl, args.seed)
    inputs_rss_mb = measure.peak_rss_mb()
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    ckpt_dir = OUT / f"ckpt-{tag}-{os.getpid()}"
    ckpt_dir.mkdir()
    try:
        # Apart, so that the checks' memory is not in peak_rss_mb.
        problems = json.loads(probe("checks", wl.name, args.seed))
        if args.trace:
            untraced = measure.run_phase(wl, inputs, args.seconds / 2,
                                         ckpt_dir)
            recorder = tracing.SpanRecorder()
            installed = tracing.install(recorder)
            try:
                phase = measure.run_phase(wl, inputs, args.seconds / 2,
                                          ckpt_dir, recorder)
            finally:
                tracing.uninstall(installed)
            spans = recorder.spans()
            tracing.save(spans, OUT / f"spans-{tag}.npz")
            metrics = measure.per_layer(untraced, phase,
                                        tracing.summarize(spans), spans.counts)
            if wl.mode == "al-pipe":
                problems += measure.busy_share_problems(metrics)
            phases = (untraced, phase)
        else:
            samples = [float(probe("setup", wl.name, inputs.init_seeds[0]))
                       for _ in range(SETUP_REPEATS)]
            phase = measure.run_phase(wl, inputs, args.seconds, ckpt_dir)
            metrics = measure.end_to_end(wl, phase, samples, inputs_rss_mb)
            phases = (phase,)
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)
    for ph in phases:
        problems += ph.errors + measure.round_problems(ph)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    values = report(metrics)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": values}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"machine": machine, "workload": wl.name,
                   "seed": args.seed, "seconds": args.seconds,
                   "problems": problems, **result,
                   "epochs": [[dataclasses.asdict(e) for e in ph.epochs]
                              for ph in phases]}, fh, indent=2)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
