"""Command-line entry point.

Subcommands: ``train`` (full runs with metrics/checkpoint artifacts),
``bench-pipeline`` (synthetic throughput comparison), ``gradcheck``
(finite differences of an nn block, of both flows of every component
with the cross-component term, and of the bp stack). Configuration
comes from an optional JSON file plus flags, flags winning; the seed is
mandatory so no run is ever wall-clock seeded.

Exit codes: 0 success, 2 configuration or data problem, 3 numeric
failure during training, 4 gradient-check threshold breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import blas
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    PlanError,
)
from .linalg import make_rng, spawn_rngs
from .al_core import (
    build_network,
    get_plan,
    gradcheck_network,
    plan_names,
)
from .bp import HEADS, build_bp_network, gradcheck_bp, match_effective_params
from .data import Dataset, load_mnist, mnist_subset, one_hot, synth_blobs, synth_xor
from .metrics import geometry_report, write_json_summary, write_metrics_csv
from .nn import grad_check_block, make_block
from .train import (MODES, PIPELINE_BLAS_THREADS, Schedule, bench_pipeline,
                    check_datasets, check_ints, check_schedule, fit)


def _mnist(cfg, data_rng) -> tuple[Dataset, Dataset]:
    return load_mnist(cfg.data_dir)


def _mnist_subset(cfg, data_rng) -> tuple[Dataset, Dataset]:
    return mnist_subset(*load_mnist(cfg.data_dir), seed=cfg.seed)


def _blobs(cfg, data_rng) -> tuple[Dataset, Dataset]:
    ds = synth_blobs(768, 8, 4, separation=8.0, rng=data_rng)
    return (Dataset(ds.X[:512], ds.y[:512], 4),
            Dataset(ds.X[512:], ds.y[512:], 4))


def _xor(cfg, data_rng) -> tuple[Dataset, Dataset]:
    ds = synth_xor()
    return ds, ds


# Per dataset: its default plan, the RunConfig settings it changes and its
# loader. The RunConfig defaults are the image recipe; the toy problems,
# far smaller, get a proportionate step size, full batches and no drops.
_DATASETS = {
    "mnist": ("desk-mlp", {}, _mnist),
    "mnist-subset": ("desk-mlp", {}, _mnist_subset),
    "blobs": ("blobs", {"lr": 1e-3, "lr_drops": []}, _blobs),
    "xor": ("xor", {"lr": 1e-3, "batch_size": 4, "lr_drops": []}, _xor),
}


@dataclass
class RunConfig:
    dataset: str
    mode: str
    seed: int
    plan: str = ""
    data_dir: str | None = None
    epochs: int = 20
    batch_size: int = 128
    lr: float = 1e-4
    lr_drops: list[int] = field(default_factory=lambda: [80, 120, 160, 180])
    lr_factor: float = 0.5
    head: str = "softmax"
    out: str = ""

    def validate(self) -> None:
        for key, choices in (("dataset", tuple(_DATASETS)), ("mode", MODES),
                             ("head", HEADS)):
            if getattr(self, key) not in choices:
                raise ConfigError(f"{key} must be one of {choices}, "
                                  f"got {getattr(self, key)!r}")
        check_ints(("seed", self.seed, 0), ("epochs", self.epochs, 0),
                   ("batch_size", self.batch_size, 1))
        check_schedule(self.lr, self.lr_drops, self.lr_factor)
        if self.dataset.startswith("mnist"):
            if not self.data_dir:
                raise ConfigError(
                    "mnist datasets need --data-dir or AL_DATA_DIR")
            if not Path(self.data_dir).is_dir():
                raise ConfigError(f"data dir does not exist: {self.data_dir}")


def _integer(v) -> int:
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError(v)
    return int(v)


def _number(v) -> float:
    if isinstance(v, bool):
        raise ValueError(v)
    return float(v)


def _string(v) -> str:
    if not isinstance(v, str):
        raise TypeError(v)
    return v


def _epoch_list(v) -> list[int]:
    """A list of integers, or the --lr-drops comma string."""
    if isinstance(v, str):
        v = v.split(",") if v.strip() else []
    return [_integer(d) for d in v]


# How a flag or config-file value becomes a RunConfig field of each type.
_COERCE = {"int": _integer, "float": _number, "list[int]": _epoch_list,
           "str": _string,
           "str | None": lambda v: v if v is None else _string(v)}


def resolve_train_config(args) -> RunConfig:
    """Defaults, then config-file values, then explicit flags; a flag
    sets the RunConfig field of the same name."""
    values: dict = {}
    if args.config:
        path = Path(args.config)
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except (OSError, ValueError) as e:     # a directory, bad bytes
            raise ConfigError(f"{path}: not a UTF-8 JSON file: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object, "
                              f"got {type(loaded).__name__}")
        values.update(loaded)
        unknown = set(values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(
                f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    values.update({k: v for k, v in vars(args).items()
                   if k in RunConfig.__dataclass_fields__ and v is not None})

    for req in ("dataset", "mode", "seed"):
        if req not in values or values[req] is None:
            raise ConfigError(f"{req} is required (flag or config file)")
    for key, val in list(values.items()):
        kind = RunConfig.__dataclass_fields__[key].type
        try:
            values[key] = _COERCE[kind](val)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} (--{key.replace('_', '-')}) must "
                              f"be {kind}, got {val!r}") from None
    if not values.get("data_dir"):
        values["data_dir"] = os.environ.get("AL_DATA_DIR") or None
    plan, defaults, _ = _DATASETS.get(values["dataset"], ("", {}, None))
    cfg = RunConfig(**{**defaults, **values})
    cfg.plan = cfg.plan or plan
    cfg.out = cfg.out or f"runs/{cfg.dataset}-{cfg.mode}-seed{cfg.seed}"
    cfg.validate()
    return cfg


def cmd_train(cfg: RunConfig) -> int:
    init_rng, shuffle_rng, data_rng = spawn_rngs(cfg.seed, 3)
    al_plan = get_plan(cfg.plan)            # refused before any data is read
    *_, load = _DATASETS[cfg.dataset]
    train_ds, test_ds = load(cfg, data_rng)

    if cfg.mode == "bp":
        model = build_bp_network(match_effective_params(al_plan), init_rng,
                                 head=cfg.head)
    else:
        model = build_network(al_plan, init_rng)
    check_datasets(model, train_ds, test_ds)

    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make the --out directory: {e}") from e
    write_json_summary(out_dir / "config.json", asdict(cfg))

    blas_threads = blas.threads()
    result = fit(model, train_ds, test_ds, mode=cfg.mode, epochs=cfg.epochs,
                 batch_size=cfg.batch_size, rng=shuffle_rng, seed=cfg.seed,
                 lr=cfg.lr, lr_drops=cfg.lr_drops, lr_factor=cfg.lr_factor,
                 out_dir=out_dir if cfg.epochs > 0 else None)

    write_metrics_csv(out_dir / "metrics.csv", result.records,
                      len(al_plan.components))
    summary = {
        "config": asdict(cfg),
        "final": asdict(result.final),
        "best_test_accuracy": result.best_test_accuracy,
        "best_epoch": result.best_epoch,
        "checkpoint": result.checkpoint_path,
        "wall_clock": result.wall_clock,
        "blas": {
            "openblas": blas_threads is not None,
            "default_threads": blas_threads,
            "pipeline_threads": (None if blas_threads is None
                                 else PIPELINE_BLAS_THREADS),
        },
    }
    if result.reports:
        summary["throughput_epochs"] = [asdict(r) for r in result.reports]
    try:
        summary["geometry"] = geometry_report(test_ds, model)
    except Exception as e:  # geometry is reporting, never a run failure
        summary["geometry"] = {"error": str(e)}
    write_json_summary(out_dir / "summary.json", summary)

    final = result.final
    print(f"run complete: mode={cfg.mode} dataset={cfg.dataset} "
          f"epochs={cfg.epochs}")
    print(f"final train accuracy: {final.train_accuracy}")
    print(f"final test accuracy: {final.test_accuracy}")
    print(f"artifacts: {out_dir}")
    return 0


def cmd_bench(args) -> int:
    n, c = args.n_batches, args.components
    seq_wall, report = bench_pipeline(n, c, args.task_cost_ms)
    payload = {
        "n_batches": n,
        "components": c,
        "sequential_tasks": Schedule(n, c).sequential_tasks(),
        "pipelined_units": report.time_units,
        "sequential_wall_clock": seq_wall,
        "pipelined_wall_clock": report.wall_clock,
        "speedup": seq_wall / report.wall_clock,
        "busy_fraction": report.busy_fraction,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"sequential tasks: {payload['sequential_tasks']}")
    print(f"pipelined units: {payload['pipelined_units']}")
    print(f"sequential wall-clock: {payload['sequential_wall_clock']:.3f}s")
    print(f"pipelined wall-clock: {payload['pipelined_wall_clock']:.3f}s")
    print(f"speedup: {payload['speedup']:.2f}")
    print("busy fractions: " +
          " ".join(f"{b:.2f}" for b in payload["busy_fraction"]))
    return 0


def cmd_gradcheck(args) -> int:
    check_ints(("--seed", args.seed, 0), ("--batch", args.batch, 1))
    rng = make_rng(args.seed)
    plan = get_plan(args.plan)
    net = build_network(plan, rng)
    x = rng.random((args.batch, plan.input_dim))
    labels = rng.integers(0, plan.target_dim, size=args.batch)
    y1 = one_hot(labels, plan.target_dim)

    rows: list[tuple[str, float, float]] = []  # (label, value, threshold)
    block = make_block([plan.input_dim, 8, plan.target_dim], "elu", rng,
                       out_activation="sigmoid")
    target = rng.random((args.batch, plan.target_dim))
    rows.append(("nn block (elu/sigmoid)",
                 grad_check_block(block, x, target,
                                  inject_fault=args.inject_fault), 1e-4))

    al = gradcheck_network(net, x, y1)
    for c in net.components:
        for flow, blocks in (("flow1", "f,b"), ("flow2", "g,h")):
            rows.append((f"component {c.index} {flow} ({blocks})",
                         al[f"c{c.index}.{flow}"], 1e-4))
    rows.append(("cross-component |fd| (abs)", al["cross"], 1e-7))

    bp_net = build_bp_network(match_effective_params(plan), rng)
    rows.append(("bp full stack", gradcheck_bp(bp_net, x, y1), 1e-4))

    failed = False
    for label, value, threshold in rows:
        ok = value < threshold
        failed = failed or not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {value:.3e} "
              f"(threshold {threshold:.0e})")
    if failed:
        print("gradient check FAILED")
        return 4
    print("all gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="assoclearn",
        description="Train and benchmark locally trained component "
                    "networks against an end-to-end baseline.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run a training job")
    t.add_argument("--config", help="JSON config file; flags override it")
    t.add_argument("--dataset", choices=tuple(_DATASETS))
    t.add_argument("--data-dir", help="directory with the IDX files "
                                      "(or set AL_DATA_DIR)")
    t.add_argument("--plan", help="architecture plan name, one of: "
                                  + ", ".join(plan_names()))
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--lr-drops", help="comma-separated epochs, e.g. "
                                      "'80,120,160,180'; empty for none")
    t.add_argument("--lr-factor", type=float)
    t.add_argument("--seed", type=int, help="mandatory: runs are never "
                                            "wall-clock seeded")
    t.add_argument("--head", choices=HEADS,
                   help="baseline loss head (bp mode)")
    t.add_argument("--out", help="artifact directory")

    b = sub.add_parser("bench-pipeline",
                       help="synthetic equal-cost throughput bench")
    b.add_argument("--n-batches", type=int, default=64)
    b.add_argument("--components", type=int, default=4)
    b.add_argument("--task-cost-ms", type=float, default=5.0)
    b.add_argument("--json", action="store_true",
                   help="machine-readable output")

    g = sub.add_parser("gradcheck", help="run all finite-difference suites")
    g.add_argument("--plan", default="blobs")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--batch", type=int, default=8)
    g.add_argument("--inject-fault", action="store_true",
                   help="corrupt one analytic gradient to prove the "
                        "check catches it")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(resolve_train_config(args))
        if args.command == "bench-pipeline":
            return cmd_bench(args)
        return cmd_gradcheck(args)
    except (ConfigError, PlanError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
