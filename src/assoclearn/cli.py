"""Command-line entry point.

Subcommands: ``train`` (full runs with metrics/checkpoint artifacts),
``bench-pipeline`` (synthetic throughput comparison), ``gradcheck``
(every finite-difference suite). Configuration comes from an optional
JSON file plus flags, flags winning; the seed is mandatory so no run is
ever wall-clock seeded.

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
    TrainingError,
)
from .linalg import make_rng, spawn_rngs
from .al_core import (
    build_network,
    collect_messages,
    gradcheck_component_flows,
    gradcheck_cross_component,
    get_plan,
    plan_names,
)
from .bp import build_bp_network, gradcheck_bp, match_effective_params
from .data import Dataset, load_mnist, mnist_subset, one_hot, synth_blobs, synth_xor
from .metrics import geometry_report, write_json_summary, write_metrics_csv
from .nn import grad_check_block, make_block
from .train import MODES, PIPELINE_BLAS_THREADS, bench_pipeline, fit

_DATASETS = ("mnist", "mnist-subset", "blobs", "xor")
_DEFAULT_PLAN = {"mnist": "desk-mlp", "mnist-subset": "desk-mlp",
                 "blobs": "blobs", "xor": "xor"}

# The dataclass defaults are the image-dataset recipe (lr 1e-4, drops at
# 80/120/160/180, batch 128). The toy problems are orders of magnitude
# smaller, so unless overridden they get a proportionate step size, full
# batches, and no drop schedule.
_DATASET_DEFAULTS = {
    "xor": {"lr": 1e-3, "batch_size": 4, "lr_drops": []},
    "blobs": {"lr": 1e-3, "lr_drops": []},
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
    queue_capacity: int = 2
    subset_train: int = 6000
    subset_test: int = 1000
    out: str = ""

    def validate(self) -> None:
        if self.dataset not in _DATASETS:
            raise ConfigError(
                f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.dataset.startswith("mnist"):
            if not self.data_dir:
                raise ConfigError(
                    "mnist datasets need --data-dir or AL_DATA_DIR")
            if not Path(self.data_dir).is_dir():
                raise ConfigError(f"data dir does not exist: {self.data_dir}")


def _integer(v) -> int:
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(v)
    return int(v)


def _epoch_list(v) -> list[int]:
    """A list of integers, or the --lr-drops comma string."""
    if isinstance(v, str):
        v = v.split(",") if v.strip() else []
    return [_integer(d) for d in v]


# How a flag or config-file value becomes a RunConfig field of each
# non-string type.
_COERCE = {"int": _integer, "float": float, "list[int]": _epoch_list}


def resolve_train_config(args) -> RunConfig:
    """Defaults, then config-file values, then explicit flags; a flag
    sets the RunConfig field of the same name."""
    values: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                values.update(json.load(fh))
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: invalid JSON: {e}") from e
        unknown = set(values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(
                f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    values.update({k: v for k, v in vars(args).items()
                   if k in RunConfig.__dataclass_fields__ and v is not None})

    for req in ("dataset", "mode", "seed"):
        if req not in values or values[req] is None:
            raise ConfigError(f"{req} is required (flag or config file)")
    if not values.get("data_dir"):
        values["data_dir"] = os.environ.get("AL_DATA_DIR") or None
    for key, val in _DATASET_DEFAULTS.get(values["dataset"], {}).items():
        values.setdefault(key, val)
    for key, val in list(values.items()):
        kind = RunConfig.__dataclass_fields__[key].type
        if kind in _COERCE:
            try:
                values[key] = _COERCE[kind](val)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} (--{key.replace('_', '-')}) must "
                                  f"be {kind}, got {val!r}") from None
    cfg = RunConfig(**values)
    if not cfg.plan:
        cfg.plan = _DEFAULT_PLAN[cfg.dataset] if cfg.dataset in _DEFAULT_PLAN \
            else ""
    if not cfg.out:
        cfg.out = f"runs/{cfg.dataset}-{cfg.mode}-seed{cfg.seed}"
    cfg.validate()
    return cfg


def _split(ds: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    return (Dataset(X=ds.X[:n_train], y=ds.y[:n_train],
                    n_classes=ds.n_classes),
            Dataset(X=ds.X[n_train:], y=ds.y[n_train:],
                    n_classes=ds.n_classes))


def load_datasets(cfg: RunConfig, data_rng) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "xor":
        ds = synth_xor()
        return ds, ds
    if cfg.dataset == "blobs":
        full = synth_blobs(768, 8, 4, separation=8.0, rng=data_rng)
        return _split(full, 512)
    train, test = load_mnist(cfg.data_dir)
    if cfg.dataset == "mnist-subset":
        return mnist_subset(train, test, cfg.subset_train, cfg.subset_test,
                            seed=cfg.seed)
    return train, test


def cmd_train(cfg: RunConfig) -> int:
    init_rng, shuffle_rng, data_rng = spawn_rngs(cfg.seed, 3)
    train_ds, test_ds = load_datasets(cfg, data_rng)

    al_plan = get_plan(cfg.plan)
    if train_ds.dim != al_plan.input_dim or \
            train_ds.n_classes != al_plan.target_dim:
        raise ConfigError(
            f"plan {cfg.plan!r} expects {al_plan.input_dim} features / "
            f"{al_plan.target_dim} classes, dataset has {train_ds.dim} / "
            f"{train_ds.n_classes}")
    if cfg.mode == "bp":
        model = build_bp_network(match_effective_params(al_plan), init_rng,
                                 lr=cfg.lr, head=cfg.head)
    else:
        model = build_network(al_plan, init_rng, lr=cfg.lr)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json_summary(out_dir / "config.json", asdict(cfg))

    blas_threads = blas.threads()
    result = fit(model, train_ds, test_ds, mode=cfg.mode, epochs=cfg.epochs,
                 batch_size=cfg.batch_size, rng=shuffle_rng, seed=cfg.seed,
                 lr=cfg.lr, lr_drops=cfg.lr_drops, lr_factor=cfg.lr_factor,
                 out_dir=out_dir if cfg.epochs > 0 else None,
                 capacity=cfg.queue_capacity)

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
        summary["throughput"] = asdict(result.reports[-1])
        summary["throughput_epochs"] = [asdict(r) for r in result.reports]
    try:
        if cfg.mode == "bp":
            summary["geometry"] = geometry_report(test_ds, bp_net=model)
        else:
            summary["geometry"] = geometry_report(test_ds, net=model)
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
    res = bench_pipeline(args.n_batches, args.components, args.task_cost_ms,
                         capacity=args.queue_capacity)
    payload = {
        "n_batches": res.schedule.n_batches,
        "components": res.schedule.n_components,
        "sequential_tasks": res.schedule.sequential_tasks(),
        "pipelined_units": res.schedule.total_units(),
        "sequential_wall_clock": res.sequential_wall,
        "pipelined_wall_clock": res.report.wall_clock,
        "speedup": res.report.speedup,
        "busy_fraction": res.report.busy_fraction,
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

    for c, (s, t) in zip(net.components, collect_messages(net, x, y1)):
        errs = gradcheck_component_flows(c, s, t)
        rows.append((f"component {c.index} flow1 (f,b)", errs["flow1"], 1e-4))
        rows.append((f"component {c.index} flow2 (g,h)", errs["flow2"], 1e-4))

    cross = gradcheck_cross_component(net, x, y1)
    rows.append(("cross-component |fd| (abs)", cross["cross"], 1e-7))
    rows.append(("within-component fd vs flows", cross["within"], 1e-4))

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
    t.add_argument("--dataset", choices=_DATASETS)
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
    t.add_argument("--head", choices=("softmax", "mse"),
                   help="baseline loss head (bp mode)")
    t.add_argument("--queue-capacity", type=int)
    t.add_argument("--out", help="artifact directory")

    b = sub.add_parser("bench-pipeline",
                       help="synthetic equal-cost throughput bench")
    b.add_argument("--n-batches", type=int, default=64)
    b.add_argument("--components", type=int, default=4)
    b.add_argument("--task-cost-ms", type=float, default=5.0)
    b.add_argument("--queue-capacity", type=int, default=2)
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
    except (NumericError, TrainingError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
