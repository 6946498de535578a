"""The timed training loop, the correctness checks, the machine block and
the assembly of the reported metrics.

Everything here drives assoclearn through its public API: the model comes
from build_network / build_bp_network, every epoch is one ``fit`` call,
and inference is measured through evaluate_al / evaluate_bp.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import assoclearn as al
from assoclearn.al_core import effective_param_count, net_param_items
from assoclearn.data import Dataset
from assoclearn.metrics import evaluate_al, evaluate_bp

from workloads import (BATCH_SIZE, CLASSES, N_TRAIN, PLAN, Inputs, Workload,
                       build_model)

EVAL_CHUNK = 2048
CHECK_ROWS = 1024            # rows of the short al-pipe == al-seq run
# The inference measurement repeats the train+test evaluation until it
# has run this long, so that the small datasets give a steady rate.
MIN_EVAL_S = 0.25
# Test accuracy every round must reach; the blobs are separable.
ACCURACY_FLOOR = 0.9
N_STAGES = 2                 # desk-mlp has two components
# Largest gap between a stage's busy share measured by the traced spans
# and by ThroughputReport in the untraced run of the same workload.
BUSY_SHARE_TOLERANCE = 0.15
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


@dataclass
class Epoch:
    wall_s: float            # the fit() call, checkpoint write included
    train_s: float           # wall_s minus the train- and test-set evaluation
    eval_s: float            # one evaluate_* on train and test, timed here
    train_loss: float
    test_accuracy: float
    busy: list[float] | None = None      # ThroughputReport, al-pipe only
    pipe_wall_s: float | None = None


@dataclass
class Phase:
    epochs: list[Epoch] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # (model index, train loss, test accuracy) at the end of each round
    round_results: list[tuple[int, float, float]] = field(
        default_factory=list)
    errors: list[str] = field(default_factory=list)
    rows_evaluated: int = 0


def _datasets(inputs: Inputs) -> tuple[Dataset, Dataset]:
    return (Dataset(inputs.train_X, inputs.train_y, CLASSES),
            Dataset(inputs.test_X, inputs.test_y, CLASSES))


def _fit(model, wl: Workload, seed: int, train, test, rng, mode=None,
         out_dir=None):
    return al.fit(model, train, test, mode=mode or wl.mode, epochs=1,
                  batch_size=BATCH_SIZE, rng=rng, seed=seed,
                  lr=wl.lr, lr_drops=(), out_dir=out_dir,
                  eval_chunk=EVAL_CHUNK)


def run_phase(wl: Workload, inputs: Inputs, seconds: float, ckpt_dir: Path,
              recorder=None) -> Phase:
    """Train epochs until ``seconds`` have passed, in rounds of
    wl.round_epochs epochs on a freshly built model; the first wl.models
    rounds always complete. Each epoch is one fit(epochs=1) call, so a
    checkpoint is written every epoch, and the trajectory equals that of
    fit(epochs=n) with no learning-rate drops."""
    train, test = _datasets(inputs)
    evaluate = evaluate_bp if wl.mode == "bp" else evaluate_al
    # The benchmark's own evaluation is not part of the traced epoch.
    paused = recorder.pause if recorder is not None else contextlib.nullcontext
    phase = Phase(rows_evaluated=train.n + test.n)
    deadline = time.perf_counter() + seconds
    rounds = 0

    def done():
        return time.perf_counter() >= deadline and (
            len(phase.round_results) >= wl.models or phase.failed)

    while not done():
        k = rounds % wl.models
        rounds += 1
        model = build_model(al, wl, inputs.init_seeds[k])
        rng = al.make_rng(inputs.shuffle_seeds[k])
        for e in range(1, wl.round_epochs + 1):
            if done():
                break
            phase.attempted += 1
            try:
                t0 = time.perf_counter()
                res = _fit(model, wl, inputs.init_seeds[k], train, test, rng,
                           out_dir=ckpt_dir)
                wall = time.perf_counter() - t0
                rec = res.final
                with paused():
                    acc, eval_s = _timed_eval(evaluate, model, train, test)
            except (ArithmeticError, RuntimeError, ValueError) as exc:
                phase.failed += 1
                phase.errors.append(f"epoch raised {type(exc).__name__}: "
                                    f"{exc}")
                break
            problem = _epoch_problem(wl, rec, acc, last=e == wl.round_epochs)
            epoch = Epoch(wall, rec.wall_clock - eval_s, eval_s,
                          rec.train_loss, rec.test_accuracy)
            if res.reports:
                epoch.busy = list(res.reports[0].busy_fraction)
                epoch.pipe_wall_s = res.reports[0].wall_clock
            phase.epochs.append(epoch)
            if problem:
                phase.failed += 1
                phase.errors.append(problem)
                break
            if e == wl.round_epochs:
                phase.round_results.append((k, rec.train_loss,
                                            rec.test_accuracy))
    return phase


def _timed_eval(evaluate, model, train, test) -> tuple[float, float]:
    """Test accuracy, and seconds per evaluation of train plus test."""
    reps = 0
    t0 = time.perf_counter()
    while True:
        evaluate(model, train, EVAL_CHUNK)
        acc = evaluate(model, test, EVAL_CHUNK)
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_EVAL_S:
            return acc, elapsed / reps


def _epoch_problem(wl: Workload, rec, acc: float, last: bool) -> str | None:
    losses = [rec.train_loss] + list(rec.mse1) + list(rec.mse2)
    if not all(math.isfinite(v) for v in losses):
        return f"epoch {rec.epoch}: non-finite loss {losses}"
    if acc != rec.test_accuracy:
        return (f"epoch {rec.epoch}: evaluate gives test accuracy {acc}, "
                f"fit recorded {rec.test_accuracy}")
    if last and rec.test_accuracy < ACCURACY_FLOOR:
        return (f"test accuracy {rec.test_accuracy} after {wl.round_epochs} "
                f"epochs is below the floor {ACCURACY_FLOOR}")
    return None


def run_checks(wl: Workload, inputs: Inputs) -> list[str]:
    """Whole-run checks, made outside the timed region. Returns problems."""
    problems = []
    plan = al.get_plan(PLAN)
    seed = inputs.init_seeds[0]
    bp_net = al.build_bp_network(al.match_effective_params(plan),
                                 al.make_rng(seed))
    al_net = al.build_network(plan, al.make_rng(seed))
    if bp_net.param_count() != effective_param_count(al_net):
        problems.append(f"bp has {bp_net.param_count()} parameters, the AL "
                        f"net's effective set {effective_param_count(al_net)}")
    train, test = _datasets(inputs)
    short = Dataset(train.X[:CHECK_ROWS], train.y[:CHECK_ROWS], CLASSES)
    params = []
    for mode in ("al-seq", "al-pipe"):
        net = al.build_network(plan, al.make_rng(seed), lr=wl.lr)
        _fit(net, wl, seed, short, test,
             al.make_rng(inputs.shuffle_seeds[0]), mode=mode)
        params.append(b"".join(a.tobytes() for _, a in net_param_items(net)))
    if params[0] != params[1]:
        problems.append("al-pipe parameters differ from al-seq after one "
                        f"epoch on {CHECK_ROWS} rows")
    return problems


def round_problems(phase: Phase) -> list[str]:
    """Every completed round of one model must end bit-identically."""
    ends: dict[int, set] = {}
    for k, loss, acc in phase.round_results:
        ends.setdefault(k, set()).add((loss, acc))
    return [f"rounds of model {k} ended differently: {sorted(v)}"
            for k, v in ends.items() if len(v) > 1]


def _model_means(wl: Workload, phase: Phase) -> tuple[float, float]:
    """Mean round-end loss and accuracy over the run's models."""
    first = {}
    for k, loss, acc in phase.round_results:
        first.setdefault(k, (loss, acc))
    if len(first) < wl.models:
        return math.nan, math.nan
    return (statistics.fmean(v[0] for v in first.values()),
            statistics.fmean(v[1] for v in first.values()))


# metrics --------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def train_samples_per_s(phase: Phase) -> float:
    return N_TRAIN / _median([e.train_s for e in phase.epochs])


def end_to_end(wl: Workload, phase: Phase, setup_samples: list[float],
               inputs_rss_mb: float):
    """name -> (value, unit, note). inputs_rss_mb is the peak memory once
    the inputs existed, before any training."""
    n = len(phase.epochs)
    loss, acc = _model_means(wl, phase)
    at_end = (f"epoch {wl.round_epochs} of a fresh model, mean of "
              f"{wl.models}")
    return {
        "setup_s": (_median(setup_samples), "s",
                    f"median of {len(setup_samples)} set-ups"),
        "train_samples_per_s": (train_samples_per_s(phase), "1/s",
                                f"median epoch of {n}"),
        "epoch_s": (_median([e.wall_s for e in phase.epochs]), "s",
                    f"median of {n} epochs"),
        "infer_rows_per_s": (
            phase.rows_evaluated / _median([e.eval_s for e in phase.epochs]),
            "1/s", f"median of {n} evaluations"),
        "final_train_loss": (loss, "loss", at_end),
        "test_accuracy": (acc, "share", at_end),
        "peak_rss_mb": (peak_rss_mb(), "MB", f"this process; "
                        f"{inputs_rss_mb:.1f} after data generation"),
        "passed_share": (1.0 - phase.failed / max(phase.attempted, 1),
                         "share", f"{phase.attempted - phase.failed} of "
                                  f"{phase.attempted} epochs"),
    }


# (span name, statistic) pairs reported per traced epoch
SPAN_METRICS = (
    ("nn.adam_step", "self_s"), ("nn.adam_step", "calls"),
    ("nn.sigmoid", "self_s"), ("nn.elu", "self_s"),
    ("nn.dense_forward", "self_s"), ("nn.dense_forward", "calls"),
    ("nn.dense_backward", "self_s"),
    ("linalg.matmul", "self_s"), ("linalg.matmul", "calls"),
    *((f"al_core.component_update.c{c}", "s")
      for c in range(1, N_STAGES + 1)),
    ("data.batch_iter", "self_s"),
    ("metrics.evaluate", "s"), ("al_core.infer", "self_s"),
    ("checkpoint.save", "s"), ("checkpoint.save", "calls"),
    ("bp.train_batch", "self_s"), ("bp.train_batch", "calls"),
)


def per_layer(untraced: Phase, traced: Phase, summary: dict, counts: dict):
    """name -> (value, unit, note). Span totals are divided by the traced
    epochs; a module the workload never calls reads 0."""
    n = max(len(traced.epochs), 1)
    out = {}
    for name, key in SPAN_METRICS:
        out[f"{name}.{key}"] = (summary.get(name, {}).get(key, 0) / n,
                                "count" if key == "calls" else "s",
                                "per epoch")
    out["linalg.matmul.gflop"] = (
        counts.get("linalg.matmul.flop", 0) / 1e9 / n, "GFLOP", "per epoch")
    out["checkpoint.save.bytes"] = (
        counts.get("checkpoint.save.bytes", 0) / n, "B", "per epoch")
    out.update(stage_metrics(untraced, summary))
    out["trace_overhead_share"] = (
        1.0 - train_samples_per_s(traced) / train_samples_per_s(untraced),
        "share", "train_samples_per_s lost to tracing")
    return out


def stage_metrics(untraced: Phase, summary: dict):
    """Per pipeline stage: busy and idle share and queue wait per epoch from
    the untraced run's ThroughputReport, and the busy share the traced
    run's spans give (stage k's component_update time over the
    run_pipeline wall clock). All 0 when the workload has no pipeline."""
    piped = [e for e in untraced.epochs if e.busy is not None]
    pipe_s = summary.get("train.run_pipeline", {}).get("s", 0)
    out = {}
    for k in range(N_STAGES):
        s = f"train.stage.s{k + 1}"
        busy = _median([e.busy[k] for e in piped]) if piped else 0.0
        wait = (_median([(1 - e.busy[k]) * e.pipe_wall_s for e in piped])
                if piped else 0.0)
        comp = summary.get(f"al_core.component_update.c{k + 1}", {})
        out[f"{s}.busy_share"] = (busy, "share", "ThroughputReport, median")
        out[f"{s}.idle_share"] = (1 - busy if piped else 0.0, "share",
                                  "ThroughputReport, median")
        out[f"{s}.wait_s"] = (wait, "s", "per epoch, ThroughputReport")
        out[f"{s}.span_busy_share"] = (
            comp.get("s", 0) / pipe_s if pipe_s else 0.0, "share",
            "traced spans")
    return out


def busy_share_problems(layer: dict) -> list[str]:
    problems = []
    for k in range(1, N_STAGES + 1):
        report = layer[f"train.stage.s{k}.busy_share"][0]
        spans = layer[f"train.stage.s{k}.span_busy_share"][0]
        if abs(report - spans) > BUSY_SHARE_TOLERANCE:
            problems.append(
                f"stage {k}: busy share {spans:.3f} from spans vs "
                f"{report:.3f} from ThroughputReport")
    return problems


# machine --------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_threads() -> int | None:
    """openblas_get_num_threads from the library numpy loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {"env": {v: os.environ.get(v) for v in BLAS_ENV},
                         "openblas_get_num_threads": _openblas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
