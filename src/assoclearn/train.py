"""Sequential and pipelined training loops.

Both AL trainers run one stage list, one stage per component
(``_component_stages``), built per epoch; a stage trains its component
on a batch and hands the pre-update outputs to the next in a
``BatchMessage`` (batch id and arrays only). The sequential epoch runs the
stages inline, n*C component tasks one after another. The pipelined
epoch gives each stage a worker thread, connected by bounded FIFO
queues: component c handles batch m at logical unit u = m + c - 1, so
the whole epoch spans n + C - 1 units. Each component sees the same
messages in the same order in both modes, so the parameter trajectory
is identical by construction at any pipeline depth; a queue only
changes how much wall-clock overlap the stages get.

``run_pipeline`` is the schedule-agnostic core (stages, bounded queues,
an optional in-flight cap, monotone batch-id enforcement, error
propagation); the pipelined trainer and the synthetic throughput bench
both run on it, and both take its ``ThroughputReport`` as the one record
of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Queue
from threading import Semaphore, Thread

import numpy as np

from . import blas
from .errors import ConfigError, NumericError, TrainingError
from .linalg import Matrix, Rng
from .al_core import ALNetwork, component_update
from .bp import BPNetwork, bp_train_epoch
from .data import BatchIterator, Dataset, one_hot
from .metrics import MetricsRecord, evaluate_al, evaluate_bp
from . import checkpoint as ckpt

_STOP = object()

MODES = ("al-seq", "al-pipe", "bp")

# BLAS threads per pipeline stage during a pipelined epoch. Each stage
# thread drives BLAS itself, so BLAS's own threads would compete with
# the stages for the cores; training products are thread-count
# invariant (linalg.sliced_matmul), so the bits do not change.
PIPELINE_BLAS_THREADS = 1


@dataclass
class BatchMessage:
    """Detached activations in flight between two components."""

    batch_id: int
    s: Matrix
    t: Matrix


@dataclass
class Schedule:
    """The staggered batch/component timetable."""

    n_batches: int
    n_components: int

    def batch_at(self, unit: int, component: int) -> int | None:
        m = unit - component + 1
        return m if 1 <= m <= self.n_batches else None

    def unit_for(self, batch: int, component: int) -> int:
        return batch + component - 1

    def total_units(self) -> int:
        return self.n_batches + self.n_components - 1

    def sequential_tasks(self) -> int:
        return self.n_batches * self.n_components

    def trace(self) -> list[list[tuple[int, int]]]:
        """Per unit, the active (component, batch) pairs."""
        out = []
        for u in range(1, self.total_units() + 1):
            active = []
            for c in range(1, self.n_components + 1):
                m = self.batch_at(u, c)
                if m is not None:
                    active.append((c, m))
            out.append(active)
        return out


@dataclass
class ThroughputReport:
    """One pipeline run: completed batches (those the last stage
    finished), the time units they span on the Schedule, and each stage's
    busy time over its lifetime. speedup is set only by bench_pipeline,
    which also times the sequential run."""

    wall_clock: float
    completed: int
    time_units: int
    busy_fraction: list[float]
    speedup: float | None = None


def run_pipeline(stages, feed, capacity: int = 2,
                 depth: int | None = None) -> ThroughputReport:
    """Push (batch_id, payload) pairs through worker threads.

    stages: one callable per stage, payload -> payload. feed: iterable of
    (batch_id, payload) with strictly increasing ids. capacity bounds
    each inter-stage queue; depth, when given, caps how many batches are
    in flight anywhere (depth=1 degenerates to fully serial execution).
    A failing stage hands back the in-flight token of the batch it failed
    on, then drains its input, handing back each drained batch's token, so
    neither its neighbors nor a feeder blocked on the depth cap deadlock.
    The first failure is re-raised as TrainingError after all workers exit.
    """
    if not stages:
        raise ConfigError("need at least one stage")
    if capacity < 1:
        raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
    if depth is not None and depth < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {depth}")
    n = len(stages)
    queues = [Queue(maxsize=capacity) for _ in range(n)]
    completed = 0
    errors: list = []
    busy = [0.0] * n
    lifetime = [0.0] * n
    sem = Semaphore(depth) if depth is not None else None

    def worker(i: int) -> None:
        nonlocal completed
        q_in = queues[i]
        q_out = queues[i + 1] if i + 1 < n else None
        is_last = q_out is None
        last_id = None
        held = False       # a batch, and its token, is in this stage
        t_start = time.perf_counter()
        try:
            while True:
                item = q_in.get()
                if item is _STOP:
                    if q_out is not None:
                        q_out.put(_STOP)
                    break
                held = True
                bid, payload = item
                if last_id is not None and bid <= last_id:
                    raise TrainingError(
                        f"stage {i + 1}: batch {bid} arrived after {last_id}")
                last_id = bid
                t0 = time.perf_counter()
                out = stages[i](payload)
                busy[i] += time.perf_counter() - t0
                if is_last:
                    completed += 1
                    if sem is not None:
                        sem.release()
                else:
                    q_out.put((bid, out))
                held = False
        except BaseException as e:
            errors.append((i, e))
            # Keep neighbors moving: swallow the rest of the input and
            # hand the in-flight tokens back so the feeder can stop.
            if held and sem is not None:
                sem.release()
            while True:
                item = q_in.get()
                if item is _STOP:
                    break
                if sem is not None:
                    sem.release()
            if q_out is not None:
                q_out.put(_STOP)
        finally:
            lifetime[i] = time.perf_counter() - t_start

    threads = [Thread(target=worker, args=(i,), daemon=True)
               for i in range(n)]
    t_wall = time.perf_counter()
    for t in threads:
        t.start()
    try:
        for bid, payload in feed:
            # Every in-flight token comes back, from the last stage or from
            # a failed one, so this acquire cannot block forever.
            if sem is not None:
                sem.acquire()
            if errors:
                break
            queues[0].put((bid, payload))
    finally:
        queues[0].put(_STOP)
        for t in threads:
            t.join()
    wall = time.perf_counter() - t_wall
    if errors:
        i, e = errors[0]
        raise TrainingError(f"pipeline stage {i + 1} failed: {e}") from e
    return ThroughputReport(
        wall_clock=wall, completed=completed,
        time_units=Schedule(completed, n).total_units(),
        busy_fraction=[b / max(lf, 1e-12) for b, lf in zip(busy, lifetime)])


def _feed(X: Matrix, y_onehot: Matrix, batch_size: int, rng: Rng):
    """(batch_id, BatchMessage) per shuffled mini-batch, ids from 1."""
    for m, idx in enumerate(BatchIterator(X.shape[0], batch_size, rng),
                            start=1):
        yield m, BatchMessage(m, X[idx], y_onehot[idx])


def _component_stages(net: ALNetwork, epoch: int, sums1, sums2) -> list:
    """One stage per component, BatchMessage -> BatchMessage: it trains the
    component, adds its row-weighted local losses to sums1[k] and sums2[k],
    and passes on the pre-update outputs."""

    def make_stage(k: int, comp):
        def stage(msg: BatchMessage) -> BatchMessage:
            try:
                s, t, rec = component_update(comp, msg.s, msg.t)
            except NumericError as e:
                raise NumericError(
                    f"epoch {epoch}, batch {msg.batch_id}: {e}") from e
            rows = msg.s.shape[0]
            sums1[k] += rec.mse1 * rows
            sums2[k] += rec.mse2 * rows
            return BatchMessage(msg.batch_id, s, t)
        return stage

    return [make_stage(k, c) for k, c in enumerate(net.components)]


def _al_record(mode: str, epoch: int, sums1, sums2, n: int) -> MetricsRecord:
    return MetricsRecord(
        epoch=epoch, mode=mode,
        mse1=[float(v) for v in sums1 / n],
        mse2=[float(v) for v in sums2 / n],
        train_loss=float((sums1 + sums2).sum() / n))


def train_epoch_sequential(net: ALNetwork, X: Matrix, y_onehot: Matrix,
                           batch_size: int, rng: Rng,
                           epoch: int = 0) -> MetricsRecord:
    """One shuffled pass, batch by batch, through the stages of
    _component_stages run inline: component 1 through C."""
    sums1 = np.zeros(net.n_components)
    sums2 = np.zeros(net.n_components)
    stages = _component_stages(net, epoch, sums1, sums2)
    for _, msg in _feed(X, y_onehot, batch_size, rng):
        for stage in stages:
            msg = stage(msg)
    return _al_record("al-seq", epoch, sums1, sums2, X.shape[0])


def train_epoch_pipelined(net: ALNetwork, X: Matrix, y_onehot: Matrix,
                          batch_size: int, rng: Rng, epoch: int = 0,
                          capacity: int = 2, depth: int | None = None):
    """One epoch with the stages of train_epoch_sequential, one worker per
    component; see the module docstring for the equivalence. OpenBLAS runs
    on PIPELINE_BLAS_THREADS threads for the epoch, and the caller's thread
    count is restored when the workers have joined, also on failure. Returns
    (MetricsRecord, ThroughputReport) with the report of run_pipeline."""
    n_batches = BatchIterator(X.shape[0], batch_size, rng).n_batches()
    sums1 = np.zeros(net.n_components)
    sums2 = np.zeros(net.n_components)
    stages = _component_stages(net, epoch, sums1, sums2)
    with blas.pinned_threads(PIPELINE_BLAS_THREADS):
        report = run_pipeline(stages, _feed(X, y_onehot, batch_size, rng),
                              capacity=capacity, depth=depth)
    if report.completed != n_batches:
        raise TrainingError(
            f"epoch ended with {report.completed} of {n_batches} batches")
    return _al_record("al-pipe", epoch, sums1, sums2, X.shape[0]), report


def lr_at_epoch(base_lr: float, drops, factor: float, epoch: int) -> float:
    """Step schedule: the rate is multiplied by factor after each listed
    epoch has completed (1-based epochs)."""
    return base_lr * factor ** sum(1 for d in drops if epoch > d)


@dataclass
class FitResult:
    records: list[MetricsRecord]
    best_test_accuracy: float | None
    best_epoch: int | None
    checkpoint_path: str | None
    wall_clock: float
    reports: list[ThroughputReport] = field(default_factory=list)

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def fit(model, train_ds: Dataset, test_ds: Dataset, *, mode: str,
        epochs: int, batch_size: int, rng: Rng, seed: int,
        lr: float = 1e-4, lr_drops=(80, 120, 160, 180),
        lr_factor: float = 0.5, out_dir=None, capacity: int = 2,
        eval_chunk: int = 2048) -> FitResult:
    """Full training run: per-epoch metrics, step learning-rate schedule,
    test evaluation every epoch, best checkpoint persisted to out_dir.

    epochs=0 evaluates the untouched model once and writes nothing.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    is_al = mode.startswith("al")
    if is_al and not isinstance(model, ALNetwork):
        raise ConfigError(f"mode {mode} needs a component network")
    if not is_al and not isinstance(model, BPNetwork):
        raise ConfigError("mode bp needs a BPNetwork")
    evaluate = evaluate_al if is_al else evaluate_bp

    y1 = one_hot(train_ds.y, model.target_dim if is_al else model.n_classes)
    ckpt_path = Path(out_dir) / "checkpoint.bin" if out_dir else None
    t_total = time.perf_counter()
    records: list[MetricsRecord] = []
    reports: list[ThroughputReport] = []

    if epochs == 0:
        rec = MetricsRecord(
            epoch=0, mode=mode, mse1=[], mse2=[],
            train_accuracy=evaluate(model, train_ds, eval_chunk),
            test_accuracy=evaluate(model, test_ds, eval_chunk))
        return FitResult([rec], None, None, None,
                         time.perf_counter() - t_total)

    best_acc = -1.0
    best_epoch = None
    for e in range(1, epochs + 1):
        model.set_lr(lr_at_epoch(lr, lr_drops, lr_factor, e))
        t_epoch = time.perf_counter()
        if mode == "al-seq":
            rec = train_epoch_sequential(model, train_ds.X, y1, batch_size,
                                         rng, epoch=e)
        elif mode == "al-pipe":
            rec, report = train_epoch_pipelined(model, train_ds.X, y1,
                                                batch_size, rng, epoch=e,
                                                capacity=capacity)
            reports.append(report)
        else:
            loss, train_acc = bp_train_epoch(model, train_ds.X, y1,
                                             batch_size, rng, epoch=e)
            rec = MetricsRecord(epoch=e, mode="bp", mse1=[], mse2=[],
                                train_loss=loss, train_accuracy=train_acc)
        if is_al:
            rec.train_accuracy = evaluate(model, train_ds, eval_chunk)
        rec.test_accuracy = evaluate(model, test_ds, eval_chunk)
        rec.wall_clock = time.perf_counter() - t_epoch
        records.append(rec)
        if rec.test_accuracy > best_acc:
            best_acc = rec.test_accuracy
            best_epoch = e
            if ckpt_path is not None:
                extra = {"test_accuracy": best_acc}
                if is_al:
                    ckpt.save_al(ckpt_path, model, seed, e, extra)
                else:
                    ckpt.save_bp(ckpt_path, model, seed, e, extra)
    return FitResult(records, best_acc, best_epoch,
                     str(ckpt_path) if ckpt_path else None,
                     time.perf_counter() - t_total, reports)


@dataclass
class BenchResult:
    schedule: Schedule
    sequential_wall: float
    report: ThroughputReport


def bench_pipeline(n_batches: int, components: int, task_cost_ms: float,
                   capacity: int = 2) -> BenchResult:
    """Synthetic equal-cost workload: every task sleeps task_cost_ms, so
    the measured speedup isolates the scheduling machinery."""
    if components < 1:
        raise ConfigError(f"components must be >= 1, got {components}")
    if n_batches < 1:
        raise ConfigError(f"n_batches must be >= 1, got {n_batches}")
    cost = task_cost_ms / 1000.0
    sched = Schedule(n_batches, components)

    t0 = time.perf_counter()
    for _ in range(sched.sequential_tasks()):
        time.sleep(cost)
    seq_wall = time.perf_counter() - t0

    def stage(payload):
        time.sleep(cost)
        return payload

    report = run_pipeline([stage] * components,
                          ((m, m) for m in range(1, n_batches + 1)),
                          capacity=capacity)
    report.speedup = seq_wall / report.wall_clock
    return BenchResult(schedule=sched, sequential_wall=seq_wall,
                       report=report)
