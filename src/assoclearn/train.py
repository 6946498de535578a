"""One epoch loop for every training mode.

``train_epoch`` runs a mode's stages over one shuffled pass; ``_MODES``
maps each mode to its stage builder and to whether the stages are
pipelined. A stage of ``_component_stages`` trains one component at the
epoch's ``net.lr`` and hands its pre-update outputs to the next in a
``BatchMessage`` (batch id and arrays only); ``_bp_stages`` gives one
stage, the whole stack. ``al-seq`` and ``bp`` run the stages inline;
``al-pipe`` runs them through ``run_pipeline``, where component c
handles batch m at logical unit u = m + c - 1, so the epoch spans
n + C - 1 units. Each component sees the same messages in the same
order in both AL modes, so the parameter trajectory is identical by
construction at any pipeline depth.

``run_pipeline`` is the schedule-agnostic core of ``al-pipe`` and the
synthetic bench: the caller runs stage 1 and a worker thread each later
stage; its ``ThroughputReport`` is the one record of the run. It starts
and joins the workers, so it holds the two process-wide resources they
borrow and gives both back once they have joined: OpenBLAS's thread
count, and the free heap, which stays resident in each worker's arena.
A stage's own exception leaves it unchanged, so every mode fails alike.

``fit`` runs every mode on one path through the model contract
(``al_core``): it checks the mode against ``model.kind``, evaluates with
``metrics.evaluate`` and checkpoints with ``checkpoint.save``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Queue
from threading import Semaphore, Thread

import numpy as np

from . import blas
from .errors import ConfigError, NumericError, StateError
from .linalg import Matrix, Rng
from .al_core import ALNetwork, component_update
from .bp import BPNetwork
from .data import BatchIterator, Dataset, one_hot
from .metrics import MetricsRecord, evaluate
from . import checkpoint as ckpt

_STOP = object()

# Benchmark shims: perfbench traces these until ROADMAP item 15 traces evaluate.
evaluate_al = evaluate
evaluate_bp = evaluate

# BLAS threads per pipeline stage during a pipelined epoch. Each stage
# thread drives BLAS itself, so BLAS's own threads would compete with
# the stages for the cores; training products are thread-count
# invariant (linalg.sliced_matmul), so the bits do not change.
PIPELINE_BLAS_THREADS = 1

# Bound of each inter-stage queue, in batches.
QUEUE_CAPACITY = 2


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_free_heap() -> None:
    """Hand the free pages of every malloc arena back to the OS."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


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

    def total_units(self) -> int:
        return self.n_batches + self.n_components - 1 if self.n_batches else 0

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
    busy time over its lifetime."""

    wall_clock: float
    completed: int
    time_units: int
    busy_fraction: list[float]


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 1:
        raise ConfigError(f"pipeline depth must be >= 1, got {depth}")


def run_pipeline(stages, feed, depth: int | None = None) -> ThroughputReport:
    """Push (batch_id, payload) pairs through the stages.

    stages: one callable per stage, payload -> payload. feed: iterable of
    (batch_id, payload) with strictly increasing ids. The caller runs
    stage 1 as it walks the feed, and each later stage has a worker thread
    fed by a queue of at most QUEUE_CAPACITY batches; depth, when given,
    caps the batches in flight anywhere (1 makes it fully serial).
    A batch that a stage does not put on the next queue leaves the
    pipeline, and hands back its in-flight token, at one place: when the
    last stage finished it, when it failed, or when it was dropped after
    its stage had failed. A failed stage drops the rest of its input, so
    nothing deadlocks and no new batch starts. The first failing stage's
    exception, a feed's, or a worker thread's failure to start leaves as
    it is, the same object, once all workers have joined; a batch id
    that does not increase fails its stage with StateError.
    OpenBLAS runs on PIPELINE_BLAS_THREADS threads until the workers have
    joined, and the free heap is released before the first starts and
    after the last has joined, also on failure, outside the timed run.
    A Ctrl-C cannot cut that shutdown short: the step it lands in (stage
    1's stop sentinel, a join, the release) runs again, and the interrupt
    is raised after BLAS is restored unless a stage failed first.
    """
    if not stages:
        raise ConfigError("need at least one stage")
    _check_depth(depth)
    n = len(stages)
    queues = [Queue(maxsize=QUEUE_CAPACITY) for _ in range(n - 1)]
    completed = 0
    errors: list[BaseException] = []
    busy = [0.0] * n
    lifetime = [0.0] * n
    sem = Semaphore(depth) if depth is not None else None

    def finish(step, *args) -> None:
        while True:     # a Ctrl-C reruns the step, then fails the run
            try:
                return step(*args)
            except KeyboardInterrupt as e:
                errors.append(e)

    def fed():
        # In stage 1's try: a failed start still stops the started workers.
        for t in threads:
            t.start()
        for item in feed:
            # Every in-flight token comes back, from the last stage or from
            # a failed one, so this acquire cannot block forever.
            if sem is not None:
                sem.acquire()
            if errors:
                return
            yield item

    def worker(i: int, source) -> None:
        nonlocal completed
        q_out = queues[i] if i + 1 < n else None
        last_id = None
        failed = False
        try:
            for item in source:
                if not failed:
                    bid, payload = item
                    try:
                        if last_id is not None and bid <= last_id:
                            raise StateError(f"stage {i + 1}: batch {bid} "
                                             f"arrived after {last_id}")
                        last_id = bid
                        t0 = time.perf_counter()
                        item = (bid, stages[i](payload))
                        busy[i] += time.perf_counter() - t0
                    except BaseException as e:
                        errors.append(e)
                        failed = True
                if q_out is not None and not failed:
                    q_out.put(item)
                    continue
                # The batch leaves the pipeline: finished, failed or dropped.
                if not failed:
                    completed += 1
                if sem is not None:
                    sem.release()
        finally:
            if q_out is not None:
                finish(q_out.put, _STOP)
            lifetime[i] = time.perf_counter() - t_wall

    threads = [Thread(target=worker, args=(i, iter(queues[i - 1].get, _STOP)),
                      daemon=True) for i in range(1, n)]
    with blas.pinned_threads(PIPELINE_BLAS_THREADS):
        _release_free_heap()
        t_wall = time.perf_counter()
        try:
            worker(0, fed())
        finally:
            for t in threads:
                if t.ident is not None:     # started
                    finish(t.join)
            wall = time.perf_counter() - t_wall
            finish(_release_free_heap)
    if errors:
        raise errors[0]
    return ThroughputReport(
        wall_clock=wall, completed=completed,
        time_units=Schedule(completed, n).total_units(),
        busy_fraction=[b / max(lf, 1e-12) for b, lf in zip(busy, lifetime)])


def _feed(X: Matrix, y_onehot: Matrix, batch_size: int, rng: Rng):
    """(batch_id, BatchMessage) per shuffled mini-batch, ids from 1."""
    for m, idx in enumerate(BatchIterator(X.shape[0], batch_size, rng),
                            start=1):
        yield m, BatchMessage(m, X[idx], y_onehot[idx])


def _run_inline(stages, feed) -> None:
    """Each (batch_id, payload) of feed through every stage, in turn."""
    for _, payload in feed:
        for stage in stages:
            payload = stage(payload)


def _component_stages(net: ALNetwork):
    """(stages, record): per component, a stage that trains it at net.lr
    and adds its row-weighted local losses to the epoch's sums; record
    turns the sums into the epoch's MetricsRecord."""
    lr = net.lr
    sums1 = np.zeros(net.n_components)
    sums2 = np.zeros(net.n_components)

    def make_stage(k: int, comp):
        def stage(msg: BatchMessage) -> BatchMessage:
            s, t, rec = component_update(comp, msg.s, msg.t, lr)
            rows = msg.s.shape[0]
            sums1[k] += rec.mse1 * rows
            sums2[k] += rec.mse2 * rows
            return BatchMessage(msg.batch_id, s, t)
        return stage

    def record(epoch: int, mode: str, n: int) -> MetricsRecord:
        return MetricsRecord(
            epoch=epoch, mode=mode,
            mse1=[float(v) for v in sums1 / n],
            mse2=[float(v) for v in sums2 / n],
            train_loss=float((sums1 + sums2).sum() / n))

    return [make_stage(k, c) for k, c in enumerate(net.components)], record


def _bp_stages(net: BPNetwork):
    """(stages, record): one stage that trains the stack on a batch,
    msg.s the inputs and msg.t the targets, as _component_stages does."""
    total = 0.0

    def stage(msg: BatchMessage) -> BatchMessage:
        nonlocal total
        total += net.train_batch(msg.s, msg.t) * msg.s.shape[0]
        return msg

    def record(epoch: int, mode: str, n: int) -> MetricsRecord:
        return MetricsRecord(epoch=epoch, mode=mode, mse1=[], mse2=[],
                             train_loss=total / n)

    return [stage], record


_MODES = {"al-seq": (_component_stages, False),
          "al-pipe": (_component_stages, True),
          "bp": (_bp_stages, False)}
MODES = tuple(_MODES)


def _check_mode(model, mode: str):
    """_MODES[mode]; ConfigError if mode is unknown or not for model.kind."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if model.kind != (kind := mode.split("-")[0]):
        raise ConfigError(f"mode {mode} needs a model of kind {kind!r}, "
                          f"got {model.kind!r}")
    return _MODES[mode]


def train_epoch(model, X: Matrix, y_onehot: Matrix, batch_size: int,
                rng: Rng, epoch: int, mode: str, depth: int | None = None):
    """One shuffled pass of mode over (X, y_onehot); a NumericError a
    stage raises names the epoch and the batch. al-pipe runs the stages
    through run_pipeline, depth capping the batches in flight, the other
    modes inline. Returns (MetricsRecord, ThroughputReport or None).
    ConfigError before any batch trains unless the mode is one for
    model.kind, as in fit, and depth is None or >= 1, in every mode."""
    def named(stage):
        def run(msg: BatchMessage) -> BatchMessage:
            try:
                return stage(msg)
            except NumericError as e:
                raise NumericError(
                    f"epoch {epoch}, batch {msg.batch_id}: {e}") from e
        return run

    build, pipelined = _check_mode(model, mode)
    _check_depth(depth)
    stages, record = build(model)
    stages = [named(stage) for stage in stages]
    feed = _feed(X, y_onehot, batch_size, rng)
    report = (run_pipeline(stages, feed, depth) if pipelined
              else _run_inline(stages, feed))
    return record(epoch, mode, X.shape[0]), report


def lr_at_epoch(base_lr: float, drops, factor: float, epoch: int) -> float:
    """Step schedule: the rate is multiplied by factor after each listed
    epoch has completed (1-based epochs)."""
    return base_lr * factor ** sum(1 for d in drops if epoch > d)


def check_ints(*checks) -> None:
    """ConfigError unless each (key, value, low) has a non-bool int >= low."""
    for key, value, low in checks:
        if type(value) is not int or value < low:
            raise ConfigError(f"{key} must be an int >= {low}, got {value!r}")


def check_schedule(lr, lr_drops, lr_factor) -> None:
    """ConfigError unless lr and lr_factor are finite positive floats or
    ints and lr_drops is a list or tuple of ints (neither takes bools)."""
    for key, rate in (("lr", lr), ("lr_factor", lr_factor)):
        if (not (isinstance(rate, float) or type(rate) is int)
                or not 0 < rate < math.inf):    # NaN fails both comparisons
            raise ConfigError(f"{key} must be finite and positive, got {rate}")
    if (not isinstance(lr_drops, (list, tuple))
            or any(type(d) is not int for d in lr_drops)):
        raise ConfigError(f"lr_drops must be a list of ints, got {lr_drops!r}")


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


def check_datasets(model, train_ds: Dataset, test_ds: Dataset) -> None:
    """ConfigError unless both datasets have rows, the model's input width
    and its class count."""
    for name, ds in (("train", train_ds), ("test", test_ds)):
        if ds.n == 0:
            raise ConfigError(f"{name} set is empty")
        if ds.dim != model.input_dim or ds.n_classes != model.n_classes:
            raise ConfigError(
                f"model expects {model.input_dim} features / "
                f"{model.n_classes} classes, {name} set has {ds.dim} / "
                f"{ds.n_classes}")


def fit(model, train_ds: Dataset, test_ds: Dataset, *, mode: str,
        epochs: int, batch_size: int, rng: Rng, seed: int,
        lr: float = 1e-4, lr_drops=(80, 120, 160, 180),
        lr_factor: float = 0.5, out_dir=None,
        eval_chunk: int = 2048) -> FitResult:
    """Full training run: per-epoch metrics, step learning-rate schedule,
    best checkpoint persisted to out_dir. Each epoch starts by setting
    model.lr to that epoch's rate. After each epoch, train and test
    accuracy are measured here, for every mode, in chunks (metrics._slices),
    so evaluation holds O(metrics.EVAL_ELEMS) activations whatever
    eval_chunk or the dataset size. The one-hot targets take train_ds.X's
    dtype.

    epochs=0 evaluates the untouched model once and writes nothing.
    epochs, batch_size, eval_chunk and seed must be ints, not bools
    (>= 0, >= 1, >= 1, >= 0, the seeds checkpoint.load takes), the rate
    schedule must pass check_schedule, the mode must be one for
    model.kind, both datasets must have rows and match the model
    (check_datasets), and out_dir, when given, must be an existing
    directory; anything else raises ConfigError before any work.
    """
    _check_mode(model, mode)
    check_ints(("epochs", epochs, 0), ("batch_size", batch_size, 1),
               ("eval_chunk", eval_chunk, 1), ("seed", seed, 0))
    check_schedule(lr, lr_drops, lr_factor)
    check_datasets(model, train_ds, test_ds)
    if out_dir and not Path(out_dir).is_dir():
        raise ConfigError(f"out_dir {str(out_dir)!r} is not a directory")

    y1 = one_hot(train_ds.y, train_ds.n_classes).astype(train_ds.X.dtype,
                                                        copy=False)
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
        model.lr = lr_at_epoch(lr, lr_drops, lr_factor, e)
        t_epoch = time.perf_counter()
        rec, report = train_epoch(model, train_ds.X, y1, batch_size, rng,
                                  e, mode)
        if report is not None:
            reports.append(report)
        rec.train_accuracy = evaluate(model, train_ds, eval_chunk)
        rec.test_accuracy = evaluate(model, test_ds, eval_chunk)
        rec.wall_clock = time.perf_counter() - t_epoch
        records.append(rec)
        if rec.test_accuracy > best_acc:
            best_acc = rec.test_accuracy
            best_epoch = e
            if ckpt_path is not None:
                ckpt.save(ckpt_path, model, seed, e,
                          {"test_accuracy": best_acc})
    return FitResult(records, best_acc, best_epoch,
                     str(ckpt_path) if ckpt_path else None,
                     time.perf_counter() - t_total, reports)


def bench_pipeline(n_batches: int, components: int,
                   task_cost_ms: float) -> tuple[float, ThroughputReport]:
    """(sequential wall-clock, pipelined report) of a synthetic workload
    whose every task sleeps task_cost_ms: their ratio times the scheduler."""
    check_ints(("n_batches", n_batches, 1), ("components", components, 1))
    if not 0 <= task_cost_ms < np.inf:      # NaN fails both comparisons
        raise ConfigError(
            f"task_cost_ms must be finite and >= 0, got {task_cost_ms}")
    cost = task_cost_ms / 1000.0

    def stage(payload):
        time.sleep(cost)
        return payload

    stages = [stage] * components
    t0 = time.perf_counter()
    _run_inline(stages, ((m, m) for m in range(1, n_batches + 1)))
    seq_wall = time.perf_counter() - t0
    return seq_wall, run_pipeline(stages,
                                  ((m, m) for m in range(1, n_batches + 1)))
