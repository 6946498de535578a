import copy
import ctypes
import gc
import os
import re
import statistics
import threading
import time
import tracemalloc
import weakref
from threading import (Barrier, BoundedSemaphore, BrokenBarrierError, Lock,
                       Thread, get_ident)
from types import SimpleNamespace

import numpy as np
import pytest

import assoclearn.train as train_mod
from assoclearn import blas, nn
from assoclearn.al_core import build_network, component_update, get_plan
from assoclearn.bp import BPNetwork, build_bp_network, match_effective_params
from assoclearn.checkpoint import load
from assoclearn.data import (BatchIterator, Dataset, one_hot, synth_blobs,
                             synth_xor)
from assoclearn.errors import ConfigError, NumericError, StateError
from assoclearn.linalg import make_rng
from assoclearn.metrics import evaluate, write_metrics_csv
from conftest import params
from assoclearn.train import (
    PIPELINE_BLAS_THREADS,
    Schedule,
    bench_pipeline,
    fit,
    lr_at_epoch,
    run_pipeline,
    train_epoch,
)


def blob_setup(seed=0, n=40):
    ds = synth_blobs(n, 8, 4, separation=6.0, rng=make_rng(seed))
    return ds, one_hot(ds.y, 4)


# schedule -------------------------------------------------------------

def test_schedule_five_batches_three_components():
    sched = Schedule(5, 3)
    assert sched.total_units() == 7
    assert sched.sequential_tasks() == 15
    # last component finishes the last batch at the last unit
    assert sched.batch_at(7, 3) == 5
    assert sched.batch_at(1, 2) is None


def test_schedule_all_components_active_from_unit_c():
    trace = Schedule(5, 3).trace()
    assert len(trace) == 7
    assert trace[2] == [(1, 3), (2, 2), (3, 1)]
    for active in trace:
        batches = [m for _, m in active]
        assert len(batches) == len(set(batches))


def test_schedule_every_pair_exactly_once():
    sched = Schedule(4, 3)
    seen = [pair for active in sched.trace() for pair in active]
    assert len(seen) == sched.sequential_tasks()
    assert len(set(seen)) == len(seen)


def test_schedule_without_batches_spans_no_units():
    sched = Schedule(0, 3)
    assert sched.total_units() == 0
    assert sched.sequential_tasks() == 0
    assert sched.trace() == []


# sequential trainer ---------------------------------------------------

def record_updates(monkeypatch, before=None) -> list:
    """Wrap train.component_update; returns the list it appends each
    updated component's index to. before(comp, calls), when given, runs
    ahead of each update."""
    calls = []
    update = train_mod.component_update

    def recording(comp, s, t, lr):
        calls.append(comp.index)
        if before is not None:
            before(comp, calls)
        return update(comp, s, t, lr)

    monkeypatch.setattr(train_mod, "component_update", recording)
    return calls


def test_sequential_losses_finite_and_trace_length(monkeypatch):
    net = build_network(get_plan("blobs"), make_rng(1))
    ds, y1 = blob_setup(seed=2)
    trace = record_updates(monkeypatch)
    rec, _ = train_epoch(net, ds.X, y1, 8, make_rng(3), 1, "al-seq")
    assert trace == list(range(1, net.n_components + 1)) * 5
    assert all(np.isfinite(v) for v in rec.mse1 + rec.mse2)
    assert rec.mode == "al-seq"


def test_sequential_zero_lr_changes_nothing():
    net = build_network(get_plan("blobs"), make_rng(4))
    net.lr = 0.0
    before = [(n, p.copy()) for n, p in params(net)]
    ds, y1 = blob_setup(seed=5)
    train_epoch(net, ds.X, y1, 8, make_rng(6), 1, "al-seq")
    for (name, old), (_, new) in zip(before, params(net)):
        assert np.array_equal(old, new), name


def test_sequential_divergence_names_batch():
    # al-seq, al-pipe and bp all raise the stage's own NumericError and
    # number the failing batch from 1, in one "epoch e, batch m: ..." form;
    # al-pipe's message is al-seq's at depth 1 and at free depth, whether
    # the poisoned component runs on the caller or on a worker thread.
    ds, y1 = blob_setup(seed=8)

    def message(model, mode, depth=None) -> str:
        with pytest.raises(NumericError) as raised:
            train_epoch(model, ds.X, y1, 8, make_rng(9), 1, mode, depth)
        assert type(raised.value) is NumericError
        return str(raised.value)

    bp = BPNetwork([8, 16, 4], make_rng(7))
    bp.stack.layers[0].W[:] = np.nan
    assert re.fullmatch("epoch 1, batch 1: loss diverged", message(bp, "bp"))
    for comp in (1, 2):
        said = []
        for mode, depth in (("al-seq", None), ("al-pipe", 1),
                            ("al-pipe", None)):
            net = build_network(get_plan("blobs"), make_rng(7))
            net.components[comp - 1].f.layers[0].W[:] = np.nan
            said.append(message(net, mode, depth))
        assert re.match(rf"epoch 1, batch 1: .*component {comp}", said[0])
        assert said == [said[0]] * 3


@pytest.mark.parametrize("mode", ["al-seq", "bp"])
def test_a_failed_batch_leaves_nothing_the_next_batch_reads(mode):
    # A NaN batch fails part way, after some forwards (and in al-seq flow
    # 2's backward) have run; the next batch's forward and backward replace
    # whatever it left, so A, the failure, then B trains the bits of A
    # then B.
    def model():
        if mode == "bp":
            return BPNetwork([8, 16, 4], make_rng(40), lr=1e-3)
        return build_network(get_plan("blobs"), make_rng(40), lr=1e-3)

    A, B, bad = make_rng(41).normal(size=(3, 6, 8))
    y = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    bad[2, 1] = np.nan
    failed, twin = model(), model()
    train_epoch(failed, A, y, 6, make_rng(42), 0, mode)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            train_epoch(failed, bad, y, 6, make_rng(43), 1, mode)
    train_epoch(failed, B, y, 6, make_rng(44), 2, mode)
    train_epoch(twin, A, y, 6, make_rng(42), 0, mode)
    train_epoch(twin, B, y, 6, make_rng(44), 2, mode)
    assert [(n, p.tobytes()) for n, p in params(failed)] == [
        (n, p.tobytes()) for n, p in params(twin)]


def test_xor_single_component_reaches_full_accuracy():
    ds = synth_xor()
    net = build_network(get_plan("xor"), make_rng(10), lr=1e-3)
    y1 = one_hot(ds.y, 2)
    shuffle = make_rng(11)
    acc = 0.0
    for _ in range(2000):
        train_epoch(net, ds.X, y1, 4, shuffle, 1, "al-seq")
        acc = evaluate(net, ds)
        if acc == 1.0:
            break
    assert acc == 1.0


# pipelined trainer ----------------------------------------------------

def test_pipeline_depth_one_matches_sequential_bit_exact():
    plan = get_plan("blobs")
    seq_net = build_network(plan, make_rng(12))
    pipe_net = copy.deepcopy(seq_net)
    ds, y1 = blob_setup(seed=13)

    rec_seq, _ = train_epoch(seq_net, ds.X, y1, 8, make_rng(14), 1,
                             "al-seq")
    rec_pipe, report = train_epoch(pipe_net, ds.X, y1, 8, make_rng(14), 1,
                                   "al-pipe", depth=1)
    for (name, a), (_, b) in zip(params(seq_net), params(pipe_net)):
        assert np.array_equal(a, b), name
    assert rec_seq.mse1 == rec_pipe.mse1
    assert rec_seq.mse2 == rec_pipe.mse2
    assert rec_seq.train_loss == rec_pipe.train_loss
    assert report.time_units == 5 + 2 - 1


def test_pipeline_free_depth_matches_sequential_bit_exact():
    # messages carry pre-update activations, so overlap cannot change the
    # parameter trajectory, only the wall clock
    plan = get_plan("desk-3")
    ds = synth_blobs(48, 784, 10, separation=6.0, rng=make_rng(15))
    y1 = one_hot(ds.y, 10)
    seq_net = build_network(plan, make_rng(16))
    pipe_net = copy.deepcopy(seq_net)
    train_epoch(seq_net, ds.X, y1, 16, make_rng(17), 1, "al-seq")
    _, report = train_epoch(pipe_net, ds.X, y1, 16, make_rng(17), 1,
                            "al-pipe")
    for (name, a), (_, b) in zip(params(seq_net), params(pipe_net)):
        assert np.array_equal(a, b), name
    assert report.time_units == 3 + 3 - 1
    assert all(0.0 <= f <= 1.0 for f in report.busy_fraction)


def test_pipeline_depth_one_failure_leaves_sequential_state(monkeypatch):
    # With one batch in flight no stage runs ahead of the failing one: when
    # component 2 fails on batch 3, component 1 has trained on batches 1-3
    # and component 2 on batches 1-2, exactly as after the al-seq failure.
    def nan_on_batch_3(comp, calls):
        if comp.index == 2 and calls.count(2) == 3:
            comp.f.layers[0].W[:] = np.nan

    plan = get_plan("blobs")
    seq_net = build_network(plan, make_rng(45))
    pipe_net = copy.deepcopy(seq_net)
    ds, y1 = blob_setup(seed=46)
    record_updates(monkeypatch, nan_on_batch_3)
    with pytest.raises(NumericError,
                       match=r"epoch 1, batch 3: .*component 2") as seq:
        train_epoch(seq_net, ds.X, y1, 8, make_rng(47), 1, "al-seq")
    record_updates(monkeypatch, nan_on_batch_3)
    with pytest.raises(NumericError) as pipe:
        train_epoch(pipe_net, ds.X, y1, 8, make_rng(47), 1, "al-pipe",
                    depth=1)
    assert str(pipe.value) == str(seq.value)
    for (name, a), (_, b) in zip(params(seq_net), params(pipe_net)):
        assert a.tobytes() == b.tobytes(), name


def test_pipeline_divergence_propagates():
    net = build_network(get_plan("blobs"), make_rng(18))
    net.components[1].f.layers[0].W[:] = np.nan
    ds, y1 = blob_setup(seed=19)
    with pytest.raises(NumericError, match="^epoch 1, batch 1: non-finite "
                                           "values in component 2 "):
        train_epoch(net, ds.X, y1, 8, make_rng(20), 1, "al-pipe")


# the heap a pipelined epoch releases -------------------------------------

@pytest.fixture
def heap_releases(monkeypatch) -> list:
    """Spy on train._release_free_heap: one entry per call, the threads
    alive then that were not alive when the fixture was made."""
    before = set(threading.enumerate())
    calls = []
    monkeypatch.setattr(train_mod, "_release_free_heap", lambda: calls.append(
        set(threading.enumerate()) - before))
    return calls


def test_pipelined_epoch_releases_the_heap_around_its_workers(
        monkeypatch, heap_releases):
    # Once before any stage-2 worker exists, once after every one has
    # joined; stage 2 records that it ran on a thread of its own.
    stage2_threads = set()

    def note_thread(comp, calls):
        if comp.index == 2:
            stage2_threads.add(threading.current_thread())

    record_updates(monkeypatch, note_thread)
    net = build_network(get_plan("blobs"), make_rng(33))
    ds, y1 = blob_setup(seed=34)
    train_epoch(net, ds.X, y1, 8, make_rng(35), 1, "al-pipe")
    assert heap_releases == [set(), set()]
    assert len(stage2_threads) == 1
    assert not stage2_threads & {threading.main_thread()}


def test_failed_pipelined_epoch_still_releases_the_heap_twice(
        monkeypatch, heap_releases):
    def fail_on_batch_2(comp, calls):
        if comp.index == 2 and calls.count(2) == 2:
            raise NumericError("stage 2 gives up")

    record_updates(monkeypatch, fail_on_batch_2)
    net = build_network(get_plan("blobs"), make_rng(33))
    ds, y1 = blob_setup(seed=34)
    with pytest.raises(NumericError,
                       match="^epoch 1, batch 2: stage 2 gives up$"):
        train_epoch(net, ds.X, y1, 8, make_rng(35), 1, "al-pipe")
    assert heap_releases == [set(), set()]


@pytest.mark.parametrize("mode", ["al-seq", "bp"])
def test_inline_epochs_never_release_the_heap(heap_releases, mode):
    model = (build_network(get_plan("blobs"), make_rng(33))
             if mode == "al-seq" else BPNetwork([8, 16, 4], make_rng(33)))
    ds, y1 = blob_setup(seed=34)
    train_epoch(model, ds.X, y1, 8, make_rng(35), 1, mode)
    assert heap_releases == []


def test_bench_pipeline_runs_its_pipeline_under_the_training_policy(
        monkeypatch):
    # The inline baseline borrows nothing; the pipelined run pins OpenBLAS
    # and releases the heap before its workers start and after they join.
    before = set(threading.enumerate())
    events = []
    monkeypatch.setattr(train_mod, "_release_free_heap", lambda: events.append(
        ("release", set(threading.enumerate()) - before)))
    monkeypatch.setattr(train_mod, "time", SimpleNamespace(
        perf_counter=time.perf_counter,
        sleep=lambda s: events.append(("stage", blas.threads()))))
    with blas.pinned_threads(2):
        caller = blas.threads()
        if caller not in (None, 2):
            pytest.skip("OpenBLAS did not accept 2 threads")
        bench_pipeline(3, 2, 0.0)
        assert blas.threads() == caller
    pinned = None if caller is None else PIPELINE_BLAS_THREADS
    assert events == ([("stage", caller)] * 6 + [("release", set())]
                      + [("stage", pinned)] * 6 + [("release", set())])


def test_failed_run_pipeline_releases_the_heap_and_restores_blas(
        heap_releases):
    def boom(v):
        raise ValueError("stage 2 gives up")

    with blas.pinned_threads(2):
        caller = blas.threads()
        with pytest.raises(ValueError, match="^stage 2 gives up$"):
            run_pipeline([lambda v: v, boom], ((m, m) for m in range(1, 4)))
        assert blas.threads() == caller
    assert heap_releases == [set(), set()]


def test_a_worker_that_cannot_start_stops_the_started_ones(
        monkeypatch, heap_releases):
    # The second of a three-stage pipeline's two workers fails to start:
    # the first, already waiting on its queue, is stopped and joined.
    made = []

    class SecondFailsToStart(threading.Thread):
        def start(self):
            made.append(self)
            if len(made) == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(train_mod, "Thread", SecondFailsToStart)
    with blas.pinned_threads(2):
        caller = blas.threads()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            run_pipeline([lambda v: v] * 3, ((m, m) for m in range(1, 4)))
        assert blas.threads() == caller
    assert len(made) == 2
    assert not any(t.is_alive() for t in made)
    assert heap_releases == [set(), set()]


def test_run_pipeline_times_no_heap_release(monkeypatch):
    monkeypatch.setattr(train_mod, "_release_free_heap",
                        lambda: time.sleep(0.2))
    report = run_pipeline([lambda v: v] * 2, ((m, m) for m in range(1, 4)))
    assert report.completed == 3
    assert report.wall_clock < 0.1, report.wall_clock


def test_pipelined_epoch_without_malloc_trim_matches_sequential(monkeypatch):
    monkeypatch.setattr(train_mod, "_malloc_trim", lambda: None)
    seq_net = build_network(get_plan("blobs"), make_rng(12))
    pipe_net = copy.deepcopy(seq_net)
    ds, y1 = blob_setup(seed=13)
    rec_seq, _ = train_epoch(seq_net, ds.X, y1, 8, make_rng(14), 1, "al-seq")
    rec_pipe, _ = train_epoch(pipe_net, ds.X, y1, 8, make_rng(14), 1,
                              "al-pipe")
    for (name, a), (_, b) in zip(params(seq_net), params(pipe_net)):
        assert a.tobytes() == b.tobytes(), name
    assert rec_seq.train_loss == rec_pipe.train_loss


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _has_malloc_trim() -> bool:
    try:
        ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return False
    return os.path.exists("/proc/self/statm")


@pytest.mark.skipif(not _has_malloc_trim(),
                    reason="needs glibc's malloc_trim and /proc/self/statm")
def test_pipelined_epoch_leaves_no_freed_worker_heap_resident(monkeypatch):
    # Stage 2 runs on a worker thread, so glibc serves it from a malloc
    # arena of its own. Each of its calls fills `freed` bytes in 64 KiB
    # blocks (below the mmap threshold, so they come from the arena) and
    # keeps one block allocated after them, so the freed run sits below a
    # live block and free() cannot shrink the arena over it. Without a
    # release after the workers join, those pages stay resident.
    freed, block = 16 * 2**20, 2**16
    kept = []

    def churn(comp, calls):
        if comp.index == 2:
            blocks = [np.ones(block // 8) for _ in range(freed // block)]
            kept.append(np.ones(block // 8))
            del blocks

    record_updates(monkeypatch, churn)
    net = build_network(get_plan("blobs"), make_rng(33))
    ds, y1 = blob_setup(seed=34)
    gc.collect()
    before = _resident_bytes()
    train_epoch(net, ds.X, y1, 8, make_rng(35), 1, "al-pipe")
    grown = _resident_bytes() - before
    assert len(kept) == 5
    assert grown < freed // 4, grown


# one epoch loop ---------------------------------------------------------

def reference_al_epoch(net, X, y1, batch_size, rng):
    """The al-seq epoch as one inline loop: per shuffled batch, component 1
    through C, each trained at net.lr on the pre-update outputs of the one
    below. Returns (mse1, mse2, train_loss), the row-weighted means."""
    sums1 = np.zeros(net.n_components)
    sums2 = np.zeros(net.n_components)
    for idx in BatchIterator(X.shape[0], batch_size, rng):
        s, t = X[idx], y1[idx]
        for k, comp in enumerate(net.components):
            s, t, rec = component_update(comp, s, t, net.lr)
            sums1[k] += rec.mse1 * len(idx)
            sums2[k] += rec.mse2 * len(idx)
    n = X.shape[0]
    return ([float(v) for v in sums1 / n], [float(v) for v in sums2 / n],
            float((sums1 + sums2).sum() / n))


def reference_bp_epoch(net, X, y1, batch_size, rng):
    """The bp epoch as one inline loop; (mse1, mse2, train_loss) with the
    batch losses weighted by batch size."""
    total = 0.0
    for idx in BatchIterator(X.shape[0], batch_size, rng):
        total += net.train_batch(X[idx], y1[idx]) * len(idx)
    return [], [], total / X.shape[0]


@pytest.mark.parametrize("plan_name", ["blobs", "desk-3"])
@pytest.mark.parametrize("mode,depth", [("al-seq", None), ("al-pipe", None),
                                        ("al-pipe", 1), ("bp", None)],
                         ids=["al-seq", "al-pipe", "al-pipe-depth1", "bp"])
def test_train_epoch_matches_the_reference_loop_bit_for_bit(plan_name, mode,
                                                            depth):
    plan = get_plan(plan_name)
    ds = synth_blobs(48, plan.input_dim, plan.target_dim, separation=6.0,
                     rng=make_rng(15))
    y1 = one_hot(ds.y, plan.target_dim)
    if mode == "bp":
        model = build_bp_network(match_effective_params(plan), make_rng(16),
                                 lr=1e-3)
        reference = reference_bp_epoch
    else:
        model = build_network(plan, make_rng(16), lr=1e-3)
        reference = reference_al_epoch
    ref_model = copy.deepcopy(model)
    shuffle, ref_shuffle = make_rng(17), make_rng(17)
    for epoch in (1, 2):
        rec, report = train_epoch(model, ds.X, y1, 16, shuffle, epoch, mode,
                                  depth)
        assert (rec.epoch, rec.mode) == (epoch, mode)
        assert (rec.mse1, rec.mse2, rec.train_loss) == reference(
            ref_model, ds.X, y1, 16, ref_shuffle)
        assert (report is None) == (mode != "al-pipe")
    _assert_same_bits(model, ref_model)


# run_pipeline core ----------------------------------------------------

def test_run_pipeline_preserves_order():
    seen = []
    double = [lambda p: (p[0], p[1] * 2),
              lambda p: seen.append((p[0], p[1] + 1))]
    run = run_pipeline(double, ((i, (i, i)) for i in range(1, 20)))
    assert [bid for bid, _ in seen] == list(range(1, 20))
    assert [out for _, out in seen] == [i * 2 + 1 for i in range(1, 20)]
    assert run.completed == 19


@pytest.mark.parametrize("n_stages,n_batches,units",
                         [(1, 1, 1), (2, 7, 8), (3, 4, 6), (3, 0, 0)],
                         ids=["1-1", "2-7", "3-4", "3-0"])
def test_run_pipeline_report_counts_completed_batches(n_stages, n_batches,
                                                      units):
    report = run_pipeline([lambda v: v] * n_stages,
                          ((i, i) for i in range(1, n_batches + 1)))
    assert report.completed == n_batches
    assert report.time_units == units
    assert len(report.busy_fraction) == n_stages


def test_run_pipeline_keeps_no_finished_batch():
    class Out:
        pass

    refs = []

    def last(v):
        out = Out()
        refs.append(weakref.ref(out))
        return out

    run = run_pipeline([lambda v: v, last], ((i, i) for i in range(1, 9)))
    assert len(refs) == 8
    assert sum(r() is not None for r in refs) == 0
    assert run.completed == 8


def _boom(stage: int, bad_batch: int | None = None):
    """(stage function, thrown): a stage that passes its payload on but
    raises ValueError("stage k: boom on m") on batch bad_batch, or on any
    batch when None, and the list of the exceptions it raised."""
    thrown = []

    def boom(v):
        if bad_batch in (None, v):
            thrown.append(ValueError(f"stage {stage}: boom on {v}"))
            raise thrown[-1]
        return v

    return boom, thrown


def test_run_pipeline_stage_error_no_deadlock():
    boom, thrown = _boom(1, 3)
    with pytest.raises(ValueError, match="^stage 1: boom on 3$") as raised:
        run_pipeline([boom, lambda v: v],
                     ((i, i) for i in range(1, 50)))
    assert len(thrown) == 1 and raised.value is thrown[0]


def _run_in_thread(fn) -> list:
    """Run fn in a daemon thread joined with a 10 s timeout; returns the
    exceptions it raised."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as e:
            raised.append(e)

    t = Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=10.0)
    assert not t.is_alive()
    return raised


@pytest.mark.parametrize("bad_batch", [1, 3], ids="batch{}".format)
@pytest.mark.parametrize("depth", [1, 2, None], ids="depth{}".format)
@pytest.mark.parametrize("failing_stage", [1, 2, 3], ids="stage{}".format)
def test_run_pipeline_error_with_depth_cap_no_deadlock(
        monkeypatch, failing_stage, depth, bad_batch):
    # Every in-flight token comes back exactly once, whichever stage fails
    # on whichever batch: a bounded semaphore raises on a second release,
    # and a token never released leaves the feeder blocked.
    monkeypatch.setattr(train_mod, "Semaphore", BoundedSemaphore)
    stages = [lambda v: v] * 3
    stages[failing_stage - 1], thrown = _boom(failing_stage, bad_batch)
    raised = _run_in_thread(lambda: run_pipeline(
        stages, ((i, i) for i in range(1, 50)), depth=depth))
    assert len(raised) == len(thrown) == 1 and raised[0] is thrown[0]
    assert str(raised[0]) == f"stage {failing_stage}: boom on {bad_batch}"


@pytest.mark.parametrize("failing_stage", [0, 1])
def test_run_pipeline_first_batch_error_depth_one_returns(failing_stage):
    # With depth=1 the feeder waits for batch 1's token, which only the
    # failing stage can hand back.
    stages = [lambda v: v, lambda v: v]
    stages[failing_stage], thrown = _boom(failing_stage + 1)
    raised = _run_in_thread(lambda: run_pipeline(
        stages, ((i, i) for i in range(1, 50)), depth=1))
    assert len(raised) == len(thrown) == 1 and raised[0] is thrown[0]
    assert str(raised[0]) == f"stage {failing_stage + 1}: boom on 1"


def _barrier_stages(n_components: int, n_batches: int, timeout: float):
    """One stage per component that waits at one shared barrier of C
    parties on every batch it holds at a unit where Schedule.trace() has
    all C components busy. Each stage has n - C + 1 such batches, met in
    unit order, so the schedule completes only if the C stages really
    run at the same time."""
    barrier = Barrier(n_components, timeout=timeout)
    full = {(c, m) for active in Schedule(n_batches, n_components).trace()
            if len(active) == n_components for c, m in active}

    def make_stage(c: int):
        def stage(m):
            if (c, m) in full:
                barrier.wait()
            return m
        return stage

    return [make_stage(c) for c in range(1, n_components + 1)]


@pytest.mark.parametrize("n_components,n_batches",
                         [(2, 20), (3, 30), (4, 50)],
                         ids=["2-20", "3-30", "4-50"])
def test_run_pipeline_runs_every_stage_at_once(n_components, n_batches):
    stages = _barrier_stages(n_components, n_batches, timeout=10.0)
    report = run_pipeline(stages, ((m, m) for m in range(1, n_batches + 1)))
    assert report.completed == n_batches
    assert report.time_units == n_batches + n_components - 1


def test_run_pipeline_depth_one_breaks_the_overlap_barrier():
    # One batch in flight leaves the other stages idle, so the first
    # stage to reach the barrier waits out its timeout.
    stages = _barrier_stages(2, 6, timeout=0.2)
    with pytest.raises(BrokenBarrierError):
        run_pipeline(stages, ((m, m) for m in range(1, 7)), depth=1)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_run_pipeline_keeps_at_most_depth_batches_in_flight(depth):
    # A batch is in flight from the start of stage 1 to the end of the
    # last stage; at depth=C = 3 the overlap barrier makes the count
    # reach depth, so the cap is also met, not only respected.
    lock = Lock()
    count = peak = 0

    def enter(m):
        nonlocal count, peak
        with lock:
            count += 1
            peak = max(peak, count)
        return m

    def leave(m):
        nonlocal count
        with lock:
            count -= 1
        return m

    n_batches = 30
    inner = (_barrier_stages(3, n_batches, timeout=10.0) if depth == 3
             else [lambda m: m] * 3)
    stages = [lambda m: inner[0](enter(m)), inner[1],
              lambda m: leave(inner[2](m))]
    report = run_pipeline(stages, ((m, m) for m in range(1, n_batches + 1)),
                          depth=depth)
    assert report.completed == n_batches
    assert count == 0
    assert 1 <= peak <= depth
    if depth == 3:
        assert peak == 3


def test_run_pipeline_rejects_nonmonotone_ids():
    feed = iter([(2, "a"), (1, "b")])
    with pytest.raises(StateError, match="^stage 1: batch 1 arrived after 2$"):
        run_pipeline([lambda v: v], feed)


@pytest.fixture
def counted_threads(monkeypatch):
    """Every Thread that run_pipeline makes, so a test can count them and
    see whether any is still alive."""
    made = []

    class Counted(Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(train_mod, "Thread", Counted)
    return made


@pytest.mark.parametrize("n_stages", [1, 2, 3])
def test_run_pipeline_runs_stage_one_on_the_caller(counted_threads,
                                                   n_stages):
    # The calling thread runs stage 1 and each later stage has a thread of
    # its own, so C stages start C - 1 threads.
    seen = [set() for _ in range(n_stages)]

    def make_stage(k):
        def stage(m):
            seen[k].add(get_ident())
            return m
        return stage

    report = run_pipeline([make_stage(k) for k in range(n_stages)],
                          ((m, m) for m in range(1, 9)))
    assert report.completed == 8
    assert len(report.busy_fraction) == n_stages
    assert len(counted_threads) == n_stages - 1
    assert seen[0] == {get_ident()}
    assert all(len(idents) == 1 for idents in seen)
    assert len(set.union(*seen)) == n_stages
    assert {t.ident for t in counted_threads} == set().union(*seen[1:])


@pytest.mark.parametrize("depth", [1, None], ids="depth{}".format)
@pytest.mark.parametrize("good_batches", [0, 3])
def test_run_pipeline_feed_error_propagates_unchanged(counted_threads,
                                                      good_batches, depth):
    # An exception from the feed itself is not a stage failure: it leaves
    # run_pipeline as it is, after every worker has stopped.
    broken = OSError("feed broke")

    def feed():
        yield from ((m, m) for m in range(1, good_batches + 1))
        raise broken

    raised = _run_in_thread(
        lambda: run_pipeline([lambda v: v] * 3, feed(), depth=depth))
    assert len(raised) == 1 and raised[0] is broken
    assert len(counted_threads) == 2
    assert not any(t.is_alive() for t in counted_threads)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_stage", [1, 2, 3], ids="stage{}".format)
def test_run_pipeline_reraises_the_failing_stages_own_exception(
        counted_threads, heap_releases, failing_stage, error):
    # The caller gets the object the stage raised, unchanged, a Ctrl-C in
    # stage 1 (which runs on the caller's thread) included, once every
    # worker has joined and the heap has been released twice.
    thrown = error(f"stage {failing_stage} gives up")

    def fail_on_batch_2(v):
        if v == 2:
            raise thrown
        return v

    stages = [lambda v: v] * 3
    stages[failing_stage - 1] = fail_on_batch_2
    with pytest.raises(error) as raised:
        run_pipeline(stages, ((m, m) for m in range(1, 9)))
    assert raised.value is thrown
    assert len(counted_threads) == 2
    assert not any(t.is_alive() for t in counted_threads)
    assert heap_releases == [set(), set()]


def _interrupted_run(counted_threads, heap_releases) -> None:
    """Run a three-stage run_pipeline over 8 batches in a thread of its
    own, with OpenBLAS on 2 threads there, and check what an interrupt in
    its shutdown leaves: the caller gets the KeyboardInterrupt once every
    batch has gone through, every worker has joined, the heap has been
    released twice with no worker alive, and BLAS is back on 2 threads."""
    finished, runner, blas_after = [], [], []

    def run():
        runner.append(threading.current_thread())
        with blas.pinned_threads(2):
            caller = blas.threads()
            try:
                run_pipeline([lambda v: v] * 2 + [finished.append],
                             ((m, m) for m in range(1, 9)))
            finally:
                blas_after.append((caller, blas.threads()))

    raised = _run_in_thread(run)
    assert len(raised) == 1 and type(raised[0]) is KeyboardInterrupt
    assert finished == list(range(1, 9))
    assert len(counted_threads) == 2
    assert not any(t.is_alive() for t in counted_threads)
    assert heap_releases == [set(runner), set(runner)]
    [(caller, after)] = blas_after
    assert after == caller


def test_an_interrupted_stop_sentinel_still_stops_the_workers(
        monkeypatch, counted_threads, heap_releases):
    # Ctrl-C lands in the caller's put of stage 1's stop sentinel, before
    # it is queued: the put runs again, so stage 2 is not left waiting.
    interrupted = []

    class StopPutInterrupted(train_mod.Queue):
        def put(self, item, *args, **kwargs):
            if (item is train_mod._STOP and not interrupted
                    and threading.current_thread() not in counted_threads):
                interrupted.append(item)
                raise KeyboardInterrupt
            super().put(item, *args, **kwargs)

    monkeypatch.setattr(train_mod, "Queue", StopPutInterrupted)
    _interrupted_run(counted_threads, heap_releases)
    assert len(interrupted) == 1


def test_an_interrupted_join_still_joins_every_worker(
        monkeypatch, counted_threads, heap_releases):
    # Ctrl-C lands in the caller's first join: it joins again, joins the
    # other worker and releases the heap a second time before it raises.
    joins = []

    class FirstJoinInterrupted(train_mod.Thread):
        def join(self, *args, **kwargs):
            joins.append(self)
            if len(joins) == 1:
                raise KeyboardInterrupt
            super().join(*args, **kwargs)

    monkeypatch.setattr(train_mod, "Thread", FirstJoinInterrupted)
    _interrupted_run(counted_threads, heap_releases)
    assert joins[:2] == [counted_threads[0]] * 2


@pytest.mark.parametrize("bad_batch", [1, 3], ids="batch{}".format)
@pytest.mark.parametrize("failing_stage", [2, 3], ids="stage{}".format)
def test_run_pipeline_starts_no_batch_after_a_later_stage_failed(
        failing_stage, bad_batch):
    # At depth 1 the caller takes batch m + 1's token only once batch m has
    # left the pipeline, so it has seen a later stage's failure by then
    # and runs stage 1 on no further batch.
    started = []

    def first(v):
        started.append(v)
        return v

    stages = [first, lambda v: v, lambda v: v]
    stages[failing_stage - 1], thrown = _boom(failing_stage, bad_batch)
    raised = _run_in_thread(lambda: run_pipeline(
        stages, ((m, m) for m in range(1, 50)), depth=1))
    assert len(raised) == len(thrown) == 1 and raised[0] is thrown[0]
    assert str(raised[0]) == f"stage {failing_stage}: boom on {bad_batch}"
    assert started == list(range(1, bad_batch + 1))


def test_run_pipeline_validation():
    with pytest.raises(ConfigError, match="stage"):
        run_pipeline([], iter([]))
    with pytest.raises(ConfigError, match="depth"):
        run_pipeline([lambda v: v], iter([]), depth=0)


# learning-rate schedule -----------------------------------------------

def test_lr_schedule_steps():
    drops = [80, 120, 160, 180]
    assert lr_at_epoch(1e-4, drops, 0.5, 1) == 1e-4
    assert lr_at_epoch(1e-4, drops, 0.5, 80) == 1e-4
    assert lr_at_epoch(1e-4, drops, 0.5, 81) == 5e-5
    assert lr_at_epoch(1e-4, drops, 0.5, 121) == 2.5e-5
    assert lr_at_epoch(1e-4, drops, 0.5, 200) == 1e-4 * 0.5 ** 4
    assert lr_at_epoch(1e-3, [], 0.5, 500) == 1e-3


# fit ------------------------------------------------------------------

def test_fit_zero_epochs_no_mutation_no_checkpoint(tmp_path):
    net = build_network(get_plan("blobs"), make_rng(21))
    before = [(n, p.copy()) for n, p in params(net)]
    ds, _ = blob_setup(seed=22)
    result = fit(net, ds, ds, mode="al-seq", epochs=0, batch_size=8,
                 rng=make_rng(23), seed=21, out_dir=tmp_path)
    assert len(result.records) == 1
    assert result.records[0].epoch == 0
    assert result.checkpoint_path is None
    assert not (tmp_path / "checkpoint.bin").exists()
    for (name, old), (_, new) in zip(before, params(net)):
        assert np.array_equal(old, new), name


def test_fit_deterministic_same_seed():
    def run():
        net = build_network(get_plan("blobs"), make_rng(24))
        ds, _ = blob_setup(seed=25)
        res = fit(net, ds, ds, mode="al-seq", epochs=3, batch_size=8,
                  rng=make_rng(26), seed=24, lr=1e-3, lr_drops=[])
        return res.final.test_accuracy

    assert run() == run()


def test_fit_writes_best_checkpoint(tmp_path):
    net = build_network(get_plan("blobs"), make_rng(27))
    ds, _ = blob_setup(seed=28)
    result = fit(net, ds, ds, mode="al-seq", epochs=2, batch_size=8,
                 rng=make_rng(29), seed=27, lr=1e-3, lr_drops=[],
                 out_dir=tmp_path)
    assert result.checkpoint_path == str(tmp_path / "checkpoint.bin")
    restored, header = load(result.checkpoint_path)
    assert header["extra"]["test_accuracy"] == result.best_test_accuracy
    assert header["epoch"] == result.best_epoch
    assert restored.n_components == 2


def test_fit_applies_lr_schedule():
    net = build_network(get_plan("blobs"), make_rng(30))
    ds, _ = blob_setup(seed=31)
    fit(net, ds, ds, mode="al-seq", epochs=2, batch_size=8,
        rng=make_rng(32), seed=30, lr=1e-3, lr_drops=[1], lr_factor=0.5)
    assert net.lr == 5e-4


def test_fit_pipelined_collects_reports():
    net = build_network(get_plan("blobs"), make_rng(33))
    ds, _ = blob_setup(seed=34)
    result = fit(net, ds, ds, mode="al-pipe", epochs=2, batch_size=8,
                 rng=make_rng(35), seed=33, lr=1e-3, lr_drops=[])
    assert len(result.reports) == 2
    assert all(r.time_units == 5 + 2 - 1 for r in result.reports)


def test_fit_bp_mode():
    net = BPNetwork([8, 16, 4], make_rng(36), lr=1e-3)
    ds, _ = blob_setup(seed=37, n=64)
    result = fit(net, ds, ds, mode="bp", epochs=3, batch_size=16,
                 rng=make_rng(38), seed=36, lr=1e-3, lr_drops=[])
    assert result.final.mode == "bp"
    assert result.final.train_loss is not None
    assert result.best_test_accuracy is not None


def test_fit_bp_train_accuracy_is_the_chunked_evaluation():
    net = BPNetwork([8, 16, 4], make_rng(36), lr=1e-3)
    ds, _ = blob_setup(seed=37, n=64)
    test, _ = blob_setup(seed=38, n=24)
    result = fit(net, ds, test, mode="bp", epochs=1, batch_size=16,
                 rng=make_rng(38), seed=36, lr=1e-3, lr_drops=[],
                 eval_chunk=24)
    assert result.final.train_accuracy == evaluate(net, ds)
    assert result.final.test_accuracy == evaluate(net, test)


def _traced_fit_peak(n: int) -> int:
    """tracemalloc peak of a 1-epoch bp fit on n rows; the datasets are
    made before tracing starts."""
    ds = synth_blobs(n, 16, 4, separation=6.0, rng=make_rng(90))
    test = synth_blobs(64, 16, 4, separation=6.0, rng=make_rng(91))
    net = BPNetwork([16, 64, 256, 64, 4], make_rng(93))
    tracemalloc.start()
    try:
        fit(net, ds, test, mode="bp", epochs=1, batch_size=64,
            rng=make_rng(94), seed=93, lr_drops=(), eval_chunk=512)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_bp_evaluation_memory_does_not_grow_with_rows():
    # The post-epoch train-accuracy pass runs in eval_chunk rows, so the
    # traced peak (numpy reports its buffers to tracemalloc) is set by
    # the chunk and the widest layer, not by the training-set size. A
    # whole-set pass over the 6144 extra rows would add 12.6 MB for one
    # 256-wide activation alone; per-row bookkeeping (targets, shuffle
    # order, predicted classes) adds well under 1 MB.
    small = _traced_fit_peak(2048)
    large = _traced_fit_peak(4 * 2048)
    assert large - small < 2**20, (small, large)


@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
def test_fit_leaves_no_gradient_and_no_training_cache(mode):
    # Each step consumes its gradients and each backward its cache, so
    # neither outlives the batch that made it.
    ds, _ = blob_setup(seed=76, n=48)
    model = (BPNetwork([8, 16, 4], make_rng(77)) if mode == "bp"
             else build_network(get_plan("blobs"), make_rng(77)))
    fit(model, ds, ds, mode=mode, epochs=1, batch_size=16,
        rng=make_rng(78), seed=77, lr_drops=())
    for name, layer in model.named_layers():
        assert all(a is None for a in
                   (layer.grad_W, layer.grad_b, layer._cache)), name


def test_fit_retains_parameters_and_adam_state_only():
    # After an al-seq fit of desk-mlp the model holds its parameters, the
    # two Adam moments of each and each optimizer's work array; a copy
    # of the gradients would add one more parameter size (5.8 MB).
    plan = get_plan("desk-mlp")
    ds = synth_blobs(1024, plan.input_dim, plan.target_dim,
                     separation=6.0, rng=make_rng(95))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        net = build_network(plan, make_rng(96))
        fit(net, ds, ds, mode="al-seq", epochs=1, batch_size=128,
            rng=make_rng(97), seed=96, lr=1e-3, lr_drops=())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    param_bytes = sum(a.nbytes for _, a in params(net))
    work_bytes = sum(opt._work.nbytes for opt in _optimizers(net))
    assert retained <= 3 * param_bytes + work_bytes + 2**20, (
        retained, param_bytes, work_bytes)


@pytest.mark.parametrize("mode", ["al-seq", "bp"])
@pytest.mark.parametrize("key,value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -1e-3), ("lr", 0),
    ("lr", 0.0), ("lr", True), ("lr", "1e-3"), ("lr", None),
    ("lr_factor", float("nan")), ("lr_factor", 0.0), ("lr_factor", -0.5),
    ("lr_factor", float("inf")), ("lr_factor", False),
    ("lr_drops", [1.5]), ("lr_drops", [True]), ("lr_drops", ["1"]),
    ("lr_drops", (1, None)), ("lr_drops", None), ("lr_drops", 1),
    ("lr_drops", "1"),
])
def test_fit_rejects_a_bad_rate_schedule_before_any_work(tmp_path, mode,
                                                         key, value):
    if mode == "bp":
        model = BPNetwork([8, 16, 4], make_rng(39))
    else:
        model = build_network(get_plan("blobs"), make_rng(39))
    before = [a.copy() for _, a in params(model)]
    ds, _ = blob_setup(seed=40)
    kwargs = {"lr": 1e-3, "lr_drops": [1], "lr_factor": 0.5, key: value}
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        fit(model, ds, ds, mode=mode, epochs=2, batch_size=8,
            rng=make_rng(41), seed=39, out_dir=tmp_path, **kwargs)
    assert all(a.tobytes() == b.tobytes()
               for a, (_, b) in zip(before, params(model)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["al-pipe", "bp"])
@pytest.mark.parametrize("case", ["missing", "a-file"])
def test_fit_rejects_an_out_dir_that_is_no_directory_before_any_work(
        tmp_path, mode, case):
    if mode == "bp":
        model = BPNetwork([8, 16, 4], make_rng(39))
    else:
        model = build_network(get_plan("blobs"), make_rng(39))
    before = [a.copy() for _, a in params(model)]
    ds, _ = blob_setup(seed=40)
    out_dir = tmp_path / "run"
    if case == "a-file":
        out_dir.write_text("")
    with pytest.raises(ConfigError, match=re.escape(
            f"out_dir {str(out_dir)!r} is not a directory")):
        fit(model, ds, ds, mode=mode, epochs=1, batch_size=8,
            rng=make_rng(41), seed=39, out_dir=out_dir)
    assert all(a.tobytes() == b.tobytes()
               for a, (_, b) in zip(before, params(model)))
    assert [p.name for p in tmp_path.iterdir()] == (
        ["run"] if case == "a-file" else [])


def test_fit_mode_validation():
    net = build_network(get_plan("blobs"), make_rng(39))
    ds, _ = blob_setup(seed=40)
    with pytest.raises(ConfigError, match="mode"):
        fit(net, ds, ds, mode="magic", epochs=1, batch_size=8,
            rng=make_rng(41), seed=39)
    with pytest.raises(ConfigError, match="mode bp needs a model of kind "
                                          "'bp', got 'al'"):
        fit(net, ds, ds, mode="bp", epochs=1, batch_size=8,
            rng=make_rng(41), seed=39)
    with pytest.raises(ConfigError, match="mode al-pipe needs a model of "
                                          "kind 'al', got 'bp'"):
        fit(BPNetwork([8, 4], make_rng(39)), ds, ds, mode="al-pipe",
            epochs=1, batch_size=8, rng=make_rng(41), seed=39)


@pytest.mark.parametrize("kind,mode,message", [
    ("al", "magic", "mode must be one of"),
    ("al", "bp", "mode bp needs a model of kind 'bp', got 'al'"),
    ("bp", "al-seq", "mode al-seq needs a model of kind 'al', got 'bp'"),
], ids=["unknown", "bp-on-al", "al-on-bp"])
def test_train_epoch_checks_the_mode_as_fit_does(kind, mode, message):
    model = (build_network(get_plan("blobs"), make_rng(39)) if kind == "al"
             else BPNetwork([8, 4], make_rng(39)))
    before = [a.copy() for _, a in params(model)]
    ds, y1 = blob_setup(seed=40)
    with pytest.raises(ConfigError, match=message) as from_fit:
        fit(model, ds, ds, mode=mode, epochs=1, batch_size=8,
            rng=make_rng(41), seed=39)
    with pytest.raises(ConfigError) as from_epoch:
        train_epoch(model, ds.X, y1, 8, make_rng(41), 1, mode)
    assert str(from_epoch.value) == str(from_fit.value)
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(before, params(model)))


@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
def test_train_epoch_rejects_a_depth_below_one_in_every_mode(monkeypatch,
                                                             mode):
    model = (BPNetwork([8, 4], make_rng(39)) if mode == "bp"
             else build_network(get_plan("blobs"), make_rng(39)))
    before = [a.copy() for _, a in params(model)]
    calls = record_updates(monkeypatch)
    ds, y1 = blob_setup(seed=40)
    with pytest.raises(ConfigError,
                       match=r"^pipeline depth must be >= 1, got 0$"):
        train_epoch(model, ds.X, y1, 8, make_rng(41), 1, mode, depth=0)
    assert calls == []
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(before, params(model)))


@pytest.mark.parametrize("key,value", [
    ("eval_chunk", 0), ("eval_chunk", -5), ("eval_chunk", 2.5),
    ("epochs", 2.5), ("batch_size", 2.5), ("batch_size", 0),
    ("epochs", False), ("batch_size", True), ("eval_chunk", True),
], ids=["0", "-5", "2.5", "epochs-2.5", "batch_size-2.5", "batch_size-0",
        "epochs-False", "batch_size-True", "eval_chunk-True"])
def test_fit_rejects_eval_chunk_before_training(key, value):
    net = build_network(get_plan("blobs"), make_rng(39))
    before = [a.copy() for _, a in params(net)]
    ds, _ = blob_setup(seed=40)
    kwargs = {"epochs": 1, "batch_size": 8, key: value}
    with pytest.raises(ConfigError,
                       match=f"{key} must be an int >= ., got {value}"):
        fit(net, ds, ds, mode="al-seq", rng=make_rng(41), seed=39, **kwargs)
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(before, params(net)))


@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
@pytest.mark.parametrize("seed", [-1, True, 3.0, "3"], ids=repr)
def test_fit_rejects_a_seed_a_checkpoint_cannot_hold(tmp_path, mode, seed):
    # The seed goes into checkpoint.bin, and checkpoint.load takes only an
    # int >= 0 there, so fit refuses any other before it trains or writes.
    model = (BPNetwork([8, 16, 4], make_rng(39)) if mode == "bp"
             else build_network(get_plan("blobs"), make_rng(39)))
    before = [a.copy() for _, a in params(model)]
    ds, _ = blob_setup(seed=40)
    with pytest.raises(ConfigError, match=re.escape(
            f"seed must be an int >= 0, got {seed!r}")):
        fit(model, ds, ds, mode=mode, epochs=1, batch_size=8,
            rng=make_rng(41), seed=seed, out_dir=tmp_path)
    assert all(a.tobytes() == b.tobytes()
               for a, (_, b) in zip(before, params(model)))
    assert list(tmp_path.iterdir()) == []


def test_fit_rejects_negative_epochs_before_any_work(tmp_path):
    net = build_network(get_plan("blobs"), make_rng(39))
    before = [a.copy() for _, a in params(net)]
    ds, _ = blob_setup(seed=40)
    with pytest.raises(ConfigError,
                       match="epochs must be an int >= 0, got -2"):
        fit(net, ds, ds, mode="al-seq", epochs=-2, batch_size=8,
            rng=make_rng(41), seed=39, out_dir=tmp_path)
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(before, params(net)))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["train-wide", "test-wide",
                                  "test-classes", "train-empty",
                                  "test-empty", "train-empty-0-epochs"])
@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
def test_fit_rejects_mismatched_datasets_before_training(mode, case):
    # The blobs plan and its bp stack take 8 features and 4 classes; a
    # dataset of another width or class count, or with no rows, fails
    # before any update, at any epoch count.
    if mode == "bp":
        model = build_bp_network(match_effective_params(get_plan("blobs")),
                                 make_rng(95))
    else:
        model = build_network(get_plan("blobs"), make_rng(95))
    before = [a.copy() for _, a in params(model)]
    ds, _ = blob_setup(seed=96)
    width, classes = (8, 3) if case == "test-classes" else (9, 4)
    odd = synth_blobs(40, width, classes, 6.0, make_rng(97))
    says = "expects 8 features / 4 classes"
    if "empty" in case:
        odd = Dataset(X=np.zeros((0, 8)), y=np.zeros(0), n_classes=4)
        says = f"{case.split('-')[0]} set is empty"
    train, test = (odd, ds) if case.startswith("train") else (ds, odd)
    with pytest.raises(ConfigError, match=says):
        fit(model, train, test, mode=mode, batch_size=8, rng=make_rng(98),
            seed=95, lr=1e-2, epochs=0 if case.endswith("0-epochs") else 1)
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(before, params(model)))


def _optimizers(model):
    if isinstance(model, BPNetwork):
        return [model.opt]
    return [opt for c in model.components
            for opt in (c.opt_f, c.opt_g, c.opt_b, c.opt_h)]


@pytest.fixture
def step_grads(monkeypatch) -> list:
    """Every gradient each BlockAdam.step is given, read before the step
    consumes it."""
    seen = []
    step = nn.BlockAdam.step

    def reading(opt, lr):
        seen.extend(opt.block.grad_arrays())
        return step(opt, lr)

    monkeypatch.setattr(nn.BlockAdam, "step", reading)
    return seen


@pytest.mark.parametrize("plan_name", ["blobs", "desk-mlp"])
def test_float32_tensors_train_in_float32(plan_name, step_grads):
    # nn decides no dtype: a net whose tensors were cast to float32,
    # trained on float32 data, keeps every tensor, gradient, Adam moment
    # and work array in float32, and al-seq and al-pipe stay bit-equal
    # (desk-mlp's 784-wide input runs the K-sliced products).
    plan = get_plan(plan_name)
    ds = synth_blobs(48, plan.input_dim, plan.target_dim, separation=6.0,
                     rng=make_rng(70))
    X = ds.X.astype(np.float32)
    y1 = one_hot(ds.y, plan.target_dim).astype(np.float32)
    seq_net = build_network(plan, make_rng(71))
    bp_net = build_bp_network(match_effective_params(plan), make_rng(71))
    _cast_float32(seq_net, bp_net)
    pipe_net = copy.deepcopy(seq_net)
    for mode, model in (("al-seq", seq_net), ("al-pipe", pipe_net),
                        ("bp", bp_net)):
        train_epoch(model, X, y1, 16, make_rng(72), 1, mode)
    _assert_all_float32(step_grads, seq_net, pipe_net, bp_net)
    _assert_same_bits(seq_net, pipe_net)


def _cast_float32(*models):
    for model in models:
        for opt in _optimizers(model):
            for layer in opt.block.layers:
                layer.W = layer.W.astype(np.float32)
                layer.bias = layer.bias.astype(np.float32)


def _assert_all_float32(grads, *models):
    """Every gradient a step was given, and every tensor, Adam moment and
    work array, is float32."""
    assert grads and {g.dtype for g in grads} == {np.dtype(np.float32)}
    for model in models:
        for opt in _optimizers(model):
            arrays = (opt.block.param_arrays() + opt.m + opt.v
                      + [opt._work])
            assert len(opt.m) == len(opt.v) == len(opt.block.param_arrays())
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


def _assert_same_bits(net_a, net_b):
    for (name, a), (_, b) in zip(params(net_a), params(net_b)):
        assert a.tobytes() == b.tobytes(), name


def test_fit_builds_targets_in_the_data_dtype(step_grads):
    # fit's one-hot targets follow train_ds.X, so a float32 net on
    # float32 data trains its g/h flows in float32 as well, and al-seq
    # and al-pipe stay bit-equal.
    ds, _ = blob_setup(seed=73, n=48)
    ds.X = ds.X.astype(np.float32)
    seq_net = build_network(get_plan("blobs"), make_rng(74))
    _cast_float32(seq_net)
    pipe_net = copy.deepcopy(seq_net)
    for mode, net in (("al-seq", seq_net), ("al-pipe", pipe_net)):
        fit(net, ds, ds, mode=mode, epochs=1, batch_size=16,
            rng=make_rng(75), seed=74, lr=1e-3, lr_drops=())
    _assert_all_float32(step_grads, seq_net, pipe_net)
    _assert_same_bits(seq_net, pipe_net)


def _seeded_fit_bytes(mode, csv_path):
    """(parameter bytes, metrics.csv bytes, model) of a seeded 2-epoch
    fit on the blobs plan or a bp net of its size."""
    ds, _ = blob_setup(seed=60, n=96)
    if mode == "bp":
        model = BPNetwork([8, 16, 4], make_rng(61))
    else:
        model = build_network(get_plan("blobs"), make_rng(61))
    result = fit(model, ds, ds, mode=mode, epochs=2, batch_size=32,
                 rng=make_rng(62), seed=61, lr=1e-2, lr_drops=(),
                 eval_chunk=40)
    write_metrics_csv(csv_path, result.records, 2)
    return (b"".join(a.tobytes() for _, a in params(model)),
            csv_path.read_bytes(), model)


@pytest.mark.parametrize("mode", ["al-seq", "al-pipe", "bp"])
def test_fit_bits_do_not_depend_on_the_block_size(mode, tmp_path,
                                                   monkeypatch):
    params, csv, _ = _seeded_fit_bytes(mode, tmp_path / "default.csv")
    monkeypatch.setattr(nn, "BLOCK_ELEMS", 7)
    small_params, small_csv, model = _seeded_fit_bytes(
        mode, tmp_path / "small.csv")
    assert small_params == params and small_csv == csv
    works = [opt._work for opt in _optimizers(model)]
    for opt in _optimizers(model):
        widest_row = max(p.shape[-1] for p in opt.block.param_arrays())
        assert opt._work.size <= 7 + widest_row
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(works) for b in works[i + 1:])


def test_fit_mse2_trend_three_epochs():
    # smoke: the reconstruction loss falls over three epochs for 3 seeds
    for seed in (42, 43, 44):
        net = build_network(get_plan("blobs"), make_rng(seed), lr=1e-3)
        ds, y1 = blob_setup(seed=seed + 100, n=96)
        recs = [train_epoch(net, ds.X, y1, 16, make_rng(seed + 200), e,
                            "al-seq")[0] for e in range(1, 4)]
        first = sum(recs[0].mse2)
        last = sum(recs[-1].mse2)
        assert last < first


# bench ----------------------------------------------------------------

def _bench_runs(n_batches, components, task_cost_ms, runs=5):
    """The reports of `runs` bench_pipeline calls and their median
    speedup. One sleep-timed speedup can land outside a bound when the
    host delays a single sleep; the median judges the scheduler."""
    results = [bench_pipeline(n_batches, components, task_cost_ms)
               for _ in range(runs)]
    return ([report for _, report in results],
            statistics.median(seq / report.wall_clock
                              for seq, report in results))


def test_bench_single_component_no_speedup():
    reports, speedup = _bench_runs(n_batches=8, components=1,
                                   task_cost_ms=1.0)
    assert all(report.time_units == 8 for report in reports)
    assert 0.5 < speedup < 1.5


def test_bench_reports_schedule_numbers():
    reports, speedup = _bench_runs(n_batches=6, components=3,
                                   task_cost_ms=0.5)
    for report in reports:
        assert report.completed == 6
        assert report.time_units == 8
        assert len(report.busy_fraction) == 3
    assert speedup > 1.0


def test_bench_validation():
    for n_batches, components in ((0, 2), (4, 0), (2.5, 2), (4, 2.5),
                                  (True, 2), (4, True)):
        with pytest.raises(ConfigError):
            bench_pipeline(n_batches, components, 1.0)
