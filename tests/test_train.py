import weakref
from threading import Thread

import numpy as np
import pytest

import assoclearn.train as train_mod
from assoclearn.al_core import (
    build_network,
    clone_network,
    get_plan,
    net_param_items,
)
from assoclearn.bp import BPNetwork, bp_train_epoch
from assoclearn.checkpoint import load_al
from assoclearn.data import one_hot, synth_blobs, synth_xor
from assoclearn.errors import ConfigError, NumericError, TrainingError
from assoclearn.linalg import make_rng
from assoclearn.metrics import evaluate_al
from assoclearn.train import (
    Schedule,
    bench_pipeline,
    fit,
    lr_at_epoch,
    run_pipeline,
    train_epoch_pipelined,
    train_epoch_sequential,
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
    assert sched.unit_for(5, 3) == 7
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


# sequential trainer ---------------------------------------------------

def record_updates(monkeypatch, before=None) -> list:
    """Wrap train.component_update; returns the list it appends each
    updated component's index to. before(comp, calls), when given, runs
    ahead of each update."""
    calls = []
    update = train_mod.component_update

    def recording(comp, s, t):
        calls.append(comp.index)
        if before is not None:
            before(comp, calls)
        return update(comp, s, t)

    monkeypatch.setattr(train_mod, "component_update", recording)
    return calls


def test_sequential_losses_finite_and_trace_length(monkeypatch):
    net = build_network(get_plan("blobs"), make_rng(1))
    ds, y1 = blob_setup(seed=2)
    trace = record_updates(monkeypatch)
    rec = train_epoch_sequential(net, ds.X, y1, 8, make_rng(3), epoch=1)
    assert trace == list(range(1, net.n_components + 1)) * 5
    assert all(np.isfinite(v) for v in rec.mse1 + rec.mse2)
    assert rec.mode == "al-seq"


def test_sequential_zero_lr_changes_nothing():
    net = build_network(get_plan("blobs"), make_rng(4))
    net.set_lr(0.0)
    before = [(n, p.copy()) for n, p in net_param_items(net)]
    ds, y1 = blob_setup(seed=5)
    train_epoch_sequential(net, ds.X, y1, 8, make_rng(6))
    for (name, old), (_, new) in zip(before, net_param_items(net)):
        assert np.array_equal(old, new), name


def test_sequential_divergence_names_batch():
    # al-seq, al-pipe and bp all number the failing batch from 1
    ds, y1 = blob_setup(seed=8)
    for epoch_fn in (train_epoch_sequential, train_epoch_pipelined):
        net = build_network(get_plan("blobs"), make_rng(7))
        net.components[0].f.layers[0].W[:] = np.nan
        with pytest.raises((NumericError, TrainingError),
                           match=r"epoch 1, batch 1: .*component 1"):
            epoch_fn(net, ds.X, y1, 8, make_rng(9), epoch=1)
    bp_net = BPNetwork([8, 16, 4], make_rng(7))
    bp_net.stack.layers[0].W[:] = np.nan
    with pytest.raises(NumericError, match=r"epoch 1, batch 1$"):
        bp_train_epoch(bp_net, ds.X, y1, 8, make_rng(9), epoch=1)


def test_xor_single_component_reaches_full_accuracy():
    ds = synth_xor()
    net = build_network(get_plan("xor"), make_rng(10), lr=1e-3)
    y1 = one_hot(ds.y, 2)
    shuffle = make_rng(11)
    acc = 0.0
    for _ in range(2000):
        train_epoch_sequential(net, ds.X, y1, 4, shuffle)
        acc = evaluate_al(net, ds)
        if acc == 1.0:
            break
    assert acc == 1.0


# pipelined trainer ----------------------------------------------------

def test_pipeline_depth_one_matches_sequential_bit_exact():
    plan = get_plan("blobs")
    seq_net = build_network(plan, make_rng(12))
    pipe_net = clone_network(seq_net)
    ds, y1 = blob_setup(seed=13)

    rec_seq = train_epoch_sequential(seq_net, ds.X, y1, 8, make_rng(14))
    rec_pipe, report = train_epoch_pipelined(pipe_net, ds.X, y1, 8,
                                             make_rng(14), capacity=1,
                                             depth=1)
    for (name, a), (_, b) in zip(net_param_items(seq_net),
                                 net_param_items(pipe_net)):
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
    pipe_net = clone_network(seq_net)
    train_epoch_sequential(seq_net, ds.X, y1, 16, make_rng(17))
    _, report = train_epoch_pipelined(pipe_net, ds.X, y1, 16, make_rng(17),
                                      capacity=2)
    for (name, a), (_, b) in zip(net_param_items(seq_net),
                                 net_param_items(pipe_net)):
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
    pipe_net = clone_network(seq_net)
    ds, y1 = blob_setup(seed=46)
    record_updates(monkeypatch, nan_on_batch_3)
    with pytest.raises(NumericError, match=r"epoch 1, batch 3: .*component 2"):
        train_epoch_sequential(seq_net, ds.X, y1, 8, make_rng(47), epoch=1)
    record_updates(monkeypatch, nan_on_batch_3)
    with pytest.raises(TrainingError, match=r"stage 2 failed: epoch 1, batch 3"):
        train_epoch_pipelined(pipe_net, ds.X, y1, 8, make_rng(47), epoch=1,
                              capacity=1, depth=1)
    for (name, a), (_, b) in zip(net_param_items(seq_net),
                                 net_param_items(pipe_net)):
        assert a.tobytes() == b.tobytes(), name


def test_pipeline_divergence_propagates():
    net = build_network(get_plan("blobs"), make_rng(18))
    net.components[1].f.layers[0].W[:] = np.nan
    ds, y1 = blob_setup(seed=19)
    with pytest.raises(TrainingError, match="stage 2"):
        train_epoch_pipelined(net, ds.X, y1, 8, make_rng(20))


# run_pipeline core ----------------------------------------------------

def test_run_pipeline_preserves_order():
    seen = []
    double = [lambda p: (p[0], p[1] * 2),
              lambda p: seen.append((p[0], p[1] + 1))]
    run = run_pipeline(double, ((i, (i, i)) for i in range(1, 20)),
                       capacity=3)
    assert [bid for bid, _ in seen] == list(range(1, 20))
    assert [out for _, out in seen] == [i * 2 + 1 for i in range(1, 20)]
    assert run.completed == 19


@pytest.mark.parametrize("n_stages,n_batches", [(1, 1), (2, 7), (3, 4)])
def test_run_pipeline_report_counts_completed_batches(n_stages, n_batches):
    report = run_pipeline([lambda v: v] * n_stages,
                          ((i, i) for i in range(1, n_batches + 1)))
    assert report.completed == n_batches
    assert report.time_units == n_batches + n_stages - 1
    assert report.speedup is None
    assert len(report.busy_fraction) == n_stages


def test_run_pipeline_keeps_no_finished_batch():
    class Out:
        pass

    refs = []

    def last(v):
        out = Out()
        refs.append(weakref.ref(out))
        return out

    run = run_pipeline([lambda v: v, last], ((i, i) for i in range(1, 9)),
                       capacity=2)
    assert len(refs) == 8
    assert sum(r() is not None for r in refs) == 0
    assert run.completed == 8


def test_run_pipeline_stage_error_no_deadlock():
    def boom(v):
        if v == 3:
            raise ValueError("boom on 3")
        return v

    with pytest.raises(TrainingError, match="stage 1 failed.*boom on 3"):
        run_pipeline([boom, lambda v: v],
                     ((i, i) for i in range(1, 50)), capacity=2)


def test_run_pipeline_error_with_depth_cap_no_deadlock():
    def boom(v):
        if v == 2:
            raise ValueError("boom")
        return v

    with pytest.raises(TrainingError):
        run_pipeline([lambda v: v, boom],
                     ((i, i) for i in range(1, 50)), capacity=1, depth=1)


@pytest.mark.parametrize("failing_stage", [0, 1])
def test_run_pipeline_first_batch_error_depth_one_returns(failing_stage):
    # With depth=1 the feeder waits for batch 1's token, which only the
    # failing stage can hand back.
    def boom(v):
        raise ValueError(f"boom on {v}")

    stages = [lambda v: v, lambda v: v]
    stages[failing_stage] = boom
    raised = []

    def run():
        try:
            run_pipeline(stages, ((i, i) for i in range(1, 50)),
                         capacity=1, depth=1)
        except TrainingError as e:
            raised.append(e)

    t = Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert len(raised) == 1
    assert f"stage {failing_stage + 1} failed: boom on 1" in str(raised[0])


def test_run_pipeline_rejects_nonmonotone_ids():
    feed = iter([(2, "a"), (1, "b")])
    with pytest.raises(TrainingError, match="arrived after"):
        run_pipeline([lambda v: v], feed, capacity=2)


def test_run_pipeline_validation():
    with pytest.raises(ConfigError, match="stage"):
        run_pipeline([], iter([]))
    with pytest.raises(ConfigError, match="capacity"):
        run_pipeline([lambda v: v], iter([]), capacity=0)
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
    before = [(n, p.copy()) for n, p in net_param_items(net)]
    ds, _ = blob_setup(seed=22)
    result = fit(net, ds, ds, mode="al-seq", epochs=0, batch_size=8,
                 rng=make_rng(23), seed=21, out_dir=tmp_path)
    assert len(result.records) == 1
    assert result.records[0].epoch == 0
    assert result.checkpoint_path is None
    assert not (tmp_path / "checkpoint.bin").exists()
    for (name, old), (_, new) in zip(before, net_param_items(net)):
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
    restored, header = load_al(result.checkpoint_path)
    assert header["extra"]["test_accuracy"] == result.best_test_accuracy
    assert header["epoch"] == result.best_epoch
    assert restored.n_components == 2


def test_fit_applies_lr_schedule():
    net = build_network(get_plan("blobs"), make_rng(30))
    ds, _ = blob_setup(seed=31)
    fit(net, ds, ds, mode="al-seq", epochs=2, batch_size=8,
        rng=make_rng(32), seed=30, lr=1e-3, lr_drops=[1], lr_factor=0.5)
    assert net.components[0].opt_f.lr == 5e-4


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


def test_fit_mode_validation():
    net = build_network(get_plan("blobs"), make_rng(39))
    ds, _ = blob_setup(seed=40)
    with pytest.raises(ConfigError, match="mode"):
        fit(net, ds, ds, mode="magic", epochs=1, batch_size=8,
            rng=make_rng(41), seed=39)
    with pytest.raises(ConfigError):
        fit(net, ds, ds, mode="bp", epochs=1, batch_size=8,
            rng=make_rng(41), seed=39)


def test_fit_mse2_trend_three_epochs():
    # smoke: the reconstruction loss falls over three epochs for 3 seeds
    for seed in (42, 43, 44):
        net = build_network(get_plan("blobs"), make_rng(seed), lr=1e-3)
        ds, y1 = blob_setup(seed=seed + 100, n=96)
        recs = [train_epoch_sequential(net, ds.X, y1, 16, make_rng(seed + 200),
                                       epoch=e) for e in range(1, 4)]
        first = sum(recs[0].mse2)
        last = sum(recs[-1].mse2)
        assert last < first


# bench ----------------------------------------------------------------

def test_bench_single_component_no_speedup():
    res = bench_pipeline(n_batches=8, components=1, task_cost_ms=1.0)
    assert res.report.time_units == 8
    assert 0.5 < res.report.speedup < 1.5


def test_bench_reports_schedule_numbers():
    res = bench_pipeline(n_batches=6, components=3, task_cost_ms=0.5)
    assert res.schedule.sequential_tasks() == 18
    assert res.report.time_units == 8
    assert res.report.speedup > 1.0


def test_bench_validation():
    with pytest.raises(ConfigError):
        bench_pipeline(0, 2, 1.0)
    with pytest.raises(ConfigError):
        bench_pipeline(4, 0, 1.0)
