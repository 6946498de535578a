"""Release checklist: one test per go/no-go criterion, ten criteria.

Every test prints exactly one `[criterion NN] PASS/FAIL/SKIP` line on
the terminal (capture disabled) so a full run reads as a checklist.
Criteria tied to the real image-digit files run only when AL_DATA_DIR
points at them; without the files those tests print SKIP, and where the
property itself is data-independent a synthetic stand-in of matching
geometry runs it anyway, saying so in its line.
"""

import copy
import time

import numpy as np
import pytest

from conftest import MNIST_DIR, given_layer, params

from assoclearn.al_core import (
    Component,
    ComponentPlan,
    NetworkPlan,
    build_network,
    component_forward,
    component_update,
    get_plan,
    gradcheck_network,
    inference_layers,
)
from assoclearn.bp import build_bp_network, gradcheck_bp, match_effective_params
from assoclearn.data import (
    Dataset,
    load_mnist,
    mnist_subset,
    one_hot,
    synth_blobs,
)
from assoclearn.linalg import make_rng
from assoclearn.metrics import evaluate, geometry_report
from assoclearn.nn import DenseLayer, MLPBlock, grad_check_block, make_block
from assoclearn.train import (
    Schedule,
    bench_pipeline,
    fit,
    train_epoch,
)

MNIST_REASON = ("image-digit IDX files not found (AL_DATA_DIR unset or "
                "incomplete; the build sandbox has no network route to a "
                "dataset mirror)")


def note(capsys, num, status, detail):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {status:<4s} {detail}")


def check(capsys, num, ok, detail):
    note(capsys, num, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {num:02d}: {detail}"


def skip_without_mnist(capsys, num, what):
    if MNIST_DIR is None:
        note(capsys, num, "SKIP", f"{what}: {MNIST_REASON}")
        pytest.skip(f"criterion {num:02d}: {MNIST_REASON}")


_mnist_cache: dict = {}


def mnist_full_sets():
    if "full" not in _mnist_cache:
        _mnist_cache["full"] = load_mnist(MNIST_DIR)
    return _mnist_cache["full"]


def mnist_desk_sets():
    if "desk" not in _mnist_cache:
        train, test = mnist_full_sets()
        _mnist_cache["desk"] = mnist_subset(train, test, seed=0)
    return _mnist_cache["desk"]


def params_of(block):
    return [np.array(p, copy=True) for p in block.param_arrays()]


def identity_block(dim):
    return MLPBlock([given_layer(np.eye(dim))])


# shared synthetic workloads -------------------------------------------

def _trend_plan():
    # three components of growing depth on an 8-feature 4-class task
    return NetworkPlan(
        name="trend-3", input_dim=8, target_dim=4,
        components=[
            ComponentPlan(f=[8, 16], g=[4, 8], b=[16, 8], h=[8, 4]),
            ComponentPlan(f=[16, 16], g=[8, 8], b=[16, 8], h=[8, 8]),
            ComponentPlan(f=[16, 16], g=[8, 8], b=[16, 16, 8], h=[8, 8]),
        ])


@pytest.fixture(scope="module")
def trend_runs():
    """Three trained trend-3 nets on separable blobs, one per seed."""
    runs = []
    for s in (1, 2, 3):
        ds = synth_blobs(384, 8, 4, 6.0, make_rng(100 + s))
        train = Dataset(X=ds.X[:256], y=ds.y[:256], n_classes=4)
        test = Dataset(X=ds.X[256:], y=ds.y[256:], n_classes=4)
        net = build_network(_trend_plan(), make_rng(200 + s), lr=3e-3)
        y1 = one_hot(train.y, 4)
        shuffle = make_rng(300 + s)
        for e in range(1, 151):
            train_epoch(net, train.X, y1, 32, shuffle, e, "al-seq")
        # evaluation-mode mse1 of each component over the whole train set
        s, t, profile = train.X, y1, []
        for c in net.components:
            s, t, rec = component_forward(c, s, t)
            profile.append(rec.mse1)
        runs.append({"profile": profile,
                     "geometry": geometry_report(test, net)})
    return runs


@pytest.fixture(scope="module")
def desk_standin():
    """784-dim 10-class blobs shaped like the image subset (6000/1000)."""
    ds = synth_blobs(7000, 784, 10, 4.0, make_rng(500))
    train = Dataset(X=ds.X[:6000], y=ds.y[:6000], n_classes=10)
    test = Dataset(X=ds.X[6000:], y=ds.y[6000:], n_classes=10)
    return train, test


# 1: gradient correctness ----------------------------------------------

def test_criterion_01_gradient_correctness(capsys):
    t0 = time.perf_counter()
    worst = {}

    rng = make_rng(40)
    for act in ("identity", "elu", "sigmoid"):
        blk = make_block([6, 9, 5], act, rng)
        x = rng.normal(size=(7, 6))
        tgt = rng.uniform(size=(7, 5))
        worst[f"block-{act}"] = grad_check_block(blk, x, tgt)

    bp_plan = match_effective_params(get_plan("blobs"))
    xb = make_rng(42).uniform(size=(5, 8))
    yb = np.eye(4)[make_rng(43).integers(0, 4, size=5)]
    for head in ("softmax", "mse"):
        bp = build_bp_network(bp_plan, make_rng(41), head=head)
        worst[f"bp-{head}"] = gradcheck_bp(bp, xb, yb)

    net = build_network(get_plan("blobs"), make_rng(45))
    x = make_rng(46).uniform(size=(6, 8))
    y1 = np.eye(4)[make_rng(47).integers(0, 4, size=6)]
    res = gradcheck_network(net, x, y1)
    cross = res.pop("cross")
    worst.update(res)

    toy = NetworkPlan(
        "toy3", 4, 3,
        [ComponentPlan(f=[4, 5], g=[3, 4], b=[5, 4], h=[4, 3]),
         ComponentPlan(f=[5, 5], g=[4, 4], b=[5, 4], h=[4, 4]),
         ComponentPlan(f=[5, 4], g=[4, 3], b=[4, 3], h=[3, 4])])
    net3 = build_network(toy, make_rng(17))
    rng3 = make_rng(18)
    res = gradcheck_network(net3, rng3.normal(size=(2, 4)),
                            np.eye(3)[rng3.integers(0, 3, size=2)])
    cross = max(cross, res.pop("cross"))
    worst.update({f"toy3-{k}": v for k, v in res.items()})

    wall = time.perf_counter() - t0
    rel = max(worst.values())
    ok = rel < 1e-4 and cross < 1e-7 and wall < 60.0
    check(capsys, 1, ok,
          f"gradients: max rel err {rel:.2e} over {len(worst)} suites "
          f"(< 1e-4), cross-component |fd| {cross:.2e} (< 1e-7), "
          f"{wall:.1f}s (< 60s)")


# 2: flow separation ---------------------------------------------------

def test_criterion_02_flow_separation(capsys):
    dim = 3
    rng = make_rng(5)

    # identity g and h: mse2 is exactly zero, so only flow 1 may move
    comp = Component(1,
                     MLPBlock([DenseLayer(dim, dim, "elu", rng=rng)]),
                     identity_block(dim),
                     MLPBlock([DenseLayer(dim, dim, "sigmoid", rng=rng)]),
                     identity_block(dim))
    g0, h0, f0 = params_of(comp.g), params_of(comp.h), params_of(comp.f)
    _, _, rec = component_update(comp, make_rng(6).normal(size=(4, dim)),
                                 make_rng(7).normal(size=(4, dim)), 1e-4)
    a = (rec.mse2 == 0.0
         and all(np.array_equal(p, q)
                 for p, q in zip(g0, comp.g.param_arrays()))
         and all(np.array_equal(p, q)
                 for p, q in zip(h0, comp.h.param_arrays()))
         and any(not np.array_equal(p, q)
                 for p, q in zip(f0, comp.f.param_arrays())))

    # b cloned from g with s == t: mse1 is exactly zero, only flow 2 moves
    g = MLPBlock([DenseLayer(dim, dim, "sigmoid", rng=make_rng(8))])
    comp = Component(1, identity_block(dim), g, copy.deepcopy(g),
                     MLPBlock([DenseLayer(dim, dim, "sigmoid",
                                          rng=make_rng(9))]))
    f0, b0, g0 = params_of(comp.f), params_of(comp.b), params_of(comp.g)
    x = make_rng(10).normal(size=(4, dim))
    _, _, rec = component_update(comp, x, x.copy(), 1e-4)
    b = (rec.mse1 == 0.0
         and all(np.array_equal(p, q)
                 for p, q in zip(f0, comp.f.param_arrays()))
         and all(np.array_equal(p, q)
                 for p, q in zip(b0, comp.b.param_arrays()))
         and any(not np.array_equal(p, q)
                 for p, q in zip(g0, comp.g.param_arrays())))

    check(capsys, 2, a and b,
          "flow separation: a bridge-loss-only update leaves g and h "
          "bit-identical, a reconstruction-only update leaves f and b "
          "bit-identical")


# 3: inference invariance ----------------------------------------------

def test_criterion_03_inference_invariance(capsys):
    ds = synth_blobs(256, 8, 4, 8.0, make_rng(50))
    net = build_network(get_plan("blobs"), make_rng(51), lr=1e-3)
    y1 = one_hot(ds.y, 4)
    for e in range(1, 4):
        train_epoch(net, ds.X, y1, 32, make_rng(52 + e), e, "al-seq")

    probe = make_rng(60).uniform(size=(64, 8))
    logits, classes = net.predict(probe)
    g_w = np.array(net.components[0].g.layers[0].W, copy=True)
    used = {id(layer) for layer in inference_layers(net)}
    for _, layer in net.named_layers():
        if id(layer) not in used:
            layer.W = layer.W + 1000.0
            layer.bias = layer.bias + 1000.0
    assert not np.array_equal(g_w, net.components[0].g.layers[0].W)
    logits2, classes2 = net.predict(probe)

    ok = np.array_equal(logits, logits2) and np.array_equal(classes, classes2)
    check(capsys, 3, ok,
          "inference invariance: outputs of a trained net are "
          "bit-identical after +1000.0 on every affiliated tensor")


# 4: pipeline schedule -------------------------------------------------

def test_criterion_04_schedule(capsys):
    s = Schedule(5, 3)
    base = s.total_units() == 7 and s.sequential_tasks() == 15
    general = all(
        Schedule(n, c).total_units() == n + c - 1
        and Schedule(n, c).sequential_tasks() == n * c
        for n, c in ((1, 1), (2, 5), (8, 3), (64, 4)))
    pairs = [(comp, batch) for unit in Schedule(8, 3).trace()
             for comp, batch in unit]
    coverage = (len(pairs) == 24 and len(set(pairs)) == 24)
    check(capsys, 4, base and general and coverage,
          "schedule: 5 batches x 3 components fill 7 units vs 15 "
          "sequential tasks; n+C-1 vs n*C holds generally, every "
          "(component, batch) pair runs exactly once")


# 5: depth-1 pipeline equivalence --------------------------------------

def _depth1_equivalence(train_ds, seed):
    y1 = one_hot(train_ds.y, 10)
    net_seq = build_network(get_plan("desk-mlp"), make_rng(seed), lr=1e-3)
    net_pipe = copy.deepcopy(net_seq)
    rng_seq = make_rng(seed + 1)
    recs_seq = [train_epoch(net_seq, train_ds.X, y1, 128, rng_seq, e,
                            "al-seq")[0]
                for e in (1, 2)]
    rng_pipe = make_rng(seed + 1)
    recs_pipe = [train_epoch(net_pipe, train_ds.X, y1, 128, rng_pipe, e,
                             "al-pipe", depth=1)[0]
                 for e in (1, 2)]
    params_equal = all(
        np.array_equal(pa, pb)
        for (_, pa), (_, pb) in zip(params(net_seq), params(net_pipe)))
    records_equal = all(
        ra.mse1 == rb.mse1 and ra.mse2 == rb.mse2
        and ra.train_loss == rb.train_loss
        for ra, rb in zip(recs_seq, recs_pipe))
    return params_equal, records_equal


def test_criterion_05_depth1_equivalence_standin(capsys, desk_standin):
    t0 = time.perf_counter()
    train_ds, _ = desk_standin
    params_equal, records_equal = _depth1_equivalence(train_ds, seed=900)
    wall = time.perf_counter() - t0
    ok = params_equal and records_equal and wall < 120.0
    check(capsys, 5, ok,
          f"depth-1 pipeline == sequential on a synthetic 784-dim "
          f"10-class stand-in (6000 rows, 2 epochs): parameters and "
          f"loss records bit-identical, {wall:.0f}s (< 120s)")


@pytest.mark.mnist
def test_criterion_05_depth1_equivalence_mnist(capsys):
    skip_without_mnist(capsys, 5, "depth-1 pipeline equivalence on the "
                                  "image subset")
    t0 = time.perf_counter()
    train_ds, _ = mnist_desk_sets()
    params_equal, records_equal = _depth1_equivalence(train_ds, seed=910)
    wall = time.perf_counter() - t0
    ok = params_equal and records_equal and wall < 120.0
    check(capsys, 5, ok,
          f"depth-1 pipeline == sequential on the image subset (6000 "
          f"rows, 2 epochs): parameters and loss records bit-identical, "
          f"{wall:.0f}s (< 120s)")


# 6: pipeline throughput -----------------------------------------------

def test_criterion_06_throughput(capsys):
    t0 = time.perf_counter()
    attempts = 1
    seq_wall, report = bench_pipeline(64, 4, 5.0)
    speedup = seq_wall / report.wall_clock
    if speedup < 2.5:
        # wall-clock bench; retry once to ride out scheduler noise
        attempts = 2
        seq_wall, report = bench_pipeline(64, 4, 5.0)
        speedup = max(speedup, seq_wall / report.wall_clock)
    wall = time.perf_counter() - t0
    ok = speedup >= 2.5 and wall < 10.0
    ideal = 64 * 4 / (64 + 4 - 1)
    check(capsys, 6, ok,
          f"throughput: 64 batches x 4 components at 5ms/task run "
          f"{speedup:.2f}x faster pipelined (>= 2.5x needed, ideal "
          f"{ideal:.2f}x, {attempts} attempt(s), {wall:.1f}s < 10s)")


# 7: image-digit accuracy ----------------------------------------------

@pytest.mark.mnist
def test_criterion_07_accuracy_subset(capsys):
    skip_without_mnist(capsys, 7, "subset accuracy")
    train_ds, test_ds = mnist_desk_sets()
    net = build_network(get_plan("desk-mlp"), make_rng(70))
    res = fit(net, train_ds, test_ds, mode="al-seq", epochs=30,
              batch_size=128, rng=make_rng(71), seed=70, lr=1e-3,
              lr_drops=())
    acc = res.final.test_accuracy
    ok = acc >= 0.94 and res.wall_clock < 300.0
    check(capsys, 7, ok,
          f"subset accuracy: {acc:.4f} test accuracy after 30 epochs on "
          f"6000 images (>= 0.94 needed, {res.wall_clock:.0f}s < 300s)")


@pytest.mark.mnist
@pytest.mark.slow
def test_criterion_07_accuracy_full(capsys):
    skip_without_mnist(capsys, 7, "full-set accuracy")
    train_ds, test_ds = mnist_full_sets()
    net = build_network(get_plan("desk-mlp"), make_rng(72))
    res_al = fit(net, train_ds, test_ds, mode="al-seq", epochs=20,
                 batch_size=128, rng=make_rng(73), seed=72, lr=1e-4,
                 lr_drops=())
    bp = build_bp_network(match_effective_params(get_plan("desk-mlp")),
                          make_rng(74))
    res_bp = fit(bp, train_ds, test_ds, mode="bp", epochs=20,
                 batch_size=128, rng=make_rng(75), seed=74, lr=1e-4,
                 lr_drops=())
    al_acc = res_al.final.test_accuracy
    bp_acc = res_bp.final.test_accuracy
    ok = al_acc >= 0.97 and abs(al_acc - bp_acc) <= 0.01
    check(capsys, 7, ok,
          f"full-set accuracy: al {al_acc:.4f} (>= 0.97 needed), bp "
          f"{bp_acc:.4f} (within 1.0pp needed), 20 epochs each")


# 8: associated-loss refinement ----------------------------------------

def test_criterion_08_loss_refinement_standin(capsys, trend_runs):
    profiles = [r["profile"] for r in trend_runs]
    ordered = sum(p[2] < p[1] < p[0] for p in profiles)
    sample = ", ".join(f"{v:.4f}" for v in profiles[0])
    check(capsys, 8, ordered >= 2,
          f"loss refinement on synthetic 3-component runs: bridge fit "
          f"tightens with depth in {ordered}/3 seeds (majority needed; "
          f"seed-1 profile [{sample}])")


@pytest.mark.mnist
def test_criterion_08_loss_refinement_mnist(capsys):
    skip_without_mnist(capsys, 8, "loss refinement on the image subset")
    train_ds, test_ds = mnist_desk_sets()
    ordered = 0
    for s in (80, 81, 82):
        net = build_network(get_plan("desk-3"), make_rng(s))
        fit(net, train_ds, test_ds, mode="al-seq", epochs=30,
            batch_size=128, rng=make_rng(s + 10), seed=s, lr=1e-3,
            lr_drops=())
        s, t, p = train_ds.X, one_hot(train_ds.y, 10), []
        for c in net.components:
            s, t, rec = component_forward(c, s, t)
            p.append(rec.mse1)
        ordered += p[2] < p[1] < p[0]
    check(capsys, 8, ordered >= 2,
          f"loss refinement on the image subset: bridge fit tightens "
          f"with depth in {ordered}/3 seeds (majority needed)")


# 9: metafeature geometry ----------------------------------------------

def test_criterion_09_geometry_standin(capsys, trend_runs):
    reports = [r["geometry"] for r in trend_runs]
    wins = sum(g["al"]["ratio"] > g["raw"]["ratio"] for g in reports)
    g0 = reports[0]
    check(capsys, 9, wins == 3,
          f"metafeature geometry on synthetic runs: learned inter/intra "
          f"ratio beats the raw features in {wins}/3 seeds (seed 1: "
          f"{g0['al']['ratio']:.1f} vs {g0['raw']['ratio']:.1f})")


@pytest.mark.mnist
def test_criterion_09_geometry_mnist(capsys):
    skip_without_mnist(capsys, 9, "metafeature geometry on the image "
                                  "subset")
    train_ds, test_ds = mnist_desk_sets()
    wins = 0
    ratios = []
    for s in (90, 91, 92):
        net = build_network(get_plan("desk-mlp"), make_rng(s))
        fit(net, train_ds, test_ds, mode="al-seq", epochs=30,
            batch_size=128, rng=make_rng(s + 10), seed=s, lr=1e-3,
            lr_drops=())
        bp = build_bp_network(match_effective_params(get_plan("desk-mlp")),
                              make_rng(s))
        fit(bp, train_ds, test_ds, mode="bp", epochs=30, batch_size=128,
            rng=make_rng(s + 20), seed=s, lr=1e-3, lr_drops=())
        rep = {**geometry_report(test_ds, net),
               **geometry_report(test_ds, bp)}
        ratios.append((rep["al"]["ratio"], rep["raw"]["ratio"],
                       rep["bp"]["ratio"]))
        wins += rep["al"]["ratio"] > rep["raw"]["ratio"]
    al0, raw0, bp0 = ratios[0]
    check(capsys, 9, wins == 3,
          f"metafeature geometry on the image subset: learned ratio "
          f"beats raw in {wins}/3 seeds (seed 1: al {al0:.1f}, raw "
          f"{raw0:.1f}; bp {bp0:.1f} reported, not gated)")


# 10: pipelined accuracy parity ----------------------------------------

def _pipe_seq_gap(train_ds, test_ds, seed, epochs):
    y1 = one_hot(train_ds.y, 10)
    net_seq = build_network(get_plan("desk-mlp"), make_rng(seed), lr=1e-3)
    net_pipe = copy.deepcopy(net_seq)
    rng_seq = make_rng(seed + 50)
    for e in range(1, epochs + 1):
        train_epoch(net_seq, train_ds.X, y1, 128, rng_seq, e, "al-seq")
    rng_pipe = make_rng(seed + 50)
    for e in range(1, epochs + 1):
        train_epoch(net_pipe, train_ds.X, y1, 128, rng_pipe, e, "al-pipe")
    return abs(evaluate(net_seq, test_ds) - evaluate(net_pipe, test_ds))


def test_criterion_10_pipeline_parity_standin(capsys, desk_standin):
    train_ds, test_ds = desk_standin
    gaps = [_pipe_seq_gap(train_ds, test_ds, seed, epochs=2)
            for seed in (920, 930, 940)]
    gap = max(gaps)
    check(capsys, 10, gap <= 0.005,
          f"pipelined vs sequential on the synthetic 784-dim stand-in: "
          f"max test-accuracy gap {gap * 100:.3f}pp over 3 seeds "
          f"(<= 0.5pp needed; equal epochs, default queue depth)")


@pytest.mark.mnist
def test_criterion_10_pipeline_parity_mnist(capsys):
    skip_without_mnist(capsys, 10, "pipelined vs sequential accuracy on "
                                   "the image subset")
    train_ds, test_ds = mnist_desk_sets()
    gaps = [_pipe_seq_gap(train_ds, test_ds, seed, epochs=5)
            for seed in (101, 102, 103)]
    gap = max(gaps)
    check(capsys, 10, gap <= 0.005,
          f"pipelined vs sequential on the image subset: max "
          f"test-accuracy gap {gap * 100:.3f}pp over 3 seeds "
          f"(<= 0.5pp needed; equal epochs, default queue depth)")
