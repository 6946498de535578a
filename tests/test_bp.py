import copy

import numpy as np
import pytest

from assoclearn import nn

from assoclearn.al_core import (
    ComponentPlan,
    NetworkPlan,
    build_network,
    effective_param_count,
    get_plan,
    inference_layers,
    plan_names,
)
from assoclearn.bp import (
    BPNetwork,
    build_bp_network,
    gradcheck_bp,
    match_effective_params,
)
from assoclearn.data import one_hot, synth_blobs
from assoclearn.errors import ConfigError, NumericError, ShapeError
from assoclearn.linalg import make_rng, matmul
from assoclearn.metrics import evaluate
from assoclearn.nn import set_params
from assoclearn.train import train_epoch
from conftest import params


def test_reference_plan_maps_to_quoted_widths():
    bp_plan = match_effective_params(get_plan("reference-mlp"))
    assert bp_plan.widths == [784, 1024, 1024, 5120, 1024, 1024, 10]
    assert bp_plan.feature_layer == 2


def test_param_parity_single_component():
    al_plan = NetworkPlan(
        "c1", 6, 3,
        [ComponentPlan(f=[6, 9], g=[3, 5], b=[9, 5], h=[5, 3])])
    bp_plan = match_effective_params(al_plan)
    al = build_network(al_plan, make_rng(0))
    bp = build_bp_network(bp_plan, make_rng(1))
    assert bp.param_count() == effective_param_count(al)


@pytest.mark.parametrize("name", plan_names())
def test_inference_layers_are_the_baseline_stack(name):
    plan = get_plan(name)
    bp_plan = match_effective_params(plan)
    net = build_network(plan, make_rng(0))
    layers = inference_layers(net)
    widths = [layers[0].fan_in] + [layer.fan_out for layer in layers]
    effective = effective_param_count(net)
    del net, layers  # reference-mlp is large; hold one model at a time
    assert widths == bp_plan.widths
    assert effective == build_bp_network(bp_plan, make_rng(1)).param_count()


def test_param_parity_random_plans():
    rng = make_rng(2)
    for _ in range(5):
        dims = rng.integers(2, 12, size=8)
        in_d, t_d = int(dims[0]), int(dims[1])
        s1, t1, s2, t2 = (int(v) for v in dims[2:6])
        al_plan = NetworkPlan(
            "rand", in_d, t_d,
            [ComponentPlan(f=[in_d, s1], g=[t_d, t1], b=[s1, t1],
                           h=[t1, t_d]),
             ComponentPlan(f=[s1, s2], g=[t1, t2],
                           b=[s2, int(dims[6]) + 2, t2], h=[t2, t1])])
        bp_plan = match_effective_params(al_plan)
        al = build_network(al_plan, make_rng(3))
        bp = build_bp_network(bp_plan, make_rng(4))
        assert bp.param_count() == effective_param_count(al)


@pytest.mark.parametrize("head", ["softmax", "mse"])
def test_gradcheck_full_stack(head):
    rng = make_rng(5)
    net = BPNetwork([4, 6, 5, 3], rng, head=head)
    x = rng.uniform(size=(3, 4))
    y = one_hot(rng.integers(0, 3, size=3), 3)
    assert gradcheck_bp(net, x, y) < 1e-4


def test_bad_head_rejected():
    with pytest.raises(ConfigError, match="head"):
        BPNetwork([4, 3], make_rng(6), head="hinge")


def test_blobs_reach_full_train_accuracy():
    # seed chosen so the three clusters are cleanly separated
    data = synth_blobs(120, 2, 3, separation=10.0, rng=make_rng(8))
    y = one_hot(data.y, data.n_classes)
    net = BPNetwork([2, 16, 3], make_rng(80), lr=1e-3)
    shuffle = make_rng(9)
    acc = 0.0
    for epoch in range(50):
        train_epoch(net, data.X, y, 16, shuffle, epoch, "bp")
        acc = evaluate(net, data)
        if acc == 1.0:
            break
    assert acc == 1.0


def test_first_batch_loss_decreases():
    rng = make_rng(10)
    net = BPNetwork([5, 8, 2], rng, lr=1e-4)
    x = rng.uniform(size=(16, 5))
    y = one_hot(rng.integers(0, 2, size=16), 2)
    before, _ = net.loss(net.stack.forward(x), y)
    net.train_batch(x, y)
    after, _ = net.loss(net.stack.forward(x), y)
    assert after < before


def test_divergence_reports_epoch_and_batch():
    net = BPNetwork([2, 4, 2], make_rng(11), head="mse")
    net.stack.layers[0].W[:] = np.nan
    X = np.zeros((8, 2))
    y = one_hot(np.zeros(8, dtype=int), 2)
    with pytest.raises(NumericError, match=r"epoch 3, batch 1"):
        train_epoch(net, X, y, 4, make_rng(12), 3, "bp")


@pytest.mark.parametrize("head", ["softmax", "mse"])
def test_a_diverged_batch_steps_no_tensor_moment_or_count(head):
    net = BPNetwork([3, 5, 2], make_rng(23), lr=1e-3, head=head)
    rng = make_rng(24)
    X, y = rng.uniform(size=(4, 3)), np.eye(2)[[0, 1, 1, 0]]
    net.train_batch(X, y)                       # moments and t exist
    before = copy.deepcopy((net.stack.param_arrays(), net.opt.m, net.opt.v))
    X[2, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="epoch 0, batch 1: loss "
                                               "diverged"):
            train_epoch(net, X, y, 4, make_rng(25), 0, "bp")
    after = (net.stack.param_arrays(), net.opt.m, net.opt.v)
    assert net.opt.t == 1
    assert [[a.tobytes() for a in arrays] for arrays in after] == [
        [a.tobytes() for a in arrays] for arrays in before]


def test_softmax_head_gradient_at_the_logits_is_closed_form():
    # Logits [30, 0] with true class 1, batch of 2: the head's loss takes
    # the affine last layer's output and returns (p - y) / B, about +-0.5
    # per logit however small p[1] is, and the exact loss 30 + log(1 +
    # e^-30); the layer passes the gradient to its bias unchanged.
    net = BPNetwork([2, 2], make_rng(26))
    set_params(net.named_layers(), [np.eye(2), np.zeros(2)])
    x, y = np.array([[30.0, 0.0], [30.0, 0.0]]), np.eye(2)[[1, 1]]
    logits = net.stack.forward(x, train=True)
    loss, grad = net.loss(logits, y)
    assert np.array_equal(grad, (nn.softmax(logits) - y) / 2)
    assert np.allclose(grad, [[0.5, -0.5]] * 2, rtol=0, atol=1e-12)
    assert loss == pytest.approx(30.0 + np.log1p(np.exp(-30.0)), rel=1e-15)
    net.stack.backward(grad)
    assert np.array_equal(net.stack.layers[0].grad_b,
                          grad.sum(axis=0, keepdims=True))


def test_gradcheck_holds_where_the_softmax_saturates():
    # Every W scaled by 30 puts the logits tens of units apart, so one row
    # is confidently wrong: the finite differences of the exact loss match
    # the gradient (p - y) / B; a loss clipped at any probability reads
    # flat there against a gradient of about 1/B.
    net = BPNetwork([3, 4, 2], make_rng(0))
    for layer in net.stack.layers:
        layer.W *= 30.0
    x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
    assert gradcheck_bp(net, x, np.eye(2)[[0, 1]]) < 1e-6


def test_predict_is_the_row_blocked_softmax_of_the_affine_output():
    # The softmax a softmax layer took block by block, taken once over the
    # whole output: 7000 rows of 10 span three row blocks.
    rng = make_rng(27)
    net = BPNetwork([6, 8, 10], rng)
    x = rng.normal(size=(7000, 6))
    first, last = net.stack.layers
    z = matmul(first.forward(x), last.W)
    for rows in nn.row_blocks(z):
        z[rows] += last.bias
        nn.softmax(z[rows], out=z[rows])
    scores, labels = net.predict(x)
    assert scores.tobytes() == z.tobytes()
    assert np.array_equal(labels, z.argmax(axis=1))


def test_mse_head_trains():
    data = synth_blobs(60, 2, 2, separation=8.0, rng=make_rng(13))
    y = one_hot(data.y, data.n_classes)
    net = BPNetwork([2, 8, 2], make_rng(14), lr=1e-3, head="mse")
    shuffle = make_rng(15)
    first = train_epoch(net, data.X, y, 8, shuffle, 0, "bp")[0].train_loss
    last = first
    for epoch in range(1, 10):
        last = train_epoch(net, data.X, y, 8, shuffle, epoch,
                           "bp")[0].train_loss
    assert last < first


def test_param_items_roundtrip():
    a = BPNetwork([3, 5, 2], make_rng(16))
    b = BPNetwork([3, 5, 2], make_rng(17))
    set_params(b.named_layers(), [p for _, p in params(a)])
    x = make_rng(18).uniform(size=(4, 3))
    assert np.array_equal(a.predict(x)[0], b.predict(x)[0])


def test_set_params_copies_so_training_one_net_leaves_the_other():
    a = BPNetwork([3, 5, 2], make_rng(16))
    b = BPNetwork([3, 5, 2], make_rng(17))
    set_params(b.named_layers(), [p for _, p in params(a)])
    before = [p.copy() for _, p in params(a)]
    rng = make_rng(18)
    b.train_batch(rng.uniform(size=(4, 3)), np.eye(2)[[0, 1, 1, 0]])
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(params(a), before))
    assert not all(np.array_equal(p, q)
                   for (_, p), q in zip(params(b), before))


def test_param_items_wrong_count():
    net = BPNetwork([3, 4, 2], make_rng(19))
    before = [p.tobytes() for _, p in params(net)]
    with pytest.raises(ShapeError, match="expected 4 parameter tensors"):
        set_params(net.named_layers(), [np.zeros((3, 4))])
    assert [p.tobytes() for _, p in params(net)] == before


def test_param_items_wrong_shape_rejected_and_net_untouched():
    net = BPNetwork([3, 5, 2], make_rng(19))
    before = [p.copy() for _, p in params(net)]
    wrong = [np.zeros((4, 6)), np.zeros(6), np.zeros((6, 2)), np.zeros(2)]
    with pytest.raises(ShapeError, match="stack.0"):
        set_params(net.named_layers(), wrong)
    bad_bias = [p.copy() for p in before]
    bad_bias[3] = np.zeros((1, 3))
    with pytest.raises(ShapeError, match="stack.1"):
        set_params(net.named_layers(), bad_bias)
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(params(net), before))


def test_features_shape_matches_feature_layer():
    bp_plan = match_effective_params(get_plan("blobs"))
    net = build_bp_network(bp_plan, make_rng(20))
    x = make_rng(21).uniform(size=(5, 8))
    feats = net.features(x)
    # top forward activation of the source plan is 16 wide
    assert feats.shape == (5, 16)


def test_feature_layer_out_of_range():
    with pytest.raises(ConfigError, match="feature_layer"):
        BPNetwork([4, 3], make_rng(22), feature_layer=5)
