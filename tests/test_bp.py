import numpy as np
import pytest

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
    BPPlan,
    bp_param_items,
    bp_set_params,
    bp_train_epoch,
    build_bp_network,
    gradcheck_bp,
    match_effective_params,
)
from assoclearn.data import one_hot, synth_blobs
from assoclearn.errors import ConfigError, NumericError, ShapeError
from assoclearn.linalg import make_rng


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


def test_plan_roundtrip_through_dict():
    plan = match_effective_params(get_plan("blobs"))
    assert BPPlan.from_dict(plan.to_dict()) == plan


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
        _, acc = bp_train_epoch(net, data.X, y, 16, shuffle, epoch=epoch)
        if acc == 1.0:
            break
    assert acc == 1.0


def test_first_batch_loss_decreases():
    rng = make_rng(10)
    net = BPNetwork([5, 8, 2], rng, lr=1e-4)
    x = rng.uniform(size=(16, 5))
    y = one_hot(rng.integers(0, 2, size=16), 2)
    out = net.forward(x)
    before, _ = net.loss_and_grad(out, y)
    net.train_batch(x, y)
    out = net.forward(x)
    after, _ = net.loss_and_grad(out, y)
    assert after < before


def test_divergence_reports_epoch_and_batch():
    net = BPNetwork([2, 4, 2], make_rng(11), head="mse")
    net.stack.layers[0].W[:] = np.nan
    X = np.zeros((8, 2))
    y = one_hot(np.zeros(8, dtype=int), 2)
    with pytest.raises(NumericError, match=r"epoch 3, batch 1"):
        bp_train_epoch(net, X, y, 4, make_rng(12), epoch=3)


def test_mse_head_trains():
    data = synth_blobs(60, 2, 2, separation=8.0, rng=make_rng(13))
    y = one_hot(data.y, data.n_classes)
    net = BPNetwork([2, 8, 2], make_rng(14), lr=1e-3, head="mse")
    shuffle = make_rng(15)
    first, _ = bp_train_epoch(net, data.X, y, 8, shuffle, epoch=0)
    last = first
    for epoch in range(1, 10):
        last, _ = bp_train_epoch(net, data.X, y, 8, shuffle, epoch=epoch)
    assert last < first


def test_param_items_roundtrip():
    a = BPNetwork([3, 5, 2], make_rng(16))
    b = BPNetwork([3, 5, 2], make_rng(17))
    bp_set_params(b, [p for _, p in bp_param_items(a)])
    x = make_rng(18).uniform(size=(4, 3))
    assert np.array_equal(a.predict(x)[0], b.predict(x)[0])


def test_set_params_copies_so_training_one_net_leaves_the_other():
    a = BPNetwork([3, 5, 2], make_rng(16))
    b = BPNetwork([3, 5, 2], make_rng(17))
    bp_set_params(b, [p for _, p in bp_param_items(a)])
    before = [p.copy() for _, p in bp_param_items(a)]
    rng = make_rng(18)
    b.train_batch(rng.uniform(size=(4, 3)), np.eye(2)[[0, 1, 1, 0]])
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(bp_param_items(a), before))
    assert not all(np.array_equal(p, q)
                   for (_, p), q in zip(bp_param_items(b), before))


def test_param_items_wrong_count():
    net = BPNetwork([3, 4, 2], make_rng(19))
    with pytest.raises(ConfigError):
        bp_set_params(net, [np.zeros((3, 4))])


def test_param_items_wrong_shape_rejected_and_net_untouched():
    net = BPNetwork([3, 5, 2], make_rng(19))
    before = [p.copy() for _, p in bp_param_items(net)]
    wrong = [np.zeros((4, 6)), np.zeros(6), np.zeros((6, 2)), np.zeros(2)]
    with pytest.raises(ShapeError, match="stack.0"):
        bp_set_params(net, wrong)
    bad_bias = [p.copy() for p in before]
    bad_bias[3] = np.zeros((1, 3))
    with pytest.raises(ShapeError, match="stack.1"):
        bp_set_params(net, bad_bias)
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(bp_param_items(net), before))


def test_hidden_features_shape_matches_feature_layer():
    bp_plan = match_effective_params(get_plan("blobs"))
    net = build_bp_network(bp_plan, make_rng(20))
    x = make_rng(21).uniform(size=(5, 8))
    feats = net.hidden_features(x)
    # top forward activation of the source plan is 16 wide
    assert feats.shape == (5, 16)


def test_feature_layer_out_of_range():
    with pytest.raises(ConfigError, match="feature_layer"):
        BPNetwork([4, 3], make_rng(22), feature_layer=5)
