import copy
import math

import numpy as np
import pytest

from assoclearn.al_core import (
    ALNetwork,
    Component,
    ComponentPlan,
    NetworkPlan,
    affiliated_param_count,
    build_network,
    clone_network,
    component_forward,
    component_update,
    effective_param_count,
    get_plan,
    gradcheck_component_flows,
    gradcheck_cross_component,
    infer,
    metafeatures,
    net_param_items,
    net_set_params,
    perturb_affiliated,
    plan_names,
    total_param_count,
)
from assoclearn.errors import NumericError, PlanError, ShapeError
from assoclearn.linalg import make_rng
from assoclearn.nn import DenseLayer, MLPBlock


def identity_block(dim):
    return MLPBlock([DenseLayer(dim, dim, "identity", W=np.eye(dim),
                                bias=np.zeros((1, dim)))])


def one_layer(fan_in, fan_out, activation, W, bias):
    return MLPBlock([DenseLayer(fan_in, fan_out, activation,
                                W=np.array(W, dtype=float),
                                bias=np.array(bias, dtype=float))])


def identity_component(dim, index=1):
    return Component(index, identity_block(dim), identity_block(dim),
                     identity_block(dim), identity_block(dim))


def random_component(rng, s_in=4, s_out=6, t_in=3, t_out=5):
    plan = ComponentPlan(f=[s_in, s_out], g=[t_in, t_out],
                         b=[s_out, t_out], h=[t_out, t_in])
    net = build_network(
        NetworkPlan("tmp", s_in, t_in, [plan]), rng)
    return net.components[0]


# component forward ----------------------------------------------------

def test_forward_identity_component_zero_losses():
    comp = identity_component(3)
    x = make_rng(1).normal(size=(4, 3))
    s_i, t_i, rec = component_forward(comp, x, x.copy())
    assert rec.mse1 == 0.0
    assert rec.mse2 == 0.0
    assert np.array_equal(s_i, x)
    assert np.array_equal(t_i, x)


def test_forward_random_losses_positive_finite():
    comp = random_component(make_rng(2))
    rng = make_rng(3)
    _, _, rec = component_forward(comp, rng.normal(size=(5, 4)),
                                  rng.normal(size=(5, 3)))
    assert rec.mse1 > 0.0 and math.isfinite(rec.mse1)
    assert rec.mse2 > 0.0 and math.isfinite(rec.mse2)
    assert rec.local_obj == rec.mse1 + rec.mse2


def test_forward_hand_oracle():
    # scalar recomputation with 2x2 one-layer blocks, batch=1:
    #   s_i = elu(s W_f + b_f), t_i = sigmoid(t W_g + b_g)
    #   mse1 = ||sigmoid(s_i W_b + b_b) - t_i||^2
    #   mse2 = ||sigmoid(t_i W_h + b_h) - t_prev||^2
    comp = Component(
        1,
        one_layer(2, 2, "elu", [[1.0, 0.5], [-0.5, 1.0]], [[0.1, -0.2]]),
        one_layer(2, 2, "sigmoid", [[0.5, -1.0], [1.0, 0.5]], [[0.0, 0.3]]),
        one_layer(2, 2, "sigmoid", [[1.0, -0.5], [0.5, 1.0]], [[-0.1, 0.2]]),
        one_layer(2, 2, "sigmoid", [[0.8, 0.2], [-0.3, 0.9]], [[0.05, -0.05]]),
    )
    s_prev = np.array([[1.0, -1.0]])
    t_prev = np.array([[0.0, 1.0]])
    _, _, rec = component_forward(comp, s_prev, t_prev)
    assert abs(rec.mse1 - 0.196480749989549) < 1e-9
    assert abs(rec.mse2 - 0.474054315117302) < 1e-9


def test_forward_shape_errors_name_component():
    comp = random_component(make_rng(4))
    with pytest.raises(ShapeError, match="component 1"):
        component_forward(comp, np.zeros((2, 99)), np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="component 1"):
        component_forward(comp, np.zeros((2, 4)), np.zeros((3, 3)))


def test_forward_nonfinite_raises_with_component_index():
    comp = Component(
        1,
        one_layer(2, 1, "identity", [[1e200], [1e200]], [[0.0]]),
        identity_block(2), one_layer(1, 2, "sigmoid", [[1.0, 1.0]],
                                     [[0.0, 0.0]]),
        one_layer(2, 2, "sigmoid", np.eye(2), [[0.0, 0.0]]),
    )
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="component 1"):
            component_forward(comp, np.array([[1e200, 1e200]]),
                              np.array([[0.0, 1.0]]))


# component update and flow separation ---------------------------------

def params_of(block):
    return [p.copy() for p in block.param_arrays()]


def test_update_leaves_g_h_untouched_when_mse2_zero():
    # identity g and h reconstruct exactly, so flow 2 has zero gradient
    dim = 3
    rng = make_rng(5)
    comp = Component(1,
                     MLPBlock([DenseLayer(dim, dim, "elu", rng=rng)]),
                     identity_block(dim),
                     MLPBlock([DenseLayer(dim, dim, "sigmoid", rng=rng)]),
                     identity_block(dim))
    g_before = params_of(comp.g)
    h_before = params_of(comp.h)
    f_before = params_of(comp.f)
    x = make_rng(6).normal(size=(4, dim))
    t = make_rng(7).normal(size=(4, dim))
    _, _, rec = component_update(comp, x, t)
    assert rec.mse2 == 0.0
    for before, after in zip(g_before, comp.g.param_arrays()):
        assert np.array_equal(before, after)
    for before, after in zip(h_before, comp.h.param_arrays()):
        assert np.array_equal(before, after)
    # flow 1 did run
    assert any(not np.array_equal(b, a)
               for b, a in zip(f_before, comp.f.param_arrays()))


def test_update_leaves_f_b_untouched_when_mse1_zero():
    # with s_prev == t_prev, identity f and b == deep copy of g make
    # b(f(s)) == g(t) exactly, so flow 1 has zero gradient
    dim = 3
    g = MLPBlock([DenseLayer(dim, dim, "sigmoid", rng=make_rng(8))])
    comp = Component(1, identity_block(dim), g, copy.deepcopy(g),
                     MLPBlock([DenseLayer(dim, dim, "sigmoid",
                                          rng=make_rng(9))]))
    f_before = params_of(comp.f)
    b_before = params_of(comp.b)
    g_before = params_of(comp.g)
    x = make_rng(10).normal(size=(4, dim))
    _, _, rec = component_update(comp, x, x.copy())
    assert rec.mse1 == 0.0
    for before, after in zip(f_before, comp.f.param_arrays()):
        assert np.array_equal(before, after)
    for before, after in zip(b_before, comp.b.param_arrays()):
        assert np.array_equal(before, after)
    # flow 2 did run
    assert any(not np.array_equal(b, a)
               for b, a in zip(g_before, comp.g.param_arrays()))


def test_update_returns_preupdate_outputs():
    comp = random_component(make_rng(11))
    rng = make_rng(12)
    x = rng.normal(size=(3, 4))
    t = rng.normal(size=(3, 3))
    probe = clone_for_forward(comp)
    s_expect, t_expect, _ = component_forward(probe, x, t)
    s_i, t_i, _ = component_update(comp, x, t)
    assert np.array_equal(s_i, s_expect)
    assert np.array_equal(t_i, t_expect)


def clone_for_forward(comp):
    return copy.deepcopy(comp)


def test_update_decreases_local_obj():
    rng = make_rng(13)
    comp = random_component(rng)
    data_rng = make_rng(14)
    x = data_rng.normal(size=(8, 4))
    t = data_rng.uniform(size=(8, 3))
    for lr in (1e-4, 5e-5):
        probe = copy.deepcopy(comp)
        probe.set_lr(lr)
        _, _, before = component_update(probe, x, t)
        _, _, after = component_forward(probe, x, t)
        if after.local_obj < before.local_obj:
            return
    pytest.fail("local objective did not decrease at lr 1e-4 or 5e-5")


# gradient checks ------------------------------------------------------

def test_component_flow_gradients_match_finite_differences():
    comp = random_component(make_rng(15))
    rng = make_rng(16)
    res = gradcheck_component_flows(comp, rng.normal(size=(3, 4)),
                                    rng.uniform(size=(3, 3)))
    assert res["flow1"] < 1e-4
    assert res["flow2"] < 1e-4


def test_cross_component_gradients_vanish():
    # three-component toy net; foreign-parameter finite differences of a
    # trained local objective must be exactly zero
    plan = NetworkPlan(
        "toy3", 4, 3,
        [ComponentPlan(f=[4, 5], g=[3, 4], b=[5, 4], h=[4, 3]),
         ComponentPlan(f=[5, 5], g=[4, 4], b=[5, 4], h=[4, 4]),
         ComponentPlan(f=[5, 4], g=[4, 3], b=[4, 3], h=[3, 4])])
    net = build_network(plan, make_rng(17))
    rng = make_rng(18)
    x = rng.normal(size=(2, 4))
    y = np.eye(3)[rng.integers(0, 3, size=2)]
    res = gradcheck_cross_component(net, x, y)
    assert res["cross"] < 1e-7
    assert res["within"] < 1e-4


# inference ------------------------------------------------------------

def test_infer_identity_network_passes_input_through():
    comp = identity_component(3)
    net = ALNetwork([comp], 3, 3)
    x = make_rng(19).normal(size=(5, 3))
    y_hat, classes = infer(net, x)
    assert np.array_equal(y_hat, x)
    assert np.array_equal(classes, x.argmax(axis=1))


def test_infer_two_component_hand_oracle():
    # diagonal one-layer identity blocks: y_hat = x * 2 * 5 * 7 * 11 * 3,
    # with g blocks and the inner bridge set to junk that must not matter
    def diag(c, dim=2):
        return one_layer(dim, dim, "identity", c * np.eye(dim),
                         [[0.0, 0.0]])

    c1 = Component(1, diag(2.0), diag(100.0), diag(-55.0), diag(3.0))
    c2 = Component(2, diag(5.0), diag(100.0), diag(7.0), diag(11.0))
    net = ALNetwork([c1, c2], 2, 2)
    x = np.array([[1.0, -2.0]])
    y_hat, classes = infer(net, x)
    assert np.allclose(y_hat, [[2310.0, -4620.0]], atol=1e-9)
    assert classes.tolist() == [0]


def test_infer_unaffected_by_affiliated_parameters():
    net = build_network(get_plan("blobs"), make_rng(20))
    x = make_rng(21).uniform(size=(6, 8))
    y_before, cls_before = infer(net, x)
    perturb_affiliated(net, delta=1000.0)
    y_after, cls_after = infer(net, x)
    assert np.array_equal(y_before, y_after)
    assert np.array_equal(cls_before, cls_after)


def test_metafeatures_are_top_f_output():
    net = build_network(get_plan("blobs"), make_rng(22))
    x = make_rng(23).uniform(size=(3, 8))
    s = x
    for c in net.components:
        s = c.f.forward(s)
    assert np.array_equal(metafeatures(net, x), s)


def test_infer_dim_mismatch():
    net = build_network(get_plan("xor"), make_rng(24))
    with pytest.raises(ShapeError):
        infer(net, np.zeros((1, 5)))


# plans and construction -----------------------------------------------

def test_reference_plan_widths():
    plan = get_plan("reference-mlp")
    assert len(plan.components) == 2
    assert plan.input_dim == 784 and plan.target_dim == 10
    c1, c2 = plan.components
    assert c1.f == [784, 1024] and c1.g == [10, 1024]
    assert c1.b == [1024, 1024] and c1.h == [1024, 10]
    assert c2.f == [1024, 1024] and c2.g == [1024, 1024]
    assert c2.b == [1024, 5120, 1024] and c2.h == [1024, 1024]


def test_plan_registry_contains_known_names():
    names = plan_names()
    for expected in ("reference-mlp", "desk-mlp", "desk-3", "xor", "blobs"):
        assert expected in names


def test_unknown_plan_name():
    with pytest.raises(PlanError, match="unknown plan"):
        get_plan("nope")


def test_single_component_network_valid():
    net = build_network(get_plan("xor"), make_rng(25))
    assert net.n_components == 1
    y_hat, _ = infer(net, np.zeros((1, 2)))
    assert y_hat.shape == (1, 2)


def test_build_deterministic_per_seed():
    plan = get_plan("blobs")
    a = build_network(plan, make_rng(26))
    b = build_network(plan, make_rng(26))
    for (_, pa), (_, pb) in zip(net_param_items(a), net_param_items(b)):
        assert np.array_equal(pa, pb)
    c = build_network(plan, make_rng(27))
    assert any(not np.array_equal(pa, pc) for (_, pa), (_, pc)
               in zip(net_param_items(a), net_param_items(c)))


def test_plan_validation_reports_component_and_block():
    bad = NetworkPlan(
        "bad", 4, 3,
        [ComponentPlan(f=[4, 5], g=[3, 4], b=[5, 9], h=[4, 3])])
    with pytest.raises(PlanError, match="component 1"):
        bad.validate()


def test_plan_roundtrip_through_dict():
    plan = get_plan("desk-3")
    again = NetworkPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()
    again.validate()


def test_component_rejects_bad_bridge_naming_its_index():
    with pytest.raises(PlanError, match="component 3: bridge input 4"):
        Component(3, identity_block(3), identity_block(3),
                  identity_block(4), identity_block(3))


def test_network_rejects_input_dim_mismatch():
    with pytest.raises(PlanError, match="component 1: f input 3"):
        ALNetwork([identity_component(3)], 4, 3)


def test_network_rejects_nonchaining_components():
    a = identity_component(3, index=1)
    b = identity_component(4, index=2)
    with pytest.raises(PlanError, match="do not chain"):
        ALNetwork([a, b], 3, 3)


# parameter bookkeeping ------------------------------------------------

def test_param_counts_blobs_plan():
    # c1: f 8x16+16=144, g 4x8+8=40, b 16x8+8=136, h 8x4+4=36
    # c2: f 16x16+16=272, g 8x8+8=72, b (16x16+16)+(16x8+8)=408, h 8x8+8=72
    net = build_network(get_plan("blobs"), make_rng(28))
    assert effective_param_count(net) == 144 + 272 + 36 + 72 + 408
    assert affiliated_param_count(net) == 40 + 72 + 136
    assert effective_param_count(net) == 932
    assert affiliated_param_count(net) == 248
    assert total_param_count(net) == 932 + 248


def test_param_split_sums_to_total():
    for name in ("xor", "blobs", "desk-3"):
        net = build_network(get_plan(name), make_rng(29))
        assert (effective_param_count(net) + affiliated_param_count(net)
                == total_param_count(net))


def test_param_items_roundtrip():
    net = build_network(get_plan("blobs"), make_rng(30))
    other = build_network(get_plan("blobs"), make_rng(31))
    net_set_params(other, [p for _, p in net_param_items(net)])
    x = make_rng(32).uniform(size=(4, 8))
    ya, _ = infer(net, x)
    yb, _ = infer(other, x)
    assert np.array_equal(ya, yb)


def test_set_params_copies_so_training_one_net_leaves_the_other():
    net = build_network(get_plan("xor"), make_rng(30))
    other = build_network(get_plan("xor"), make_rng(31))
    net_set_params(other, [p for _, p in net_param_items(net)])
    before = [p.copy() for _, p in net_param_items(net)]
    x = make_rng(32).uniform(size=(4, 2))
    component_update(other.components[0], x, np.eye(2)[[0, 1, 1, 0]])
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(net_param_items(net), before))


def test_param_items_names_stable():
    net = build_network(get_plan("xor"), make_rng(33))
    names = [name for name, _ in net_param_items(net)]
    assert names == ["c1.f.0.W", "c1.f.0.bias", "c1.g.0.W", "c1.g.0.bias",
                     "c1.b.0.W", "c1.b.0.bias", "c1.h.0.W", "c1.h.0.bias"]


def test_set_params_wrong_count():
    net = build_network(get_plan("xor"), make_rng(34))
    with pytest.raises(ShapeError):
        net_set_params(net, [np.zeros((2, 2))])


def test_set_params_wrong_shape_assigns_nothing():
    net = build_network(get_plan("blobs"), make_rng(37))
    before = [p.tobytes() for _, p in net_param_items(net)]
    arrays = [p + 1.0 for _, p in net_param_items(net)]
    assert len(arrays) == 18
    arrays[16] = np.zeros((3, 3))  # c2.h.0.W
    with pytest.raises(ShapeError, match="c2.h.0"):
        net_set_params(net, arrays)
    assert [p.tobytes() for _, p in net_param_items(net)] == before


def test_clone_network_is_independent():
    net = build_network(get_plan("xor"), make_rng(35))
    twin = clone_network(net)
    rng = make_rng(36)
    x = rng.uniform(size=(4, 2))
    y = np.eye(2)[[0, 1, 1, 0]]
    component_update(net.components[0], x, y)
    before = dict(net_param_items(twin))
    after = dict(net_param_items(net))
    assert any(not np.array_equal(before[k], after[k]) for k in before)
