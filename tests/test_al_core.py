import copy
import math
import re

import numpy as np
import pytest

from assoclearn import al_core, nn
from assoclearn.al_core import (
    ALNetwork,
    Component,
    ComponentPlan,
    NetworkPlan,
    build_network,
    component_forward,
    component_update,
    effective_param_count,
    get_plan,
    gradcheck_network,
    inference_layers,
    net_param_items,
    plan_names,
)
from assoclearn.errors import NumericError, PlanError, ShapeError
from assoclearn.linalg import make_rng
from assoclearn.nn import DenseLayer, MLPBlock, mse, set_params
from conftest import given_layer, params


def identity_block(dim):
    return MLPBlock([given_layer(np.eye(dim))])


def one_layer(activation, W, bias):
    return MLPBlock([given_layer(W, bias, activation)])


def identity_component(dim, index=1):
    return Component(index, identity_block(dim), identity_block(dim),
                     identity_block(dim), identity_block(dim))


def random_net(rng, s_in=4, s_out=6, t_in=3, t_out=5):
    plan = ComponentPlan(f=[s_in, s_out], g=[t_in, t_out],
                         b=[s_out, t_out], h=[t_out, t_in])
    return build_network(NetworkPlan("tmp", s_in, t_in, [plan]), rng)


def random_component(rng, **widths):
    return random_net(rng, **widths).components[0]


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


def test_forward_hand_oracle():
    # scalar recomputation with 2x2 one-layer blocks, batch=1:
    #   s_i = elu(s W_f + b_f), t_i = sigmoid(t W_g + b_g)
    #   mse1 = ||sigmoid(s_i W_b + b_b) - t_i||^2
    #   mse2 = ||sigmoid(t_i W_h + b_h) - t_prev||^2
    comp = Component(
        1,
        one_layer("elu", [[1.0, 0.5], [-0.5, 1.0]], [[0.1, -0.2]]),
        one_layer("sigmoid", [[0.5, -1.0], [1.0, 0.5]], [[0.0, 0.3]]),
        one_layer("sigmoid", [[1.0, -0.5], [0.5, 1.0]], [[-0.1, 0.2]]),
        one_layer("sigmoid", [[0.8, 0.2], [-0.3, 0.9]], [[0.05, -0.05]]),
    )
    s_prev = np.array([[1.0, -1.0]])
    t_prev = np.array([[0.0, 1.0]])
    _, _, rec = component_forward(comp, s_prev, t_prev)
    assert abs(rec.mse1 - 0.196480749989549) < 1e-9
    assert abs(rec.mse2 - 0.474054315117302) < 1e-9


@pytest.mark.parametrize("s_shape,t_shape,message", [
    ((2, 5), (2, 3), "s input has shape (2, 5), f needs (batch, 4)"),
    ((4,), (2, 3), "s input has shape (4,), f needs (batch, 4)"),
    ((2, 4), (2, 7), "t input has shape (2, 7), g needs (batch, 3)"),
    ((2, 4), (3, 3), "batch mismatch, s has 2 rows, t has 3"),
], ids=["s-width", "s-ndim", "t-width", "rows"])
def test_component_update_names_the_faulty_input(s_shape, t_shape, message):
    # Each input is checked against the block that reads it, before any
    # block trains.
    comp = random_component(make_rng(4))
    before = [p.copy() for blk in comp.blocks().values()
              for p in blk.param_arrays()]
    with pytest.raises(ShapeError,
                       match=f"^{re.escape('component 1: ' + message)}$"):
        component_update(comp, np.zeros(s_shape), np.zeros(t_shape), 1e-3)
    after = [p for blk in comp.blocks().values() for p in blk.param_arrays()]
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_forward_shape_errors_name_component():
    comp = random_component(make_rng(4))
    with pytest.raises(ShapeError, match="component 1"):
        component_forward(comp, np.zeros((2, 99)), np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="component 1"):
        component_forward(comp, np.zeros((2, 4)), np.zeros((3, 3)))


def test_forward_nonfinite_raises_with_component_index():
    comp = Component(
        1,
        one_layer("identity", [[1e200], [1e200]], [[0.0]]),
        identity_block(2), one_layer("sigmoid", [[1.0, 1.0]], [[0.0, 0.0]]),
        one_layer("sigmoid", np.eye(2), [[0.0, 0.0]]),
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
    _, _, rec = component_update(comp, x, t, 1e-4)
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
    _, _, rec = component_update(comp, x, x.copy(), 1e-4)
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
    s_i, t_i, _ = component_update(comp, x, t, 1e-4)
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
        _, _, before = component_update(probe, x, t, lr)
        _, _, after = component_forward(probe, x, t)
        if after.mse1 + after.mse2 < before.mse1 + before.mse2:
            return
    pytest.fail("local objective did not decrease at lr 1e-4 or 5e-5")


def two_pass_update(c, s_prev, t_prev, lr):
    """component_update written out as two passes: forward f, g, b, h;
    backward b -> f and h -> g; then step flow 2's g, h and flow 1's f, b
    with the gradients collected here."""
    s_i = c.f.forward(s_prev, train=True)
    t_i = c.g.forward(t_prev, train=True)
    bridged = c.b.forward(s_i, train=True)
    recon = c.h.forward(t_i, train=True)
    mse1, grad1 = mse(bridged, t_i)
    mse2, grad2 = mse(recon, t_prev)
    grad1, b_grads = c.b.backward(grad1)
    _, f_grads = c.f.backward(grad1, input_grad=False)
    grad2, h_grads = c.h.backward(grad2)
    _, g_grads = c.g.backward(grad2, input_grad=False)
    c.opt2.step(g_grads + h_grads, lr)
    c.opt1.step(f_grads + b_grads, lr)
    return s_i, t_i, mse1, mse2


def param_bytes(net):
    return [(name, p.tobytes()) for name, p in params(net)]


def batch_for(plan, seed, n=8):
    rng = make_rng(seed)
    return (rng.random((n, plan.input_dim)),
            np.eye(plan.target_dim)[rng.integers(0, plan.target_dim, n)])


@pytest.mark.parametrize("plan_name", ["blobs", "xor", "desk-3"])
def test_update_matches_two_pass_reference_bit_for_bit(plan_name):
    plan = get_plan(plan_name)
    net = build_network(plan, make_rng(31))
    ref = copy.deepcopy(net)
    x, y = batch_for(plan, 32)
    for _ in range(3):
        s = s_ref = x
        t = t_ref = y
        for c, c_ref in zip(net.components, ref.components):
            s, t, rec = component_update(c, s, t, 3e-3)
            s_ref, t_ref, mse1, mse2 = two_pass_update(c_ref, s_ref, t_ref,
                                                       3e-3)
            assert s.tobytes() == s_ref.tobytes()
            assert t.tobytes() == t_ref.tobytes()
            assert (rec.mse1, rec.mse2) == (mse1, mse2)
        assert param_bytes(net) == param_bytes(ref)


@pytest.mark.parametrize("bad_input,where", [(0, "f output"),
                                             (1, "g output")])
def test_nonfinite_input_steps_no_block_and_no_adam_state(bad_input, where):
    plan = get_plan("blobs")
    net = build_network(plan, make_rng(33))
    x, y = batch_for(plan, 34)
    component_update(net.components[0], x, y, 3e-3)    # Adam state exists
    never_failed = copy.deepcopy(net)
    before = param_bytes(net)
    bad = [x.copy(), y.copy()]
    bad[bad_input][2, 1] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match=f"component 1 {where}"):
            component_update(net.components[0], *bad, 3e-3)
    assert param_bytes(net) == before
    (s, t, rec), (s0, t0, rec0) = (
        component_update(m.components[0], x, y, 3e-3)
        for m in (net, never_failed))
    assert (s.tobytes(), t.tobytes(), rec) == (s0.tobytes(), t0.tobytes(), rec0)
    assert param_bytes(net) == param_bytes(never_failed)


# gradient checks ------------------------------------------------------

def test_component_flow_gradients_match_finite_differences():
    net = random_net(make_rng(15))
    rng = make_rng(16)
    res = gradcheck_network(net, rng.normal(size=(3, 4)),
                            rng.uniform(size=(3, 3)))
    assert res.keys() == {"c1.flow1", "c1.flow2", "cross"}
    assert res["c1.flow1"] < 1e-4
    assert res["c1.flow2"] < 1e-4
    assert res["cross"] == 0.0      # one component: nothing foreign


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
    res = gradcheck_network(net, x, y)
    assert len(res) == 2 * 3 + 1
    assert all(v < 1e-4 for k, v in res.items() if k != "cross")
    assert res["cross"] < 1e-7


def test_gradcheck_differences_each_parameter_once_per_component(
        monkeypatch):
    # One finite-difference pass per component over every parameter of
    # the network: C x P elements in all, 2 x 1,180 on blobs.
    sizes = []

    def counting(fd):
        def wrapped(loss_fn, ps):
            sizes.extend(p.size for p in ps)
            return fd(loss_fn, ps)
        return wrapped

    monkeypatch.setattr(nn, "finite_diff_loss_grads",
                        counting(nn.finite_diff_loss_grads))
    monkeypatch.setattr(al_core, "finite_diff_loss_grads",
                        counting(al_core.finite_diff_loss_grads))
    net = build_network(get_plan("blobs"), make_rng(0))
    rng = make_rng(1)
    gradcheck_network(net, rng.random((8, 8)),
                      np.eye(4)[rng.integers(0, 4, size=8)])
    total = sum(p.size for _, p in net_param_items(net))
    assert total == 1180
    assert sum(sizes) == net.n_components * total == 2360


# inference ------------------------------------------------------------

def test_infer_identity_network_passes_input_through():
    comp = identity_component(3)
    net = ALNetwork([comp], 3, 3, "identity")
    x = make_rng(19).normal(size=(5, 3))
    y_hat, classes = net.predict(x)
    assert np.array_equal(y_hat, x)
    assert np.array_equal(classes, x.argmax(axis=1))


def test_infer_two_component_hand_oracle():
    # diagonal one-layer identity blocks: y_hat = x * 2 * 5 * 7 * 11 * 3,
    # with g blocks and the inner bridge set to junk that must not matter
    def diag(c, dim=2):
        return one_layer("identity", c * np.eye(dim), [[0.0, 0.0]])

    c1 = Component(1, diag(2.0), diag(100.0), diag(-55.0), diag(3.0))
    c2 = Component(2, diag(5.0), diag(100.0), diag(7.0), diag(11.0))
    net = ALNetwork([c1, c2], 2, 2, "diagonal")
    x = np.array([[1.0, -2.0]])
    y_hat, classes = net.predict(x)
    assert np.allclose(y_hat, [[2310.0, -4620.0]], atol=1e-9)
    assert classes.tolist() == [0]


def test_infer_unaffected_by_affiliated_parameters():
    net = build_network(get_plan("blobs"), make_rng(20))
    x = make_rng(21).uniform(size=(6, 8))
    y_before, cls_before = net.predict(x)
    used = {id(layer) for layer in inference_layers(net)}
    for _, layer in net.named_layers():
        if id(layer) not in used:
            layer.W = layer.W + 1000.0
            layer.bias = layer.bias + 1000.0
    y_after, cls_after = net.predict(x)
    assert np.array_equal(y_before, y_after)
    assert np.array_equal(cls_before, cls_after)


def test_features_are_top_f_output():
    net = build_network(get_plan("blobs"), make_rng(22))
    x = make_rng(23).uniform(size=(3, 8))
    s = x
    for c in net.components:
        s = c.f.forward(s)
    assert np.array_equal(net.features(x), s)


def test_infer_dim_mismatch():
    net = build_network(get_plan("xor"), make_rng(24))
    with pytest.raises(ShapeError):
        net.predict(np.zeros((1, 5)))


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
    y_hat, _ = net.predict(np.zeros((1, 2)))
    assert y_hat.shape == (1, 2)


def test_build_deterministic_per_seed():
    plan = get_plan("blobs")
    a = build_network(plan, make_rng(26))
    b = build_network(plan, make_rng(26))
    for (_, pa), (_, pb) in zip(params(a), params(b)):
        assert np.array_equal(pa, pb)
    c = build_network(plan, make_rng(27))
    assert any(not np.array_equal(pa, pc) for (_, pa), (_, pc)
               in zip(params(a), params(c)))


def test_plan_validation_reports_component_and_block():
    bad = NetworkPlan(
        "bad", 4, 3,
        [ComponentPlan(f=[4, 5], g=[3, 4], b=[5, 9], h=[4, 3])])
    with pytest.raises(PlanError,
                       match="^component 1: b must map 5 -> 4, got 5 -> 9$"):
        bad.validate()


def two_component_plan() -> NetworkPlan:
    # Every width distinct, so a message names exactly one of them.
    return NetworkPlan("two", 4, 3, [
        ComponentPlan(f=[4, 6], g=[3, 5], b=[6, 7, 5], h=[5, 3]),
        ComponentPlan(f=[6, 8], g=[5, 2], b=[8, 2], h=[2, 5])])


def test_two_component_plan_is_valid():
    two_component_plan().validate()


# (component, block, its new chain, the message). A block's first width
# is what it reads and its last what it writes; f's and g's outputs are
# s_i and t_i, so when either changes, the bridge, which reads s_i and
# writes t_i, is the block that disagrees.
PLAN_FAULTS = {
    "c1-f-first": (1, "f", [99, 6],
                   "component 1: f must map 4 -> 6, got 99 -> 6"),
    "c1-f-last": (1, "f", [4, 99],
                  "component 1: b must map 99 -> 5, got 6 -> 5"),
    "c1-g-first": (1, "g", [99, 5],
                   "component 1: g must map 3 -> 5, got 99 -> 5"),
    "c1-g-last": (1, "g", [3, 99],
                  "component 1: b must map 6 -> 99, got 6 -> 5"),
    "c1-b-first": (1, "b", [99, 7, 5],
                   "component 1: b must map 6 -> 5, got 99 -> 5"),
    "c1-b-last": (1, "b", [6, 7, 99],
                  "component 1: b must map 6 -> 5, got 6 -> 99"),
    "c1-h-first": (1, "h", [99, 3],
                   "component 1: h must map 5 -> 3, got 99 -> 3"),
    "c1-h-last": (1, "h", [5, 99],
                  "component 1: h must map 5 -> 3, got 5 -> 99"),
    "c2-f-first": (2, "f", [99, 8], "components 1 -> 2 do not chain: "
                   "component 2: f must map 6 -> 8, got 99 -> 8"),
    "c2-f-last": (2, "f", [6, 99],
                  "component 2: b must map 99 -> 2, got 8 -> 2"),
    "c2-g-first": (2, "g", [99, 2], "components 1 -> 2 do not chain: "
                   "component 2: g must map 5 -> 2, got 99 -> 2"),
    "c2-g-last": (2, "g", [5, 99],
                  "component 2: b must map 8 -> 99, got 8 -> 2"),
    "c2-b-first": (2, "b", [99, 2],
                   "component 2: b must map 8 -> 2, got 99 -> 2"),
    "c2-b-last": (2, "b", [8, 99],
                  "component 2: b must map 8 -> 2, got 8 -> 99"),
    "c2-h-first": (2, "h", [99, 5],
                   "component 2: h must map 2 -> 5, got 99 -> 5"),
    "c2-h-last": (2, "h", [2, 99],
                  "component 2: h must map 2 -> 5, got 2 -> 99"),
    "c1-f-empty": (1, "f", [],
                   "component 1: f chain needs >= 2 widths, got []"),
    "c2-f-one": (2, "f", [6],
                 "component 2: f chain needs >= 2 widths, got [6]"),
    "c2-g-one": (2, "g", [5],
                 "component 2: g chain needs >= 2 widths, got [5]"),
    "c2-b-one": (2, "b", [8],
                 "component 2: b chain needs >= 2 widths, got [8]"),
    "c2-h-one": (2, "h", [2],
                 "component 2: h chain needs >= 2 widths, got [2]"),
    "no-components": (None, None, None, "plan 'two' has no components"),
}


@pytest.mark.parametrize("component,block,chain,message",
                         PLAN_FAULTS.values(), ids=PLAN_FAULTS.keys())
def test_plan_validation_names_component_block_and_widths(component, block,
                                                          chain, message):
    plan = two_component_plan()
    if component is None:
        plan.components = []
    else:
        setattr(plan.components[component - 1], block, chain)
    with pytest.raises(PlanError, match=f"^{re.escape(message)}$"):
        plan.validate()


def test_plan_roundtrip_through_dict():
    plan = get_plan("desk-3")
    again = NetworkPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()
    again.validate()


def test_component_rejects_bad_bridge_naming_its_index():
    with pytest.raises(PlanError,
                       match="^component 3: b must map 3 -> 3, got 4 -> 4$"):
        Component(3, identity_block(3), identity_block(3),
                  identity_block(4), identity_block(3))


def test_network_rejects_input_dim_mismatch():
    with pytest.raises(PlanError,
                       match="^component 1: f must map 4 -> 3, got 3 -> 3$"):
        ALNetwork([identity_component(3)], 4, 3, "mismatch")


def test_network_rejects_nonchaining_components():
    a = identity_component(3, index=1)
    b = identity_component(4, index=2)
    with pytest.raises(PlanError, match="^components 1 -> 2 do not chain: "
                       "component 2: f must map 3 -> 4, got 4 -> 4$"):
        ALNetwork([a, b], 3, 3, "nonchaining")


# parameter bookkeeping ------------------------------------------------

def test_param_counts_blobs_plan():
    # c1: f 8x16+16=144, g 4x8+8=40, b 16x8+8=136, h 8x4+4=36
    # c2: f 16x16+16=272, g 8x8+8=72, b (16x16+16)+(16x8+8)=408, h 8x8+8=72
    net = build_network(get_plan("blobs"), make_rng(28))
    assert effective_param_count(net) == 144 + 272 + 36 + 72 + 408 == 932
    total = sum(layer.param_count() for _, layer in net.named_layers())
    assert total == 932 + 40 + 72 + 136


def test_param_split_sums_to_total():
    # The affiliated parameters, every g and every bridge but the last,
    # make up the rest.
    for name in ("xor", "blobs", "desk-3"):
        net = build_network(get_plan(name), make_rng(29))
        affiliated = sum(layer.param_count() for c in net.components
                         for layer in c.g.layers + c.b.layers)
        affiliated -= sum(layer.param_count()
                          for layer in net.components[-1].b.layers)
        total = sum(layer.param_count() for _, layer in net.named_layers())
        assert effective_param_count(net) + affiliated == total


def test_param_items_roundtrip():
    net = build_network(get_plan("blobs"), make_rng(30))
    other = build_network(get_plan("blobs"), make_rng(31))
    set_params(other.named_layers(), [p for _, p in params(net)])
    x = make_rng(32).uniform(size=(4, 8))
    ya, _ = net.predict(x)
    yb, _ = other.predict(x)
    assert np.array_equal(ya, yb)


def test_set_params_copies_so_training_one_net_leaves_the_other():
    net = build_network(get_plan("xor"), make_rng(30))
    other = build_network(get_plan("xor"), make_rng(31))
    set_params(other.named_layers(), [p for _, p in params(net)])
    before = [p.copy() for _, p in params(net)]
    x = make_rng(32).uniform(size=(4, 2))
    component_update(other.components[0], x, np.eye(2)[[0, 1, 1, 0]], 1e-4)
    assert all(np.array_equal(p, q)
               for (_, p), q in zip(params(net), before))


def test_param_items_names_stable():
    net = build_network(get_plan("xor"), make_rng(33))
    names = [name for name, _ in params(net)]
    assert names == ["c1.f.0.W", "c1.f.0.bias", "c1.g.0.W", "c1.g.0.bias",
                     "c1.b.0.W", "c1.b.0.bias", "c1.h.0.W", "c1.h.0.bias"]
    assert [name for name, _ in net_param_items(net)] == names


def test_set_params_wrong_count():
    net = build_network(get_plan("xor"), make_rng(34))
    with pytest.raises(ShapeError):
        set_params(net.named_layers(), [np.zeros((2, 2))])


def test_set_params_wrong_shape_assigns_nothing():
    net = build_network(get_plan("blobs"), make_rng(37))
    before = [p.tobytes() for _, p in params(net)]
    arrays = [p + 1.0 for _, p in params(net)]
    assert len(arrays) == 18
    arrays[16] = np.zeros((3, 3))  # c2.h.0.W
    with pytest.raises(ShapeError, match="c2.h.0"):
        set_params(net.named_layers(), arrays)
    assert [p.tobytes() for _, p in params(net)] == before
