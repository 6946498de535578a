import numpy as np
import pytest

from assoclearn import nn
from assoclearn.errors import ShapeError, StateError
from assoclearn.linalg import make_rng
from assoclearn.nn import (
    AdamState,
    BlockAdam,
    DenseLayer,
    MLPBlock,
    adam_update,
    cross_entropy_grad,
    cross_entropy_loss,
    elu,
    elu_grad,
    finite_diff_loss_grads,
    grad_check_block,
    gradcheck,
    make_block,
    max_rel_error,
    mse_loss,
    mse_loss_grad,
    sigmoid,
    sigmoid_grad_from_output,
    softmax,
)


# activations ----------------------------------------------------------

def test_elu_positive_branch():
    assert elu(1.0) == 1.0


def test_elu_zero():
    assert elu(0.0) == 0.0


def test_elu_negative_oracle():
    # exp(-1) - 1
    assert abs(elu(-1.0) - (-0.63212)) < 1e-5


def test_elu_continuous_and_monotone():
    xs = np.sort(make_rng(3).normal(0.0, 3.0, size=200))
    ys = elu(np.array([xs]))[0]
    assert (np.diff(ys) > 0).all()
    eps = 1e-7
    assert abs(elu(eps) - elu(-eps)) < 1e-6


def test_elu_grad_matches_branches():
    x = np.array([[-2.0, -0.5, 0.5, 3.0]])
    g = elu_grad(x)
    expected = np.where(x > 0, 1.0, np.exp(x))
    assert np.allclose(g, expected, atol=1e-12)


def test_sigmoid_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_symmetry():
    xs = make_rng(5).normal(0.0, 4.0, size=(1, 64))
    assert np.allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)


def test_sigmoid_extreme_no_overflow():
    with np.errstate(over="raise"):
        assert sigmoid(500.0) == 1.0
        assert 0.0 <= sigmoid(-500.0) < 1e-200


def test_sigmoid_grad_from_output():
    x = np.array([[0.3, -1.2, 2.0]])
    out = sigmoid(x)
    assert np.allclose(sigmoid_grad_from_output(out), out * (1 - out))


def _same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _sigmoid_two_branch(x):
    # The masked two-exp form the one-exp sigmoid must reproduce bit for bit.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("scale", [1.0, 5.0, 40.0, 800.0])
def test_sigmoid_bit_identical_to_two_branch_form(scale):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                        710.0, -710.0])
    x = np.concatenate([make_rng(6).normal(0.0, scale, size=4096),
                        special]).reshape(8, -1)
    assert _same_bits(sigmoid(x), _sigmoid_two_branch(x))


def _elu_select(x):
    # The masked forms the select-free activations must reproduce bit for bit.
    neg = np.minimum(x, 0.0)
    return np.where(x > 0, x, np.expm1(neg, out=neg))


def _elu_grad_select(x):
    d = np.exp(np.minimum(x, 0.0))
    np.copyto(d, 1.0, where=x > 0)
    return d


def _sigmoid_select(x):
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _signed_log_uniform():
    # Magnitudes from subnormal to 1e3, both signs, with the special values
    # scattered so that every view below holds some of them.
    rng = make_rng(31)
    special = np.tile([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                       5e-324, -5e-324], 32)
    n = 256 * 256 - special.size
    x = 10.0 ** rng.uniform(-320.0, 3.0, size=n) * rng.choice([-1.0, 1.0], n)
    return rng.permutation(np.concatenate([x, special])).reshape(256, 256)


_VIEWS = {"contiguous": lambda a: a, "strided": lambda a: a[1::2, ::3],
          "transposed": lambda a: a.T}


@pytest.mark.parametrize("view", list(_VIEWS))
@pytest.mark.parametrize("fn, oracle", [
    (elu, _elu_select), (elu_grad, _elu_grad_select),
    (sigmoid, _sigmoid_select)], ids=["elu", "elu_grad", "sigmoid"])
def test_activation_bit_identical_to_masked_select(fn, oracle, view):
    x = _VIEWS[view](_signed_log_uniform())
    expected = oracle(x)
    assert _same_bits(fn(x), expected)
    out = np.empty_like(x)
    assert fn(x, out=out) is out and _same_bits(out, expected)
    assert fn(x, out=x) is x and _same_bits(x, expected)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("activation", list(nn.ACTIVATIONS))
def test_dense_forward_activation_path(monkeypatch, activation, train):
    # Profilers time the activations by wrapping nn.sigmoid and nn.elu, so
    # the layers must look them up in the module at call time.
    calls = []
    for name in ("sigmoid", "elu"):
        def counted(*args, _name=name, _fn=getattr(nn, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nn, name, counted)
    layer = DenseLayer(5, 4, activation, rng=make_rng(37))
    x = make_rng(41).normal(size=(6, 5))
    x_before = x.copy()
    out = layer.forward(x, train=train)
    assert calls == ([activation] if activation in ("sigmoid", "elu") else [])
    assert _same_bits(x, x_before)
    if train:
        assert layer._cache[0] is x and layer._cache[2] is out


def test_softmax_rows_sum_to_one():
    z = make_rng(9).normal(0.0, 5.0, size=(4, 7))
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


def test_softmax_shift_invariance():
    z = np.array([[1.0, 2.0, 3.0]])
    assert np.allclose(softmax(z), softmax(z + 100.0), atol=1e-12)


# losses ---------------------------------------------------------------

def test_mse_equal_inputs():
    a = np.array([[1.0, 2.0, 3.0]])
    assert mse_loss(a, a.copy()) == 0.0


def test_mse_single_row_oracle():
    assert mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 5.0


def test_mse_batch_mean_oracle():
    # per-row losses 5 and 1 average to 3
    a = np.array([[1.0, 2.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert mse_loss(a, b) == 3.0


def test_mse_grad_formula():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(mse_loss_grad(a, b), 2.0 * (a - b) / 2.0)


def test_mse_nonnegative_zero_iff_equal():
    rng = make_rng(11)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        val = mse_loss(a, b)
        assert val >= 0.0
        if val < 1e-12:
            assert np.allclose(a, b)
        else:
            assert not np.array_equal(a, b)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse_loss(np.zeros((2, 3)), np.zeros((2, 4)))


def test_cross_entropy_perfect_prediction():
    onehot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert cross_entropy_loss(onehot, onehot) < 1e-9


def test_cross_entropy_grad_direction():
    probs = np.array([[0.25, 0.75]])
    onehot = np.array([[1.0, 0.0]])
    g = cross_entropy_grad(probs, onehot)
    assert g[0, 0] < 0 and g[0, 1] == 0.0


# dense layers and blocks ----------------------------------------------

def test_forward_identity_block():
    layer = DenseLayer(3, 3, "identity", W=np.eye(3), bias=np.zeros((1, 3)))
    x = make_rng(2).normal(size=(4, 3))
    assert np.array_equal(layer.forward(x), x)


def test_forward_hand_oracle():
    layer = DenseLayer(2, 1, "elu", W=[[1.0], [1.0]], bias=[[0.0]])
    assert np.allclose(layer.forward(np.array([[1.0, 2.0]])), [[3.0]])


def test_forward_output_shape():
    rng = make_rng(13)
    block = make_block([5, 8, 3], "elu", rng)
    out = block.forward(rng.normal(size=(7, 5)))
    assert out.shape == (7, 3)


def test_forward_dim_mismatch():
    layer = DenseLayer(3, 2, "identity", rng=make_rng(0))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((2, 4)))


def test_backward_zero_upstream_gives_zero_grads():
    rng = make_rng(17)
    block = make_block([4, 6, 2], "sigmoid", rng)
    out = block.forward(rng.normal(size=(3, 4)), train=True)
    block.backward(np.zeros_like(out))
    for g in block.grad_arrays():
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_identity_input_grad():
    W = make_rng(19).normal(size=(3, 2))
    layer = DenseLayer(3, 2, "identity", W=W)
    x = make_rng(23).normal(size=(5, 3))
    layer.forward(x, train=True)
    upstream = make_rng(29).normal(size=(5, 2))
    assert np.allclose(layer.backward(upstream), upstream @ W.T, atol=1e-12)


@pytest.mark.parametrize("widths", [[5, 3], [5, 7, 4, 3]])
def test_backward_without_input_grad_same_param_grads(widths):
    rng = make_rng(21)
    block = make_block(widths, "sigmoid", rng, out_activation="elu")
    x = rng.normal(size=(6, widths[0]))
    upstream = rng.normal(size=(6, widths[-1]))
    block.forward(x, train=True)
    assert block.backward(upstream).shape == x.shape
    full = [g.copy() for g in block.grad_arrays()]
    block.forward(x, train=True)
    assert block.backward(upstream, input_grad=False) is None
    for a, b in zip(full, block.grad_arrays()):
        assert _same_bits(a, b)


def test_backward_without_forward_raises():
    layer = DenseLayer(2, 2, "identity", rng=make_rng(0))
    with pytest.raises(StateError):
        layer.backward(np.zeros((1, 2)))


def test_eval_forward_clears_cache():
    layer = DenseLayer(2, 2, "identity", rng=make_rng(0))
    x = np.ones((1, 2))
    layer.forward(x, train=True)
    layer.forward(x, train=False)
    with pytest.raises(StateError):
        layer.backward(np.zeros((1, 2)))


def test_block_rejects_nonchaining_layers():
    a = DenseLayer(2, 3, rng=make_rng(0))
    b = DenseLayer(4, 2, rng=make_rng(1))
    with pytest.raises(ShapeError):
        MLPBlock([a, b])


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        DenseLayer(2, 2, "relu6", rng=make_rng(0))


# Adam -----------------------------------------------------------------

def test_adam_scalar_oracle():
    # g=1 with zero moments: m_hat = v_hat = 1 after bias correction,
    # so the step is -lr/(1 + eps)
    theta = np.array([[0.0]])
    grad = np.array([[1.0]])
    state = AdamState.for_param(theta)
    new = adam_update(theta, grad, state, 1e-3)
    assert abs(float(new[0, 0]) - (-0.001)) < 1e-9
    assert state.t == 1


def test_adam_zero_grad_zero_state():
    theta = np.array([[0.7, -0.2]])
    state = AdamState.for_param(theta)
    new = adam_update(theta, np.zeros_like(theta), state, 1e-3)
    assert np.array_equal(new, theta)


def test_adam_first_step_is_lr_times_sign():
    for g in (0.5, -2.0, 1.0, -0.25):
        theta = np.array([[0.0]])
        state = AdamState.for_param(theta)
        new = adam_update(theta, np.array([[g]]), state, 1e-3)
        assert abs(float(new[0, 0]) - (-1e-3 * np.sign(g))) < 1e-6


def test_adam_deterministic():
    def run():
        theta = np.array([[1.0, 2.0]])
        state = AdamState.for_param(theta)
        for g in ([[0.3, -0.1]], [[-0.5, 0.2]], [[0.1, 0.1]]):
            theta = adam_update(theta, np.array(g), state, 1e-2)
        return theta

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    theta = np.zeros((2, 2))
    state = AdamState.for_param(theta)
    with pytest.raises(ShapeError):
        adam_update(theta, np.zeros((2, 3)), state, 1e-4)


def _textbook_adam(param, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * (grad * grad)
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_adam_in_place_bit_identical_to_textbook():
    rng = make_rng(8)
    theta = rng.normal(size=(7, 5))
    ref, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    state = AdamState.for_param(theta)
    for t in range(1, 13):
        grad = rng.normal(0.0, 10.0 ** rng.integers(-6, 3), size=theta.shape)
        out = adam_update(theta, grad, state, 3e-3)
        ref, m, v = _textbook_adam(ref, grad, m, v, t, lr=3e-3)
        assert out is theta
        assert _same_bits(theta, ref)
        assert _same_bits(state.m, m) and _same_bits(state.v, v)


def test_block_adam_bit_identical_to_textbook():
    # Tensors of four sizes share the block's work arrays.
    rng = make_rng(10)
    block = make_block([6, 9, 4], "elu", rng)
    # A large lr makes the step comparable to the parameters, so a
    # rounding difference in the step reaches their bits.
    opt = BlockAdam(block, lr=0.3)
    refs = [[p.copy(), np.zeros_like(p), np.zeros_like(p)]
            for p in block.param_arrays()]
    for t in range(1, 11):
        for layer in block.layers:
            layer.grad_W = rng.normal(size=layer.W.shape)
            layer.grad_b = rng.normal(size=layer.bias.shape)
        opt.step()
        for ref, p, g in zip(refs, block.param_arrays(), block.grad_arrays()):
            param, m, v = ref
            ref[:] = _textbook_adam(param, g, m, v, t, lr=0.3)
            assert _same_bits(p, ref[0])


def test_adam_step_leaves_constructor_arrays_alone():
    rng = make_rng(12)
    W, bias = rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    W_before, bias_before = W.copy(), bias.copy()
    layer = DenseLayer(3, 2, "identity", W=W, bias=bias)
    block = MLPBlock([layer])
    out = block.forward(rng.normal(size=(4, 3)), train=True)
    block.backward(np.ones_like(out))
    BlockAdam(block, lr=1e-2).step()
    assert not np.array_equal(layer.W, W_before)
    assert np.array_equal(W, W_before) and np.array_equal(bias, bias_before)


def test_block_adam_requires_gradients():
    block = make_block([2, 2], "identity", make_rng(0))
    opt = BlockAdam(block)
    with pytest.raises(StateError):
        opt.step()


def test_block_adam_set_lr_applies_to_states():
    # Three steps at one rate, then set_lr: the fourth step is the
    # textbook step at the new rate on the moments the first three left.
    rng = make_rng(31)
    block = make_block([2, 3], "identity", rng)
    opt = BlockAdam(block, lr=1e-3)
    refs = [[p.copy(), np.zeros_like(p), np.zeros_like(p)]
            for p in block.param_arrays()]
    for t, lr in enumerate((1e-3, 1e-3, 1e-3, 0.25), start=1):
        if t == 4:
            opt.set_lr(lr)
        out = block.forward(rng.normal(size=(2, 2)), train=True)
        block.backward(np.ones_like(out))
        opt.step()
        for ref, p, g in zip(refs, block.param_arrays(), block.grad_arrays()):
            param, m, v = ref
            ref[:] = _textbook_adam(param, g, m, v, t, lr=lr)
            assert _same_bits(p, ref[0])


def test_block_adam_updates_change_params():
    rng = make_rng(37)
    block = make_block([3, 4, 2], "elu", rng)
    before = [p.copy() for p in block.param_arrays()]
    out = block.forward(rng.normal(size=(4, 3)), train=True)
    block.backward(mse_loss_grad(out, np.zeros_like(out)))
    BlockAdam(block, lr=1e-3).step()
    after = block.param_arrays()
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))


# gradient checks ------------------------------------------------------

@pytest.mark.parametrize("activation", ["identity", "elu", "sigmoid"])
def test_grad_check_random_block(activation):
    rng = make_rng(41)
    block = make_block([4, 6, 5, 3], activation, rng)
    x = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 3))
    assert grad_check_block(block, x, target) < 1e-4


def test_grad_check_linear_block_tight():
    rng = make_rng(43)
    block = make_block([4, 5, 3], "identity", rng)
    x = rng.normal(size=(2, 4))
    target = rng.normal(size=(2, 3))
    assert grad_check_block(block, x, target) < 1e-7


def test_grad_check_flags_corrupted_gradient():
    rng = make_rng(47)
    block = make_block([3, 4, 2], "elu", rng)
    x = rng.normal(size=(2, 3))
    target = rng.normal(size=(2, 2))
    assert grad_check_block(block, x, target, inject_fault=True) > 1e-2


def test_gradcheck_oracle_flags_a_wrong_gradient():
    p = make_rng(38).normal(size=(3, 2))
    saved = p.copy()

    def loss():
        return float((p * p).sum())

    assert gradcheck(loss, [p], [2.0 * p]) < 1e-8
    wrong = 2.0 * p
    wrong[1, 0] += 0.5
    assert gradcheck(loss, [p], [wrong]) > 0.1
    assert np.array_equal(p, saved)


def test_finite_diff_simple_quadratic():
    p = np.array([[2.0, -1.0]])

    def loss_fn():
        return float((p * p).sum())

    (g,) = finite_diff_loss_grads(loss_fn, [p])
    assert np.allclose(g, 2.0 * p, atol=1e-6)


def test_max_rel_error_floored_denominator():
    a = np.array([[1e-9]])
    n = np.array([[2e-9]])
    assert max_rel_error(a, n) == pytest.approx(1e-9)
