import numpy as np
import pytest

from assoclearn import nn
from assoclearn.errors import ShapeError, StateError
from assoclearn.linalg import he_normal_init, make_rng, matmul, sliced_matmul
from assoclearn.nn import (
    BlockAdam,
    DenseLayer,
    MLPBlock,
    adam_update,
    elu,
    elu_grad,
    finite_diff_loss_grads,
    grad_check_block,
    gradcheck,
    make_block,
    max_rel_error,
    mse,
    sigmoid,
    sigmoid_grad_from_output,
    softmax,
    softmax_cross_entropy,
)
from conftest import given_layer


# activations ----------------------------------------------------------

def test_elu_positive_branch():
    assert np.array_equal(elu(np.array([1.0])), [1.0])


def test_elu_zero():
    assert np.array_equal(elu(np.array([0.0])), [0.0])


def test_elu_negative_oracle():
    # exp(-1) - 1
    assert abs(elu(np.array([-1.0]))[0] - (-0.63212)) < 1e-5


def test_elu_continuous_and_monotone():
    xs = np.sort(make_rng(3).normal(0.0, 3.0, size=200))
    ys = elu(np.array([xs]))[0]
    assert (np.diff(ys) > 0).all()
    up, down = elu(np.array([1e-7, -1e-7]))
    assert abs(up - down) < 1e-6


def test_elu_grad_matches_branches():
    x = np.array([[-2.0, -0.5, 0.5, 3.0]])
    g = elu_grad(x)
    expected = np.where(x > 0, 1.0, np.exp(x))
    assert np.allclose(g, expected, atol=1e-12)


def test_sigmoid_zero():
    assert np.array_equal(sigmoid(np.array([0.0])), [0.5])


def test_sigmoid_symmetry():
    xs = make_rng(5).normal(0.0, 4.0, size=(1, 64))
    assert np.allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)


def test_sigmoid_extreme_no_overflow():
    with np.errstate(over="raise"):
        assert np.array_equal(sigmoid(np.array([500.0])), [1.0])
        assert 0.0 <= sigmoid(np.array([-500.0]))[0] < 1e-200


def test_sigmoid_grad_from_output():
    x = np.array([[0.3, -1.2, 2.0]])
    out = sigmoid(x)
    assert np.allclose(sigmoid_grad_from_output(out), out * (1 - out))


def _same_bits(a, b):
    return np.array_equal(a.view(f"i{a.itemsize}"), b.view(f"i{b.itemsize}"))


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


# Each activation over a whole array at once, into a new array.
_UNBLOCKED = {"identity": lambda z: z, "elu": elu, "sigmoid": sigmoid}
# Row counts on both sides of a 64-row block of width 512; pairs above
# 4M output elements are left out to bound the test's memory.
_FORWARD_SHAPES = [(rows, width) for rows in (1, 63, 64, 65, 2048, 6000)
                   for width in (10, 256, 512, 40000)
                   if rows * width <= 4_000_000]


@pytest.mark.parametrize("rows,width", _FORWARD_SHAPES)
@pytest.mark.parametrize("activation", list(nn.ACTIVATIONS))
def test_dense_forward_row_blocks_bit_identical_to_unblocked(
        activation, rows, width):
    rng = make_rng(rows * 40001 + width)
    layer = given_layer(he_normal_init(8, width, rng), rng.normal(size=width),
                        activation)
    x = rng.normal(0.0, 3.0, size=(rows, 8))
    x_before = x.copy()
    for train in (False, True):
        z = matmul(x, layer.W, sliced=train) + layer.bias
        expected = _UNBLOCKED[activation](z.copy())
        assert _same_bits(layer.forward(x, train=train), expected)
        assert _same_bits(x, x_before)
    g = rng.normal(size=(rows, width))
    dz = nn.ACTIVATIONS[activation].backward(g, z, expected)
    dx = layer.backward(g)
    assert _same_bits(layer.grad_W, sliced_matmul(x.T, dz))
    assert _same_bits(layer.grad_b, dz.sum(axis=0, keepdims=True))
    assert _same_bits(dx, sliced_matmul(dz, layer.W.T))


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
    loss, grad = mse(a, a.copy())
    assert loss == 0.0 and not grad.any()


def test_mse_single_row_oracle():
    assert mse(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))[0] == 5.0


def test_mse_batch_mean_oracle():
    # per-row losses 5 and 1 average to 3
    a = np.array([[1.0, 2.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert mse(a, b)[0] == 3.0


def test_mse_grad_formula():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 1.0]])
    assert np.allclose(mse(a, b)[1], 2.0 * (a - b) / 2.0)


def test_mse_nonnegative_zero_iff_equal():
    rng = make_rng(11)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        val = mse(a, b)[0]
        assert val >= 0.0
        if val < 1e-12:
            assert np.allclose(a, b)
        else:
            assert not np.array_equal(a, b)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeError):
        mse(np.zeros((2, 3)), np.zeros((2, 4)))


def _upstream_of_another_shape():
    layer = DenseLayer(3, 2, "elu", rng=make_rng(0))
    layer.forward(np.ones((4, 3)), train=True)
    layer.backward(np.ones((4, 3)))


@pytest.mark.parametrize("call, says", [
    (lambda: mse(np.zeros((2, 3)), np.zeros((2, 4))),
     r"mse: shapes differ, \(2, 3\) vs \(2, 4\)"),
    (lambda: softmax_cross_entropy(np.zeros((2, 3)), np.zeros((2, 4))),
     r"cross_entropy: shapes differ, \(2, 3\) vs \(2, 4\)"),
    (_upstream_of_another_shape,
     r"upstream gradient shape \(4, 3\) != \(4, 2\)"),
    (lambda: MLPBlock([]), "a block needs at least one layer"),
    (lambda: make_block([3], "elu", make_rng(0)),
     "width chain needs at least input and output"),
], ids=["mse", "softmax_cross_entropy",
        "dense-backward-upstream", "empty-block", "one-width-chain"])
def test_shape_refusals_say_what_does_not_fit(call, says):
    with pytest.raises(ShapeError, match=says):
        call()


def test_cross_entropy_perfect_prediction():
    onehot = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert softmax_cross_entropy(50.0 * onehot, onehot)[0] < 1e-9


def test_cross_entropy_grad_direction():
    # The gradient at the logits: a descent step raises the true class's
    # logit and lowers the others', and the row sums to zero, since the
    # softmax ignores a shift of the logits.
    z = np.log(np.array([[0.25, 0.75]]))
    onehot = np.array([[1.0, 0.0]])
    g = softmax_cross_entropy(z, onehot)[1]
    assert g[0, 0] < 0 < g[0, 1] and abs(g.sum()) < 1e-15


@pytest.mark.parametrize("g", [20.0, 27.0, 30.0, 40.0, 800.0])
def test_cross_entropy_is_exact_however_wrong_the_row(g):
    # Logits [g, 0] with true class 1 cost g + log(1 + e^-g): no clip
    # stops the loss, and at g = 800 no exp overflows (every warning is
    # an error in the test suite).
    loss, _ = softmax_cross_entropy(np.array([[g, 0.0]]),
                                    np.array([[0.0, 1.0]]))
    assert loss == pytest.approx(g + np.log1p(np.exp(-g)), rel=1e-15)


def test_cross_entropy_gradient_has_the_bits_of_softmax():
    rng = make_rng(3)
    z = rng.normal(size=(7, 5)) * 4.0
    onehot = np.eye(5)[rng.integers(0, 5, size=7)]
    loss, grad = softmax_cross_entropy(z, onehot)
    assert grad.tobytes() == ((softmax(z) - onehot) / 7).tobytes()
    assert loss == pytest.approx(-(onehot * np.log(softmax(z))).sum(1).mean(),
                                 rel=1e-14)


# dense layers and blocks ----------------------------------------------

def test_forward_identity_block():
    layer = given_layer(np.eye(3))
    x = make_rng(2).normal(size=(4, 3))
    assert np.array_equal(layer.forward(x), x)


def test_forward_hand_oracle():
    layer = given_layer([[1.0], [1.0]], [[0.0]], "elu")
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
    layer = given_layer(W)
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


def test_second_backward_without_forward_raises():
    rng = make_rng(5)
    layer = DenseLayer(3, 2, "elu", rng=rng)
    out = layer.forward(rng.normal(size=(4, 3)), train=True)
    layer.backward(np.ones_like(out))
    assert layer._cache is None
    with pytest.raises(StateError):
        layer.backward(np.ones_like(out))
    block = make_block([3, 5, 2], "sigmoid", rng)
    out = block.forward(rng.normal(size=(4, 3)), train=True)
    block.backward(np.ones_like(out), input_grad=False)
    assert all(layer._cache is None for layer in block.layers)
    with pytest.raises(StateError):
        block.backward(np.ones_like(out))


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

def _adam_state(theta):
    """Zero moments for theta and a work array of one row block."""
    rows = theta[:nn._block_rows(theta)]
    return (np.zeros_like(theta), np.zeros_like(theta),
            np.empty(rows.size, dtype=theta.dtype))


def test_adam_scalar_oracle():
    # g=1 with zero moments: m_hat = v_hat = 1 after bias correction,
    # so the step is -lr/(1 + eps)
    theta = np.array([[0.0]])
    grad = np.array([[1.0]])
    m, v, work = _adam_state(theta)
    new = adam_update(theta, grad, m, v, 1, 1e-3, work)
    assert abs(float(new[0, 0]) - (-0.001)) < 1e-9


def test_adam_zero_grad_zero_state():
    theta = np.array([[0.7, -0.2]])
    m, v, work = _adam_state(theta)
    new = adam_update(theta, np.zeros_like(theta), m, v, 1, 1e-3, work)
    assert np.array_equal(new, theta)


def test_adam_first_step_is_lr_times_sign():
    for g in (0.5, -2.0, 1.0, -0.25):
        theta = np.array([[0.0]])
        m, v, work = _adam_state(theta)
        new = adam_update(theta, np.array([[g]]), m, v, 1, 1e-3, work)
        assert abs(float(new[0, 0]) - (-1e-3 * np.sign(g))) < 1e-6


def test_adam_deterministic():
    def run():
        theta = np.array([[1.0, 2.0]])
        m, v, work = _adam_state(theta)
        for t, g in enumerate(([[0.3, -0.1]], [[-0.5, 0.2]], [[0.1, 0.1]]),
                              start=1):
            theta = adam_update(theta, np.array(g), m, v, t, 1e-2, work)
        return theta

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch():
    theta = np.zeros((2, 2))
    m, v, work = _adam_state(theta)
    with pytest.raises(ShapeError):
        adam_update(theta, np.zeros((2, 3)), m, v, 1, 1e-4, work)


def _textbook_adam(param, grad, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """(new param, m, v, step) of the t-th textbook Adam step."""
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * (grad * grad)
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    step = lr * m_hat / (np.sqrt(v_hat) + eps)
    return param - step, m, v, step


def test_adam_in_place_bit_identical_to_textbook():
    _check_adam_against_textbook(np.float64)


def test_adam_in_place_bit_identical_to_textbook_in_float32():
    _check_adam_against_textbook(np.float32)


def _check_adam_against_textbook(dtype):
    # Twelve steps at gradient scales from 1e-6 to 1e2; the consumed
    # gradient is left holding the step.
    rng = make_rng(8)
    theta = rng.normal(size=(7, 5)).astype(dtype)
    ref, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    m_in, v_in, work = _adam_state(theta)
    for t in range(1, 13):
        grad = rng.normal(0.0, 10.0 ** rng.integers(-6, 3),
                          size=theta.shape).astype(dtype)
        ref, m, v, step = _textbook_adam(ref, grad, m, v, t, lr=3e-3)
        out = adam_update(theta, grad, m_in, v_in, t, 3e-3, work)
        assert out is theta and ref.dtype == dtype
        assert _same_bits(theta, ref) and _same_bits(grad, step)
        assert _same_bits(m_in, m) and _same_bits(v_in, v)


def _set_grads(block, rng):
    """Random gradients on every layer; returns copies of them, which the
    step that consumes them leaves intact."""
    for layer in block.layers:
        layer.grad_W = rng.normal(size=layer.W.shape)
        layer.grad_b = rng.normal(size=layer.bias.shape)
    return [g.copy() for g in block.grad_arrays()]


def test_block_adam_bit_identical_to_textbook():
    # Tensors of four sizes share the block's work array and step count.
    rng = make_rng(10)
    block = make_block([6, 9, 4], "elu", rng)
    # A large lr makes the step comparable to the parameters, so a
    # rounding difference in the step reaches their bits.
    opt = BlockAdam(block)
    refs = [[p.copy(), np.zeros_like(p), np.zeros_like(p)]
            for p in block.param_arrays()]
    for t in range(1, 11):
        grads = _set_grads(block, rng)
        opt.step(0.3)
        assert opt.t == t
        for ref, p, g, m_opt, v_opt in zip(
                refs, block.param_arrays(), grads, opt.m, opt.v):
            param, m, v = ref
            ref[:] = _textbook_adam(param, g, m, v, t, lr=0.3)[:3]
            assert _same_bits(p, ref[0])
            assert _same_bits(m_opt, ref[1]) and _same_bits(v_opt, ref[2])


# (shape of the array, view of it that Adam updates): blocks of 128,
# 64, 127 and 32768 rows, one-row tensors, rows wider than a block, and
# views that are not C-contiguous.
_ADAM_TENSORS = {
    "784x256": ((784, 256), lambda a: a),
    "256x512": ((256, 512), lambda a: a),
    "1x256": ((1, 256), lambda a: a),
    "130x257": ((130, 257), lambda a: a),
    "3x40000": ((3, 40000), lambda a: a),
    "1-D": ((100003,), lambda a: a),
    "transposed": ((300, 200), lambda a: a.T),
    "strided": ((400, 700), lambda a: a[1::2, ::3]),
}


@pytest.mark.parametrize("case", list(_ADAM_TENSORS))
def test_adam_row_blocks_bit_identical_to_textbook(case):
    # A work array of one row block serves every block of the tensor.
    shape, view = _ADAM_TENSORS[case]
    rng = make_rng(46)
    theta = view(rng.normal(size=shape))
    ref, m, v = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    m_in, v_in, work = _adam_state(theta)
    assert work.size <= max(nn.BLOCK_ELEMS, theta[:1].size)
    for t in range(1, 5):
        grad = view(rng.normal(0.0, 10.0 ** rng.integers(-6, 3), size=shape))
        ref, m, v, step = _textbook_adam(ref, grad, m, v, t, lr=0.3)
        assert adam_update(theta, grad, m_in, v_in, t, 0.3, work) is theta
        assert _same_bits(theta, ref) and _same_bits(grad, step)
        assert _same_bits(m_in, m) and _same_bits(v_in, v)


@pytest.mark.parametrize("widths", [[784, 256, 10], [3, 40000]])
def test_block_adam_work_arrays_hold_one_block(widths):
    rng = make_rng(47)
    block = make_block(widths, "elu", rng)
    _set_grads(block, rng)
    opt = BlockAdam(block)
    opt.step(1e-3)
    widest_row = max(widths[1:])
    assert opt._work.ndim == 1
    assert opt._work.size <= nn.BLOCK_ELEMS + widest_row
    assert opt._work.size < max(p.size for p in block.param_arrays())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_block_adam_state_follows_the_tensors(dtype):
    # One moment pair per tensor, in param_arrays order, of its shape and
    # dtype, made by the first step; one step count for the block.
    rng = make_rng(48)
    block = make_block([3, 5, 2], "elu", rng)
    for layer in block.layers:
        layer.W, layer.bias = layer.W.astype(dtype), layer.bias.astype(dtype)
    opt = BlockAdam(block)
    assert (opt.m, opt.v, opt.t) == ([], [], 0)
    for _ in range(2):
        _backward(block, rng, dtype)
        opt.step(1e-2)
    params = block.param_arrays()
    assert opt.t == 2 and len(opt.m) == len(opt.v) == len(params)
    for p, m, v in zip(params, opt.m, opt.v):
        assert m.shape == v.shape == p.shape
        assert m.dtype == v.dtype == opt._work.dtype == np.dtype(dtype)


def test_block_adam_requires_gradients():
    block = make_block([2, 2], "identity", make_rng(0))
    opt = BlockAdam(block)
    with pytest.raises(StateError):
        opt.step(1e-4)
    assert (opt.m, opt.v, opt.t, opt._work) == ([], [], 0, None)


def _backward(block, rng, dtype=np.float64):
    x = rng.normal(size=(5, block.fan_in)).astype(dtype)
    out = block.forward(x, train=True)
    block.backward(mse(out, np.zeros_like(out))[1])


def _stepped_block(rng):
    """A two-layer block and its optimizer after one step, with the
    gradients of a second backward on the block."""
    block = make_block([3, 4, 2], "elu", rng)
    opt = BlockAdam(block)
    _backward(block, rng)
    opt.step(1e-2)
    _backward(block, rng)
    return block, opt


def _adam_bits(block, opt):
    """The bytes of every parameter and moment, and the step count."""
    return ([p.tobytes() for p in block.param_arrays()],
            [a.tobytes() for a in opt.m + opt.v], opt.t)


@pytest.mark.parametrize("fault,error", [
    ("missing", StateError), ("misshapen", ShapeError)])
def test_block_adam_checks_every_gradient_before_any_update(fault, error):
    # Only the last layer's bias gradient is bad, so the first layer,
    # which is updated first, must not move either.
    block, opt = _stepped_block(make_rng(55))
    last = block.layers[-1]
    last.grad_b = None if fault == "missing" else np.ones((2, 2))
    before = _adam_bits(block, opt)
    with pytest.raises(error):
        opt.step(1e-2)
    assert _adam_bits(block, opt) == before
    assert block.layers[0].grad_W is not None


def test_block_adam_first_step_that_raises_makes_no_state():
    # The moments are made only once every gradient has passed its check.
    rng = make_rng(57)
    block = make_block([3, 4, 2], "elu", rng)
    opt = BlockAdam(block)
    _backward(block, rng)
    block.layers[-1].grad_b = np.ones((2, 2))
    before = _adam_bits(block, opt)
    with pytest.raises(ShapeError):
        opt.step(1e-2)
    assert _adam_bits(block, opt) == before == (before[0], [], 0)
    assert opt._work is None


def test_block_adam_second_step_without_backward_raises():
    # The step consumes the gradients, so a stale one is never applied
    # twice.
    block, opt = _stepped_block(make_rng(56))
    opt.step(1e-2)
    assert all(g is None for g in block.grad_arrays())
    before = _adam_bits(block, opt)
    with pytest.raises(StateError):
        opt.step(1e-2)
    assert _adam_bits(block, opt) == before


def test_block_adam_step_applies_its_rate_to_the_states():
    # Three steps at one rate, then one at another: the fourth step is
    # the textbook step at the new rate on the moments the first three left.
    rng = make_rng(31)
    block = make_block([2, 3], "identity", rng)
    opt = BlockAdam(block)
    refs = [[p.copy(), np.zeros_like(p), np.zeros_like(p)]
            for p in block.param_arrays()]
    for t, lr in enumerate((1e-3, 1e-3, 1e-3, 0.25), start=1):
        out = block.forward(rng.normal(size=(2, 2)), train=True)
        block.backward(np.ones_like(out))
        grads = [g.copy() for g in block.grad_arrays()]
        opt.step(lr)
        for ref, p, g in zip(refs, block.param_arrays(), grads):
            param, m, v = ref
            ref[:] = _textbook_adam(param, g, m, v, t, lr=lr)[:3]
            assert _same_bits(p, ref[0])


def test_block_adam_updates_change_params():
    rng = make_rng(37)
    block = make_block([3, 4, 2], "elu", rng)
    before = [p.copy() for p in block.param_arrays()]
    out = block.forward(rng.normal(size=(4, 3)), train=True)
    block.backward(mse(out, np.zeros_like(out))[1])
    BlockAdam(block).step(1e-3)
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
