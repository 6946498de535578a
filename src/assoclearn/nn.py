"""Layers, activations, losses, Adam, and gradient checking.

The building block is ``DenseLayer`` (affine + activation) and ``MLPBlock``
(a chain of dense layers). Blocks cache forward intermediates only in
training mode; ``backward`` replays the chain rule exactly and leaves
parameter gradients on each layer, and skips the block's input gradient
when the caller discards it. ``BlockAdam`` then applies Adam with bias
correction per parameter tensor, in place: the layer's tensors and the
moments are overwritten, and the result is bit-identical to the textbook
formula evaluated with fresh arrays, because every operation runs in the
same order. Layers therefore own their tensors and copy any they are given.
A tensor's Adam state is its moments m, v and step count t; beta1, beta2
and eps are module constants, and the learning rate is held once, by the
block's ``BlockAdam``.

The activations select no elements by mask: ELU, its derivative and the
sigmoid's numerator are written with minimum, maximum and exp in forms
that equal the two-branch definitions bit for bit, including at +-0,
+-inf and NaN, because each branch's value already lies on the right
side of the other (expm1(x) >= x for x <= 0, 0 <= exp(-|x|) <= 1, and
exp(0) is exactly 1). The sigmoid layer overwrites its own
pre-activation with its output, since its backward pass needs only that.

``param_items`` / ``set_params`` name and assign the tensors of a list of
named layers; the component network and the baseline both go through them.

``gradcheck`` is the one finite-difference oracle: every gradient check in
the package compares analytic gradients against ``finite_diff_loss_grads``
through it, measuring relative errors as ``|a - n| / max(1, |a|, |n|)``
so that roundoff-scale gradients do not inflate the ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StateError
from .linalg import (DTYPE, Matrix, Rng, he_normal_init, matmul,
                     sliced_matmul)


def _vectorize(fn):
    """Run fn(a, out) on an array view a of x; return a scalar if x was one.
    out, for an array x, is where the result goes; it may be x itself."""

    def wrapped(x, out=None):
        a = np.asarray(x, dtype=DTYPE)
        if a.ndim == 0:
            return float(fn(a.reshape(1), None)[0])
        return fn(a, out)

    return wrapped


@_vectorize
def elu(x, out):
    """Exponential linear unit with alpha = 1: x for x > 0, exp(x) - 1 below.

    Taken as maximum(x, expm1(minimum(x, 0))): above 0 that is max(x, 0),
    and below it expm1(x) >= x, so no per-element select is needed.
    """
    e = np.minimum(x, 0.0)
    np.expm1(e, out=e)
    return np.maximum(x, e, out=e if out is None else out)


@_vectorize
def elu_grad(x, out):
    """1 for x > 0, exp(x) below; exp(minimum(x, 0)) is exactly 1 above 0."""
    d = np.minimum(x, 0.0, out=out)
    return np.exp(d, out=d)


@_vectorize
def sigmoid(x, out):
    """Logistic function with one exp that cannot overflow.

    With e = exp(-|x|), where(x >= 0, 1, e) / (1 + e) is 1/(1 + exp(-x))
    for x >= 0 and exp(x)/(1 + exp(x)) below, the two branches of the
    classic overflow-safe form, so the result is bit-identical to it.
    The numerator is taken as maximum(e, x >= 0), which equals that
    select because 0 <= e <= 1. -|x| is taken as minimum(x, -x), which
    returns x itself where x is NaN, so a NaN keeps its sign as it does
    in the two-branch form.
    """
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0, out=out)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num)


def sigmoid_grad_from_output(out):
    d = 1.0 - out
    return np.multiply(out, d, out=d)


def softmax(z: Matrix) -> Matrix:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class _Identity:
    name = "identity"

    def value(self, z):
        return z

    def backward(self, grad_out, z, out):
        return grad_out


class _Elu:
    name = "elu"

    def value(self, z):
        return elu(z)

    def backward(self, grad_out, z, out):
        d = elu_grad(z)
        return np.multiply(grad_out, d, out=d)


class _Sigmoid:
    name = "sigmoid"

    def value(self, z):
        # In place: the backward pass reads only the output.
        return sigmoid(z, out=z)

    def backward(self, grad_out, z, out):
        d = sigmoid_grad_from_output(out)
        return np.multiply(grad_out, d, out=d)


class _Softmax:
    # Row-wise softmax; backward is the exact Jacobian-vector product.
    name = "softmax"

    def value(self, z):
        return softmax(z)

    def backward(self, grad_out, z, out):
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        return out * (grad_out - inner)


ACTIVATIONS = {a.name: a for a in (_Identity(), _Elu(), _Sigmoid(), _Softmax())}


class DenseLayer:
    """Affine map plus activation.

    W has shape (fan_in, fan_out), bias (1, fan_out). A given W or bias is
    copied, because the optimizer updates the layer's tensors in place.
    Forward in training mode caches (input, pre-activation, output) for the
    backward pass (a sigmoid layer's pre-activation is its output, which
    it overwrote); evaluation-mode forward clears the cache. Forward never
    writes into its input. Every product of training (forward, grad_W and
    input gradient) is sliced_matmul's, so training gives the same bits at
    any BLAS thread count; evaluation-mode forward keeps the plain
    product, which is faster.
    """

    def __init__(self, fan_in: int, fan_out: int, activation: str = "identity",
                 rng: Rng | None = None, W: Matrix | None = None,
                 bias: Matrix | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if W is None:
            if rng is None:
                raise ValueError("need an rng when W is not given")
            W = he_normal_init(fan_in, fan_out, rng)
        else:
            W = np.array(W, dtype=DTYPE)
        if W.shape != (fan_in, fan_out):
            raise ShapeError(f"W shape {W.shape} != ({fan_in}, {fan_out})")
        if bias is None:
            bias = np.zeros((1, fan_out), dtype=DTYPE)
        else:
            bias = np.array(bias, dtype=DTYPE).reshape(1, fan_out)
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.activation = activation
        self.W = W
        self.bias = bias
        self.grad_W: Matrix | None = None
        self.grad_b: Matrix | None = None
        self._cache: tuple[Matrix, Matrix, Matrix] | None = None

    def forward(self, x: Matrix, train: bool = False) -> Matrix:
        z = matmul(x, self.W, sliced=train)
        z += self.bias
        out = ACTIVATIONS[self.activation].value(z)
        self._cache = (x, z, out) if train else None
        return out

    def backward(self, grad_out: Matrix, input_grad: bool = True) -> Matrix | None:
        """Leave grad_W / grad_b on the layer and return the gradient with
        respect to the input, or None when input_grad is False."""
        if self._cache is None:
            raise StateError("backward without a prior training-mode forward")
        x, z, out = self._cache
        if grad_out.shape != out.shape:
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} != {out.shape}")
        dz = ACTIVATIONS[self.activation].backward(grad_out, z, out)
        self.grad_W = sliced_matmul(x.T, dz)
        self.grad_b = dz.sum(axis=0, keepdims=True)
        return sliced_matmul(dz, self.W.T) if input_grad else None

    def param_count(self) -> int:
        return self.W.size + self.bias.size


class MLPBlock:
    """Ordered chain of dense layers with matching inner dimensions."""

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ShapeError("a block needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.fan_out != b.fan_in:
                raise ShapeError(
                    f"layer dims do not chain: {a.fan_out} -> {b.fan_in}")
        self.layers = layers

    @property
    def fan_in(self) -> int:
        return self.layers[0].fan_in

    @property
    def fan_out(self) -> int:
        return self.layers[-1].fan_out

    def forward(self, x: Matrix, train: bool = False) -> Matrix:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: Matrix, input_grad: bool = True) -> Matrix | None:
        """Chain rule through every layer; with input_grad=False the first
        layer skips the product that only the block's input gradient needs,
        and None is returned."""
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        return self.layers[0].backward(grad_out, input_grad)

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    def param_arrays(self) -> list[Matrix]:
        out = []
        for layer in self.layers:
            out.append(layer.W)
            out.append(layer.bias)
        return out

    def grad_arrays(self) -> list[Matrix | None]:
        out = []
        for layer in self.layers:
            out.append(layer.grad_W)
            out.append(layer.grad_b)
        return out


def make_block(widths: list[int], activation: str, rng: Rng,
               out_activation: str | None = None) -> MLPBlock:
    """Block from a width chain [in, h1, ..., out]; one activation for all
    layers, optionally a different one for the last."""
    if len(widths) < 2:
        raise ShapeError("width chain needs at least input and output")
    layers = []
    last = len(widths) - 2
    for k, (a, b) in enumerate(zip(widths, widths[1:])):
        act = out_activation if (k == last and out_activation) else activation
        layers.append(DenseLayer(a, b, act, rng=rng))
    return MLPBlock(layers)


# parameters -----------------------------------------------------------

def param_items(named_layers) -> list[tuple[str, Matrix]]:
    """(name.W, W), (name.bias, bias) for every (name, layer), in order."""
    out = []
    for name, layer in named_layers:
        out.append((f"{name}.W", layer.W))
        out.append((f"{name}.bias", layer.bias))
    return out


def set_params(named_layers: list, arrays: list[Matrix]) -> None:
    """Assign copies of the tensors, in param_items order. The count and
    every shape are checked before any tensor is assigned; a bias may be
    given as (1, n) or (n,)."""
    if len(arrays) != 2 * len(named_layers):
        raise ShapeError(f"expected {2 * len(named_layers)} parameter "
                         f"tensors, got {len(arrays)}")
    pairs = list(zip(arrays[::2], arrays[1::2]))
    for (name, layer), (W, bias) in zip(named_layers, pairs):
        if np.shape(W) != layer.W.shape or np.shape(bias) not in (
                layer.bias.shape, layer.bias.shape[1:]):
            raise ShapeError(
                f"{name}: parameter shapes {np.shape(W)}, {np.shape(bias)} "
                f"vs {layer.W.shape}, {layer.bias.shape}")
    for (_, layer), (W, bias) in zip(named_layers, pairs):
        layer.W = np.array(W, dtype=layer.W.dtype)
        layer.bias = np.array(bias, dtype=layer.bias.dtype).reshape(1, -1)


# losses ---------------------------------------------------------------

def mse_loss(a: Matrix, b: Matrix) -> float:
    """Squared L2 distance per sample, averaged over the batch."""
    if a.shape != b.shape:
        raise ShapeError(f"mse_loss: shapes differ, {a.shape} vs {b.shape}")
    d = a - b
    return float((d * d).sum(axis=1).mean())


def mse_loss_grad(a: Matrix, b: Matrix) -> Matrix:
    """Gradient of mse_loss with respect to a."""
    if a.shape != b.shape:
        raise ShapeError(f"mse_loss: shapes differ, {a.shape} vs {b.shape}")
    d = a - b
    d *= 2.0
    d /= a.shape[0]
    return d


_CE_EPS = 1e-12


def cross_entropy_loss(probs: Matrix, onehot: Matrix) -> float:
    if probs.shape != onehot.shape:
        raise ShapeError(
            f"cross_entropy: shapes differ, {probs.shape} vs {onehot.shape}")
    p = np.clip(probs, _CE_EPS, None)
    return float(-(onehot * np.log(p)).sum(axis=1).mean())


def cross_entropy_grad(probs: Matrix, onehot: Matrix) -> Matrix:
    p = np.clip(probs, _CE_EPS, None)
    return -(onehot / p) / probs.shape[0]


# Adam -----------------------------------------------------------------

# Kingma & Ba's decay rates and epsilon (arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-tensor Adam moments; t counts applied updates."""

    m: Matrix
    v: Matrix
    t: int = 0

    @classmethod
    def for_param(cls, param: Matrix) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_update(param: Matrix, grad: Matrix, state: AdamState, lr: float,
                scratch: tuple[Matrix, Matrix] | None = None) -> Matrix:
    """One bias-corrected Adam step at rate lr, in place; returns param.

    param, state.m and state.v are overwritten. The textbook update

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        param - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)

    is evaluated one operation at a time in exactly that order, so the
    result is bit-identical to computing it with fresh arrays. scratch is
    a pair of param-shaped work arrays; two are allocated when it is None.
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(
            f"adam_update: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}")
    if scratch is None:
        scratch = (np.empty_like(param), np.empty_like(param))
    s1, s2 = scratch
    m, v = state.m, state.v
    state.t += 1
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s1)
    np.add(m, s1, out=m)
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(grad, grad, out=s1)
    np.multiply(s1, 1.0 - ADAM_BETA2, out=s1)
    np.add(v, s1, out=v)
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=s1)
    np.multiply(s1, lr, out=s1)
    np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, ADAM_EPS, out=s2)
    np.divide(s1, s2, out=s1)
    return np.subtract(param, s1, out=param)


class BlockAdam:
    """Adam at one learning rate over every parameter tensor of one MLPBlock.

    States are created lazily on the first step so that freshly built
    networks stay cheap until training actually starts. The tensors are
    updated in place, through one pair of work arrays sized to the
    block's largest tensor.
    """

    def __init__(self, block: MLPBlock, lr: float = 1e-4):
        self.block = block
        self.lr = lr
        self._states: dict[tuple[int, str], AdamState] = {}
        self._work: tuple[Matrix, Matrix] | None = None

    def _state(self, key: tuple[int, str], param: Matrix) -> AdamState:
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = AdamState.for_param(param)
        return st

    def _scratch(self, param: Matrix) -> tuple[Matrix, Matrix]:
        if self._work is None:
            size = max(p.size for p in self.block.param_arrays())
            self._work = (np.empty(size, dtype=DTYPE),
                          np.empty(size, dtype=DTYPE))
        return tuple(w[:param.size].reshape(param.shape) for w in self._work)

    def set_lr(self, lr: float) -> None:
        self.lr = lr

    def step(self) -> None:
        for i, layer in enumerate(self.block.layers):
            if layer.grad_W is None or layer.grad_b is None:
                raise StateError("step without gradients; run backward first")
            adam_update(layer.W, layer.grad_W, self._state((i, "W"), layer.W),
                        self.lr, self._scratch(layer.W))
            adam_update(layer.bias, layer.grad_b,
                        self._state((i, "b"), layer.bias), self.lr,
                        self._scratch(layer.bias))


# finite differences ---------------------------------------------------

def finite_diff_loss_grads(loss_fn, params: list[Matrix],
                           eps: float = 1e-5) -> list[Matrix]:
    """Central-difference gradient of loss_fn() for each tensor in params.

    loss_fn takes no arguments and must recompute the loss from the current
    (mutated in place) parameter values.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = loss_fn()
            flat[i] = saved - eps
            down = loss_fn()
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_error(analytic: Matrix, numeric: Matrix) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck(loss_fn, params: list[Matrix], analytic: list[Matrix],
              eps: float = 1e-5) -> float:
    """Max floored-relative error between the analytic gradients of
    loss_fn() with respect to params and its central differences."""
    numeric = finite_diff_loss_grads(loss_fn, params, eps=eps)
    return max(max_rel_error(a, n) for a, n in zip(analytic, numeric))


def grad_check_block(block: MLPBlock, x: Matrix, target: Matrix,
                     eps: float = 1e-5, inject_fault: bool = False) -> float:
    """gradcheck of the MSE loss of block(x) against target."""
    block.backward(mse_loss_grad(block.forward(x, train=True), target))
    analytic = [g.copy() for g in block.grad_arrays()]
    if inject_fault:
        analytic[0].reshape(-1)[0] += 0.1
    return gradcheck(lambda: mse_loss(block.forward(x), target),
                     block.param_arrays(), analytic, eps)
