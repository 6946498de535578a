"""Layers, activations, losses, Adam, and gradient checking.

The building block is ``DenseLayer`` (affine + activation) and ``MLPBlock``
(a chain of dense layers). Blocks cache forward intermediates only in
training mode; ``backward`` replays the chain rule exactly, consumes
those caches, leaves parameter gradients on each layer, and skips the
block's input gradient when the caller discards it. ``BlockAdam`` then
applies Adam with bias correction per parameter tensor, in place, and
consumes the gradients. So a gradient lives from the backward that makes
it to the step that applies it, and a training cache from the forward
that fills it to the backward that reads it. A batch that fails part way
can leave either behind, but no step reads it: the next batch's forward
and backward replace every cache and gradient before its step. The step
overwrites the layer's tensors, the moments and the gradients it
consumes, and the result is bit-identical to the textbook formula
evaluated with fresh arrays, because every operation runs in the same
order. Layers therefore own their tensors: a layer draws its
own when it is built, and ``set_params`` is the one way to give it
others, as copies. Adam state is a block's: one moment pair m, v per
tensor and one step count t for them all, on its ``BlockAdam``; beta1,
beta2 and eps are module constants, and the learning rate is not state
at all: the model holds it, and ``BlockAdam.step(lr)`` takes it on
every call.

The memory-bound elementwise passes run in row blocks of at most
``BLOCK_ELEMS`` elements (``row_blocks``), so their operands and
temporaries stay in a core's L2 cache between operations: Adam's
operations, and each dense layer's bias add and activation. The work is
elementwise, so the bits do not depend on the block size. The matrix
products are never split by rows: OpenBLAS picks its threading by the
row count, and a product of fewer rows can round differently.

The activations select no elements by mask: ELU, its derivative and the
sigmoid's numerator are written with minimum, maximum and exp in forms
that equal the two-branch definitions bit for bit, including at +-0,
+-inf and NaN, because each branch's value already lies on the right
side of the other (expm1(x) >= x for x <= 0, 0 <= exp(-|x|) <= 1, and
exp(0) is exactly 1). A layer overwrites its own pre-activation with
its output, except a training-mode ELU, whose backward pass reads it.

No code here decides a dtype. The activations, each layer's products,
gradients and caches, the Adam moments and the work array all take the
dtype of the tensors they work on; a tensor gets its dtype where it is
born (``linalg.he_normal_init``, or the data).

Each loss returns (loss, gradient) from one pass, so a training step
makes one loss call; ``softmax_cross_entropy`` takes the logits, so its
loss is exact with no clip, however wrong a row is.

``param_items`` / ``set_params`` name and assign the tensors of a list of
named layers; the component network and the baseline both go through them.

``gradcheck`` is the one finite-difference oracle: every comparison of
analytic gradients against ``finite_diff_loss_grads`` in the package goes
through it, measuring relative errors as ``|a - n| / max(1, |a|, |n|)``
so that roundoff-scale gradients do not inflate the ratio. The one other
caller, ``al_core.gradcheck_network``, differences a component's
objective over other components' parameters, which have no analytic
gradient: the differences must vanish. The central-difference step is
the constant ``FD_EPS``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError, StateError
from .linalg import Matrix, Rng, he_normal_init, matmul


# Rows per block are chosen so that a block holds at most this many
# elements (256 KiB of float64); a row wider than that is a block alone.
BLOCK_ELEMS = 32768


def _block_rows(a) -> int:
    return max(1, BLOCK_ELEMS // max(1, math.prod(a.shape[1:])))


def row_blocks(a):
    """Slices of a's first axis, in order, each holding at most
    BLOCK_ELEMS elements of a, or one row where a row holds more."""
    step = _block_rows(a)
    return (slice(lo, lo + step) for lo in range(0, a.shape[0], step))


def elu(x, out=None):
    """Exponential linear unit with alpha = 1: x for x > 0, exp(x) - 1 below.

    Taken as maximum(x, expm1(minimum(x, 0))): above 0 that is max(x, 0),
    and below it expm1(x) >= x, so no per-element select is needed.
    """
    e = np.minimum(x, 0.0)
    np.expm1(e, out=e)
    return np.maximum(x, e, out=e if out is None else out)


def elu_grad(x, out=None):
    """1 for x > 0, exp(x) below; exp(minimum(x, 0)) is exactly 1 above 0."""
    d = np.minimum(x, 0.0, out=out)
    return np.exp(d, out=d)


def sigmoid(x, out=None):
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


def softmax(z: Matrix, out: Matrix | None = None) -> Matrix:
    """Row-wise softmax of z into out (which may be z), or a new array."""
    out = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    return np.divide(out, out.sum(axis=1, keepdims=True), out=out)


# Each activation's value(z, out) writes into out, which is z itself
# unless needs_z: only the ELU's backward pass reads the pre-activation.

class _Identity:
    name = "identity"
    needs_z = False

    def value(self, z, out):
        pass

    def backward(self, grad_out, z, out):
        return grad_out


class _Elu:
    name = "elu"
    needs_z = True

    def value(self, z, out):
        elu(z, out=out)

    def backward(self, grad_out, z, out):
        d = elu_grad(z)
        return np.multiply(grad_out, d, out=d)


class _Sigmoid:
    name = "sigmoid"
    needs_z = False

    def value(self, z, out):
        sigmoid(z, out=out)

    def backward(self, grad_out, z, out):
        d = sigmoid_grad_from_output(out)
        return np.multiply(grad_out, d, out=d)


ACTIVATIONS = {a.name: a for a in (_Identity(), _Elu(), _Sigmoid())}


class DenseLayer:
    """Affine map plus activation.

    W has shape (fan_in, fan_out) and is drawn by he_normal_init from rng;
    bias has shape (1, fan_out), starts at zero and takes W's dtype. The
    one way to give a layer other tensors is set_params, which copies
    them, because the optimizer updates the layer's tensors in place.
    Forward in training mode caches (input, pre-activation, output) for the
    backward pass, which drops it; evaluation-mode forward clears it.
    grad_W and grad_b hold the last backward's gradients until
    BlockAdam.step applies them and sets them to None. The bias add
    and the activation run over row_blocks of the product, writing into
    it, except that a training-mode ELU keeps its pre-activation for its
    backward pass; every other layer's cached pre-activation is its
    output. Forward never writes into its input. Every product of
    training (forward, grad_W and input gradient) is matmul's sliced one,
    so training gives the same bits at any BLAS thread count;
    evaluation-mode forward keeps the plain product, which is faster.
    """

    def __init__(self, fan_in: int, fan_out: int, activation: str = "identity",
                 *, rng: Rng):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.fan_in = fan_in
        self.fan_out = fan_out
        self.activation = activation
        self.W = he_normal_init(fan_in, fan_out, rng)
        self.bias = np.zeros((1, fan_out), dtype=self.W.dtype)
        self.grad_W: Matrix | None = None
        self.grad_b: Matrix | None = None
        self._cache: tuple[Matrix, Matrix, Matrix] | None = None

    def forward(self, x: Matrix, train: bool = False) -> Matrix:
        act = ACTIVATIONS[self.activation]
        z = matmul(x, self.W, sliced=train)
        out = np.empty_like(z) if train and act.needs_z else z
        for rows in row_blocks(z):
            zb = z[rows]
            zb += self.bias
            act.value(zb, out[rows])
        self._cache = (x, z, out) if train else None
        return out

    def backward(self, grad_out: Matrix, input_grad: bool = True) -> Matrix | None:
        """Leave grad_W / grad_b on the layer, drop the training cache and
        return the gradient with respect to the input, or None when
        input_grad is False. A second backward needs a new training-mode
        forward."""
        if self._cache is None:
            raise StateError("backward without a prior training-mode forward")
        x, z, out = self._cache
        self._cache = None
        if grad_out.shape != out.shape:
            raise ShapeError(
                f"upstream gradient shape {grad_out.shape} != {out.shape}")
        dz = ACTIVATIONS[self.activation].backward(grad_out, z, out)
        self.grad_W = matmul(x.T, dz, sliced=True)
        self.grad_b = dz.sum(axis=0, keepdims=True)
        return matmul(dz, self.W.T, sliced=True) if input_grad else None

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
        """Chain rule through every layer, leaving each layer's gradients
        for BlockAdam.step and dropping its training cache; with
        input_grad=False the first layer skips the product that only the
        block's input gradient needs, and None is returned."""
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
    """Assign copies of the tensors, in param_items order and in each
    layer's dtype; the one way to give a layer tensors. The count and
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

def mse(a: Matrix, b: Matrix) -> tuple[float, Matrix]:
    """Squared L2 distance per sample, averaged over the batch, and its
    gradient with respect to a, 2 (a - b) / B, from one difference."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    d = a - b
    loss = float((d * d).sum(axis=1).mean())
    d *= 2.0
    d /= a.shape[0]
    return loss, d


def softmax_cross_entropy(z: Matrix, onehot: Matrix) -> tuple[float, Matrix]:
    """Mean cross-entropy of softmax(z) against one-hot rows, a row's
    log(sum(exp(s))) - s[true] for s = z - max(z), and its gradient at the
    logits, (softmax(z) - onehot) / B, with softmax's operations in order.
    No exp overflows and no log sees 0: s <= 0, so a row sums to >= 1."""
    if z.shape != onehot.shape:
        raise ShapeError(
            f"cross_entropy: shapes differ, {z.shape} vs {onehot.shape}")
    s = np.subtract(z, z.max(axis=1, keepdims=True))
    s_true = (onehot * s).sum(axis=1)
    p = np.exp(s, out=s)
    total = p.sum(axis=1, keepdims=True)
    loss = float((np.log(total[:, 0]) - s_true).mean())
    np.divide(p, total, out=p)
    p -= onehot
    p /= z.shape[0]
    return loss, p


# Adam -----------------------------------------------------------------

# Kingma & Ba's decay rates and epsilon (arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(param: Matrix, grad: Matrix, m: Matrix, v: Matrix, t: int,
                lr: float, work: Matrix) -> Matrix:
    """The t-th bias-corrected Adam step at rate lr, in place; returns param.

    param, m and v are overwritten, and so is grad: once both moments
    have read it, it holds the step. The textbook update

        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        param - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)

    is evaluated one operation at a time in exactly that order, on each
    of param's row_blocks in turn, so the result is bit-identical to
    computing it with fresh arrays. work is a 1-D array that holds at
    least param's first (largest) row block.
    """
    if not param.shape == grad.shape == m.shape == v.shape:
        raise ShapeError(
            f"adam_update: param {param.shape}, grad {grad.shape}, "
            f"moments {m.shape}, {v.shape}")
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for rows in row_blocks(param):
        p, g, mb, vb = param[rows], grad[rows], m[rows], v[rows]
        s = work[:p.size].reshape(p.shape)
        np.multiply(mb, ADAM_BETA1, out=mb)
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        np.add(mb, s, out=mb)
        np.multiply(vb, ADAM_BETA2, out=vb)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - ADAM_BETA2, out=s)
        np.add(vb, s, out=vb)
        np.divide(mb, c1, out=g)
        np.multiply(g, lr, out=g)
        np.divide(vb, c2, out=s)
        np.sqrt(s, out=s)
        np.add(s, ADAM_EPS, out=s)
        np.divide(g, s, out=g)
        np.subtract(p, g, out=p)
    return param


class BlockAdam:
    """Adam over every parameter tensor of one MLPBlock, at the rate each
    step is given.

    The state is the block's: moments m and v, lists aligned with
    block.param_arrays(), and one step count t, which every tensor shares
    since a step updates them all. The moments are created on the first
    step, so freshly built networks stay cheap until training starts.
    The tensors are updated in place through one work array of this
    optimizer's own, sized to the largest row block of the block's
    tensors; two optimizers never share it, since pipeline stages step
    concurrently.
    """

    def __init__(self, block: MLPBlock):
        self.block = block
        self.m: list[Matrix] = []
        self.v: list[Matrix] = []
        self.t = 0
        self._work: Matrix | None = None

    def step(self, lr: float) -> None:
        """Apply every layer's gradients at rate lr, then set them to None.

        Every gradient is checked before any tensor is updated: StateError
        when one is missing (no backward since the last step), ShapeError
        when one does not have its tensor's shape. A step that raises
        changes no parameter, no moment and no step count.
        """
        params, grads = self.block.param_arrays(), self.block.grad_arrays()
        for p, g in zip(params, grads):
            if g is None:
                raise StateError("step without gradients; run backward first")
            if g.shape != p.shape:
                raise ShapeError(f"gradient {g.shape} vs tensor {p.shape}")
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self._work = np.empty(max(p[:_block_rows(p)].size for p in params),
                                  dtype=np.result_type(*params))
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v):
            adam_update(p, g, m, v, self.t, lr, self._work)
        for layer in self.block.layers:
            layer.grad_W = layer.grad_b = None


# finite differences ---------------------------------------------------

# Central-difference step of every gradient check.
FD_EPS = 1e-5


def finite_diff_loss_grads(loss_fn, params: list[Matrix]) -> list[Matrix]:
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
            flat[i] = saved + FD_EPS
            up = loss_fn()
            flat[i] = saved - FD_EPS
            down = loss_fn()
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * FD_EPS)
        grads.append(g)
    return grads


def max_rel_error(analytic: Matrix, numeric: Matrix) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def gradcheck(loss_fn, params: list[Matrix], analytic: list[Matrix]) -> float:
    """Max floored-relative error between the analytic gradients of
    loss_fn() with respect to params and its central differences."""
    numeric = finite_diff_loss_grads(loss_fn, params)
    return max(max_rel_error(a, n) for a, n in zip(analytic, numeric))


def grad_check_block(block: MLPBlock, x: Matrix, target: Matrix,
                     inject_fault: bool = False) -> float:
    """gradcheck of the MSE loss of block(x) against target."""
    block.backward(mse(block.forward(x, train=True), target)[1])
    analytic = [g.copy() for g in block.grad_arrays()]
    if inject_fault:
        analytic[0].reshape(-1)[0] += 0.1
    return gradcheck(lambda: mse(block.forward(x), target)[0],
                     block.param_arrays(), analytic)
