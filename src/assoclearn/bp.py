"""End-to-end backprop baseline sized for a fair comparison.

``match_effective_params`` turns a component-network plan into a plain
stack whose layer widths are exactly the inference path of that plan
(all f blocks, the top bridge, all h blocks). Because the widths are
identical, the trainable parameter count equals the component network's
effective parameter count with no slack at all.

The default head is softmax + cross-entropy; an MSE head (sigmoid
output, squared loss) is available so the comparison can be replayed
with the same loss family the local objectives use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .linalg import Matrix, Rng, row_argmax
from .al_core import NetworkPlan
from .nn import (
    BlockAdam,
    cross_entropy_grad,
    cross_entropy_loss,
    gradcheck,
    make_block,
    mse_loss,
    mse_loss_grad,
    param_items,
    set_params,
)

_HEADS = ("softmax", "mse")


@dataclass
class BPPlan:
    """Width chain for the baseline stack.

    feature_layer is the depth mirroring the component network's top
    forward activation, used when comparing learned features.
    """

    name: str
    widths: list[int]
    feature_layer: int

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BPPlan":
        return cls(name=d["name"], widths=[int(w) for w in d["widths"]],
                   feature_layer=int(d["feature_layer"]))


def match_effective_params(al_plan: NetworkPlan) -> BPPlan:
    """Baseline plan with the same widths as the plan's inference path:
    f chains upward, the top bridge (hidden widths included), h chains
    downward. Parameter parity with the effective set is exact."""
    al_plan.validate()
    widths = [al_plan.input_dim]
    for cp in al_plan.components:
        widths.extend(cp.f[1:])
    feature_layer = len(widths) - 1
    widths.extend(al_plan.components[-1].b[1:])
    for cp in reversed(al_plan.components):
        widths.extend(cp.h[1:])
    return BPPlan(name=al_plan.name + "-bp", widths=widths,
                  feature_layer=feature_layer)


class BPNetwork:
    """One dense stack, ELU hidden layers, trained end to end with Adam."""

    def __init__(self, widths: list[int], rng: Rng, lr: float = 1e-4,
                 head: str = "softmax", feature_layer: int | None = None,
                 name: str = "bp"):
        if head not in _HEADS:
            raise ConfigError(f"head must be one of {_HEADS}, got {head!r}")
        out_act = "softmax" if head == "softmax" else "sigmoid"
        self.stack = make_block(list(widths), "elu", rng, out_activation=out_act)
        self.opt = BlockAdam(self.stack, lr=lr)
        self.head = head
        self.widths = list(widths)
        self.input_dim = widths[0]
        self.n_classes = widths[-1]
        self.name = name
        n_layers = len(self.stack.layers)
        self.feature_layer = (feature_layer if feature_layer is not None
                              else max(1, n_layers - 1))
        if not 0 < self.feature_layer <= n_layers:
            raise ConfigError(
                f"feature_layer {self.feature_layer} out of range for "
                f"{n_layers} layers")

    def forward(self, x: Matrix, train: bool = False) -> Matrix:
        return self.stack.forward(x, train=train)

    def loss_and_grad(self, out: Matrix, y_onehot: Matrix):
        if self.head == "softmax":
            return (cross_entropy_loss(out, y_onehot),
                    cross_entropy_grad(out, y_onehot))
        return mse_loss(out, y_onehot), mse_loss_grad(out, y_onehot)

    def train_batch(self, x: Matrix, y_onehot: Matrix) -> float:
        out = self.forward(x, train=True)
        loss, grad = self.loss_and_grad(out, y_onehot)
        self.stack.backward(grad, input_grad=False)
        self.opt.step()
        return loss

    def predict(self, x: Matrix):
        out = self.forward(x, train=False)
        return out, row_argmax(out)

    def hidden_features(self, x: Matrix, upto: int | None = None) -> Matrix:
        """Activations after the first `upto` layers (default: the layer
        mirroring the component network's top forward activation)."""
        upto = self.feature_layer if upto is None else upto
        for layer in self.stack.layers[:upto]:
            x = layer.forward(x, train=False)
        return x

    def param_count(self) -> int:
        return self.stack.param_count()

    def set_lr(self, lr: float) -> None:
        self.opt.set_lr(lr)


def build_bp_network(plan: BPPlan, rng: Rng, lr: float = 1e-4,
                     head: str = "softmax") -> BPNetwork:
    return BPNetwork(plan.widths, rng, lr=lr, head=head,
                     feature_layer=plan.feature_layer, name=plan.name)


def _named_layers(net: BPNetwork):
    return [(f"stack.{i}", layer) for i, layer in enumerate(net.stack.layers)]


def bp_param_items(net: BPNetwork) -> list[tuple[str, Matrix]]:
    return param_items(_named_layers(net))


def bp_set_params(net: BPNetwork, arrays: list[Matrix]) -> None:
    """Assign copies of the tensors, in bp_param_items order: ConfigError
    on a wrong count, ShapeError on a wrong shape, nothing assigned."""
    layers = net.stack.layers
    if len(arrays) != 2 * len(layers):
        raise ConfigError(
            f"expected {2 * len(layers)} tensors, got {len(arrays)}")
    set_params(_named_layers(net), arrays)


def bp_train_epoch(net: BPNetwork, X: Matrix, y_onehot: Matrix,
                   batch_size: int, rng: Rng, epoch: int = 0):
    """One shuffled pass; returns (mean train loss, train accuracy).

    Loss is averaged over batches weighted by batch size; accuracy is
    measured after the epoch on the full training set.
    """
    from .data import BatchIterator

    n = X.shape[0]
    total = 0.0
    for m, idx in enumerate(BatchIterator(n, batch_size, rng), start=1):
        loss = net.train_batch(X[idx], y_onehot[idx])
        if not np.isfinite(loss):
            raise NumericError(
                f"loss diverged at epoch {epoch}, batch {m}")
        total += loss * len(idx)
    _, classes = net.predict(X)
    acc = float((classes == row_argmax(y_onehot)).mean())
    return total / n, acc


def gradcheck_bp(net: BPNetwork, x: Matrix, y_onehot: Matrix,
                 eps: float = 1e-5) -> float:
    """gradcheck of the full-stack analytic gradient."""
    out = net.forward(x, train=True)
    net.stack.backward(net.loss_and_grad(out, y_onehot)[1])
    return gradcheck(lambda: net.loss_and_grad(net.forward(x), y_onehot)[0],
                     net.stack.param_arrays(), net.stack.grad_arrays(), eps)
