"""End-to-end backprop baseline sized for a fair comparison.

``match_effective_params`` turns a component-network plan into a plain
stack whose layer widths are exactly the inference path of that plan
(all f blocks, the top bridge, all h blocks). Because the widths are
identical, the trainable parameter count equals the component network's
effective parameter count with no slack at all.

The default head is softmax + cross-entropy: the stack ends in an affine
layer whose output, the logits, goes straight to
``nn.softmax_cross_entropy``, and ``predict`` is the one place the
softmax itself is taken. The MSE head (sigmoid output, ``nn.mse``)
replays the comparison in the loss family of the local objectives.
Either head's loss is one call that returns the batch's loss and the
gradient its backward pass starts from.

``BPNetwork.train_batch`` trains on one batch and returns its loss; it is
the one stage of a ``bp`` epoch in ``train.train_epoch``, the loop and
the evaluation the component network's epochs run as well. A diverged
batch raises NumericError before its backward pass and steps no tensor.

``BPNetwork`` has ``ALNetwork``'s model contract (see ``al_core``); its
features are the activation after ``feature_layer`` layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, NumericError
from .linalg import Matrix, Rng, row_argmax
from .al_core import NetworkPlan
from .nn import (
    BlockAdam,
    DenseLayer,
    gradcheck,
    make_block,
    mse,
    softmax,
    softmax_cross_entropy,
)

HEADS = ("softmax", "mse")


@dataclass
class BPPlan:
    """Width chain for the baseline stack.

    feature_layer is the depth mirroring the component network's top
    forward activation, used when comparing learned features.
    """

    name: str
    widths: list[int]
    feature_layer: int


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

    kind = "bp"

    def __init__(self, widths: list[int], rng: Rng, lr: float = 1e-4,
                 head: str = "softmax", feature_layer: int | None = None,
                 name: str = "bp"):
        if head not in HEADS:
            raise ConfigError(f"head must be one of {HEADS}, got {head!r}")
        out_act = "identity" if head == "softmax" else "sigmoid"
        self.loss = softmax_cross_entropy if head == "softmax" else mse
        self.stack = make_block(list(widths), "elu", rng, out_activation=out_act)
        self.opt = BlockAdam(self.stack)
        self.lr = lr
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

    def train_batch(self, x: Matrix, y_onehot: Matrix) -> float:
        loss, grad = self.loss(self.stack.forward(x, train=True), y_onehot)
        if not math.isfinite(loss):
            raise NumericError("loss diverged")
        self.stack.backward(grad, input_grad=False)
        self.opt.step(self.lr)
        return loss

    def predict(self, x: Matrix):
        """(scores, labels); the softmax head's scores are its softmax."""
        out = self.stack.forward(x)
        if self.head == "softmax":
            softmax(out, out=out)
        return out, row_argmax(out)

    def named_layers(self) -> list[tuple[str, DenseLayer]]:
        return [(f"stack.{i}", layer)
                for i, layer in enumerate(self.stack.layers)]

    def plan_dict(self) -> dict:
        """The constructor keywords, but rng and lr, that rebuild it."""
        return {"name": self.name, "widths": self.widths,
                "feature_layer": self.feature_layer, "head": self.head}

    def features(self, x: Matrix) -> Matrix:
        """Activations after the first feature_layer layers."""
        for layer in self.stack.layers[:self.feature_layer]:
            x = layer.forward(x, train=False)
        return x

    def param_count(self) -> int:
        return self.stack.param_count()


def build_bp_network(plan: BPPlan, rng: Rng, lr: float = 1e-4,
                     head: str = "softmax") -> BPNetwork:
    return BPNetwork(plan.widths, rng, lr=lr, head=head,
                     feature_layer=plan.feature_layer, name=plan.name)


def gradcheck_bp(net: BPNetwork, x: Matrix, y_onehot: Matrix) -> float:
    """gradcheck of the full-stack analytic gradient."""
    net.stack.backward(net.loss(net.stack.forward(x, train=True), y_onehot)[1])
    return gradcheck(lambda: net.loss(net.stack.forward(x), y_onehot)[0],
                     net.stack.param_arrays(), net.stack.grad_arrays())
