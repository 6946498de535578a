"""Locally trained component networks and their inference composition.

A network is a chain of C components. Component i owns four blocks:

* ``f``: maps the forward activation s_{i-1} to s_i (ELU layers),
* ``g``: maps the encoded target t_{i-1} to t_i (sigmoid layers),
* ``b``: a bridge mapping s_i into the t_i space (sigmoid layers),
* ``h``: a decoder mapping t_i back to t_{i-1} (sigmoid layers).

Each component minimizes a purely local objective: the associated loss
``mse1 = MSE(b(s_i), t_i)`` with t_i held constant, plus the autoencoder
loss ``mse2 = MSE(h(g(t_{i-1})), t_{i-1})``. Gradient flow 1 updates f and
b only; flow 2 updates g and h only. Activations crossing a component
boundary are plain arrays with no gradient linkage, so no update of
component i can depend on parameters of component j != i.

Prediction never touches the encoders or the inner bridges: it composes
all f blocks upward, the last bridge, then all h blocks downward,

    y_hat = (h_1 o ... o h_C o b_C o f_C o ... o f_1)(x).

``inference_layers`` lists the layers of that path. Their parameters are
the "effective" set; everything else (all g_i, bridges below the top) is
"affiliated" and provably cannot change ``infer`` output.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PlanError, ShapeError
from .linalg import Matrix, Rng, ensure_finite, row_argmax
from .nn import (
    BlockAdam,
    DenseLayer,
    MLPBlock,
    finite_diff_loss_grads,
    gradcheck,
    make_block,
    mse_loss,
    mse_loss_grad,
    param_items,
    set_params,
)


@dataclass
class LossRecord:
    """Local losses of one component on one batch."""

    component: int
    mse1: float
    mse2: float

    @property
    def local_obj(self) -> float:
        return self.mse1 + self.mse2


@dataclass
class ComponentPlan:
    """Width chains for the four blocks of one component."""

    f: list[int]
    g: list[int]
    b: list[int]
    h: list[int]

    @classmethod
    def from_dict(cls, d: dict) -> "ComponentPlan":
        return cls(f=list(d["f"]), g=list(d["g"]),
                   b=list(d["b"]), h=list(d["h"]))


@dataclass
class NetworkPlan:
    """Full architecture description; validate() is the one place that
    checks the chaining rules."""

    name: str
    input_dim: int
    target_dim: int
    components: list[ComponentPlan]

    def validate(self, first: int = 1) -> None:
        """Raise PlanError naming the component (numbered from first) at
        the first rule its widths break."""
        if not self.components:
            raise PlanError(f"plan {self.name!r} has no components")
        prev_s, prev_t = self.input_dim, self.target_dim
        for i, c in enumerate(self.components, start=first):
            for chain, label in ((c.f, "f"), (c.g, "g"), (c.b, "b"), (c.h, "h")):
                if len(chain) < 2:
                    raise PlanError(
                        f"component {i}: {label} chain needs >= 2 widths")
            link = ("" if i == first else
                    f"components {i - 1} -> {i} do not chain: ")
            if c.f[0] != prev_s:
                raise PlanError(f"{link}component {i}: f input {c.f[0]} "
                                f"!= incoming s width {prev_s}")
            if c.g[0] != prev_t:
                raise PlanError(f"{link}component {i}: g input {c.g[0]} "
                                f"!= incoming t width {prev_t}")
            if c.b[0] != c.f[-1]:
                raise PlanError(
                    f"component {i}: bridge input {c.b[0]} != f output {c.f[-1]}")
            if c.b[-1] != c.g[-1]:
                raise PlanError(
                    f"component {i}: bridge output {c.b[-1]} != g output {c.g[-1]}")
            if c.h[0] != c.g[-1] or c.h[-1] != c.g[0]:
                raise PlanError(
                    f"component {i}: h must map {c.g[-1]} back to {c.g[0]}, "
                    f"got {c.h[0]} -> {c.h[-1]}")
            prev_s, prev_t = c.f[-1], c.g[-1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkPlan":
        return cls(name=d["name"], input_dim=int(d["input_dim"]),
                   target_dim=int(d["target_dim"]),
                   components=[ComponentPlan.from_dict(c)
                               for c in d["components"]])


def _two_component_mnist(name: str, width: int, bridge_hidden: int) -> NetworkPlan:
    return NetworkPlan(
        name=name, input_dim=784, target_dim=10,
        components=[
            ComponentPlan(f=[784, width], g=[10, width],
                          b=[width, width], h=[width, 10]),
            ComponentPlan(f=[width, width], g=[width, width],
                          b=[width, bridge_hidden, width], h=[width, width]),
        ])


def _plan_reference_mlp() -> NetworkPlan:
    """Full-scale MNIST architecture: two components, s/t width 1024, top
    bridge hidden width 5120."""
    return _two_component_mnist("reference-mlp", 1024, 5120)


def _plan_desk_mlp() -> NetworkPlan:
    """Reduced MNIST architecture for desk-scale runs: width 256, top
    bridge hidden 512."""
    return _two_component_mnist("desk-mlp", 256, 512)


def _plan_desk_3() -> NetworkPlan:
    """Three-component reduced MNIST architecture (width 128)."""
    w = 128
    return NetworkPlan(
        name="desk-3", input_dim=784, target_dim=10,
        components=[
            ComponentPlan(f=[784, w], g=[10, w], b=[w, w], h=[w, 10]),
            ComponentPlan(f=[w, w], g=[w, w], b=[w, w], h=[w, w]),
            ComponentPlan(f=[w, w], g=[w, w], b=[w, 256, w], h=[w, w]),
        ])


def _plan_xor() -> NetworkPlan:
    """Single component sized for the 4-point XOR task."""
    return NetworkPlan(
        name="xor", input_dim=2, target_dim=2,
        components=[ComponentPlan(f=[2, 16], g=[2, 8], b=[16, 8], h=[8, 2])])


def _plan_blobs() -> NetworkPlan:
    """Two small components matching the default synthetic blob dataset."""
    return NetworkPlan(
        name="blobs", input_dim=8, target_dim=4,
        components=[
            ComponentPlan(f=[8, 16], g=[4, 8], b=[16, 8], h=[8, 4]),
            ComponentPlan(f=[16, 16], g=[8, 8], b=[16, 16, 8], h=[8, 8]),
        ])


_PLAN_BUILDERS = {
    "reference-mlp": _plan_reference_mlp,
    "desk-mlp": _plan_desk_mlp,
    "desk-3": _plan_desk_3,
    "xor": _plan_xor,
    "blobs": _plan_blobs,
}


def plan_names() -> list[str]:
    return sorted(_PLAN_BUILDERS)


def get_plan(name: str) -> NetworkPlan:
    try:
        builder = _PLAN_BUILDERS[name]
    except KeyError:
        raise PlanError(
            f"unknown plan {name!r}; known: {', '.join(plan_names())}") from None
    plan = builder()
    plan.validate()
    return plan


class Component:
    """One fold unit: the four blocks plus one Adam optimizer per block."""

    def __init__(self, index: int, f: MLPBlock, g: MLPBlock, b: MLPBlock,
                 h: MLPBlock, lr: float = 1e-4):
        self.index = index
        self.f = f
        self.g = g
        self.b = b
        self.h = h
        NetworkPlan(f"component {index}", self.s_in, self.t_in,
                    [self.plan]).validate(first=index)
        self.opt_f = BlockAdam(f, lr=lr)
        self.opt_g = BlockAdam(g, lr=lr)
        self.opt_b = BlockAdam(b, lr=lr)
        self.opt_h = BlockAdam(h, lr=lr)

    @property
    def s_in(self) -> int:
        return self.f.fan_in

    @property
    def t_in(self) -> int:
        return self.g.fan_in

    @property
    def plan(self) -> ComponentPlan:
        """The width chains of the four blocks."""
        return ComponentPlan(*([layer.fan_in for layer in blk.layers]
                               + [blk.fan_out]
                               for blk in (self.f, self.g, self.b, self.h)))

    def blocks(self) -> dict[str, MLPBlock]:
        return {"f": self.f, "g": self.g, "b": self.b, "h": self.h}

    def set_lr(self, lr: float) -> None:
        for opt in (self.opt_f, self.opt_g, self.opt_b, self.opt_h):
            opt.set_lr(lr)


def _check_component_inputs(c: Component, s_prev: Matrix, t_prev: Matrix) -> None:
    if s_prev.ndim != 2 or s_prev.shape[1] != c.s_in:
        raise ShapeError(
            f"component {c.index}: s input has shape {s_prev.shape}, "
            f"needs (batch, {c.s_in})")
    if t_prev.ndim != 2 or t_prev.shape[1] != c.t_in:
        raise ShapeError(
            f"component {c.index}: t input has shape {t_prev.shape}, "
            f"needs (batch, {c.t_in})")
    if s_prev.shape[0] != t_prev.shape[0]:
        raise ShapeError(
            f"component {c.index}: batch mismatch, s has {s_prev.shape[0]} "
            f"rows, t has {t_prev.shape[0]}")


def _forward_full(c: Component, s_prev: Matrix, t_prev: Matrix, train: bool):
    _check_component_inputs(c, s_prev, t_prev)
    s_i = c.f.forward(s_prev, train=train)
    t_i = c.g.forward(t_prev, train=train)
    bridged = c.b.forward(s_i, train=train)
    recon = c.h.forward(t_i, train=train)
    ensure_finite(s_i, f"component {c.index} f output")
    ensure_finite(t_i, f"component {c.index} g output")
    rec = LossRecord(component=c.index, mse1=mse_loss(bridged, t_i),
                     mse2=mse_loss(recon, t_prev))
    return s_i, t_i, bridged, recon, rec


def component_forward(c: Component, s_prev: Matrix, t_prev: Matrix):
    """Both forward paths in evaluation mode; returns (s_i, t_i, LossRecord).

    The outputs are plain arrays: passing them to the next component
    creates no gradient linkage back to this one.
    """
    s_i, t_i, _, _, rec = _forward_full(c, s_prev, t_prev, train=False)
    return s_i, t_i, rec


def component_gradients(c: Component, s_prev: Matrix, t_prev: Matrix):
    """Forward plus both local backward flows; gradients are left on the
    layers and no optimizer step is taken. Returns (s_i, t_i, LossRecord).

    Flow 1 sends d(mse1) through b then f, with t_i treated as a constant.
    Flow 2 sends d(mse2) through h then g. Gradients with respect to the
    inputs s_prev / t_prev are not computed at all: they would belong to
    the previous component, which never sees them.
    """
    s_i, t_i, bridged, recon, rec = _forward_full(c, s_prev, t_prev, train=True)
    grad_s_i = c.b.backward(mse_loss_grad(bridged, t_i))
    c.f.backward(grad_s_i, input_grad=False)
    grad_t_i = c.h.backward(mse_loss_grad(recon, t_prev))
    c.g.backward(grad_t_i, input_grad=False)
    return s_i, t_i, rec


def component_update(c: Component, s_prev: Matrix, t_prev: Matrix):
    """One local training step. Returns (s_i, t_i, LossRecord) where the
    outputs were computed with the parameters BEFORE this update, exactly
    what gets handed to the next component."""
    s_i, t_i, rec = component_gradients(c, s_prev, t_prev)
    c.opt_f.step()
    c.opt_b.step()
    c.opt_g.step()
    c.opt_h.step()
    return s_i, t_i, rec


class ALNetwork:
    """Ordered chain of components plus the overall input/target widths."""

    def __init__(self, components: list[Component], input_dim: int,
                 target_dim: int, plan: NetworkPlan | None = None):
        NetworkPlan("network", input_dim, target_dim,
                    [c.plan for c in components]).validate()
        self.components = components
        self.input_dim = input_dim
        self.target_dim = target_dim
        self.plan = plan

    @property
    def n_components(self) -> int:
        return len(self.components)

    def set_lr(self, lr: float) -> None:
        for c in self.components:
            c.set_lr(lr)


def build_network(plan: NetworkPlan, rng: Rng, lr: float = 1e-4) -> ALNetwork:
    """Materialize a plan: He-init weights drawn from rng in component
    order, blocks in f, g, b, h order within each component."""
    plan.validate()
    comps = []
    for i, cp in enumerate(plan.components, start=1):
        f = make_block(cp.f, "elu", rng)
        g = make_block(cp.g, "sigmoid", rng)
        b = make_block(cp.b, "sigmoid", rng)
        h = make_block(cp.h, "sigmoid", rng)
        comps.append(Component(i, f, g, b, h, lr=lr))
    return ALNetwork(comps, plan.input_dim, plan.target_dim, plan)


def inference_layers(net: ALNetwork) -> list[DenseLayer]:
    """The one dense stack prediction runs: every f layer upward, the top
    bridge, then every h layer downward. match_effective_params gives the
    baseline the same widths."""
    up = [layer for c in net.components for layer in c.f.layers]
    down = [layer for c in reversed(net.components) for layer in c.h.layers]
    return up + net.components[-1].b.layers + down


def infer(net: ALNetwork, x: Matrix):
    """Prediction through inference_layers. Returns (y_hat, predicted
    class per row). Encoders and inner bridges are never evaluated."""
    z = x
    for layer in inference_layers(net):
        z = layer.forward(z, train=False)
    return z, row_argmax(z)


def metafeatures(net: ALNetwork, x: Matrix) -> Matrix:
    """Top forward activation s_C, before the bridge."""
    s = x
    for c in net.components:
        s = c.f.forward(s, train=False)
    return s


def _named_layers(net: ALNetwork) -> list[tuple[str, DenseLayer]]:
    """Every layer, in component order, blocks in f, g, b, h order."""
    return [(f"c{c.index}.{bname}.{li}", layer) for c in net.components
            for bname, blk in c.blocks().items()
            for li, layer in enumerate(blk.layers)]


def effective_param_count(net: ALNetwork) -> int:
    """Parameters of inference_layers."""
    return sum(layer.param_count() for layer in inference_layers(net))


def affiliated_param_count(net: ALNetwork) -> int:
    """Parameters that shape training but never inference: every g and
    every bridge except the last."""
    return total_param_count(net) - effective_param_count(net)


def total_param_count(net: ALNetwork) -> int:
    return sum(layer.param_count() for _, layer in _named_layers(net))


def perturb_affiliated(net: ALNetwork, delta: float = 1000.0) -> None:
    """Shift every parameter outside inference_layers by delta."""
    used = {id(layer) for layer in inference_layers(net)}
    for _, layer in _named_layers(net):
        if id(layer) not in used:
            layer.W = layer.W + delta
            layer.bias = layer.bias + delta


def clone_network(net: ALNetwork) -> ALNetwork:
    """Deep copy, optimizer state included."""
    return copy.deepcopy(net)


def net_param_items(net: ALNetwork) -> list[tuple[str, Matrix]]:
    """Every parameter tensor with a stable name, in component order,
    blocks in f, g, b, h order, per layer W then bias. The checkpoint
    format and all bit-exactness comparisons rely on this order."""
    return param_items(_named_layers(net))


def net_set_params(net: ALNetwork, arrays: list[Matrix]) -> None:
    """Assign copies of the tensors, in net_param_items order; ShapeError,
    with nothing assigned, on a wrong count or shape."""
    set_params(_named_layers(net), arrays)


# finite-difference harnesses ------------------------------------------

def _flow1_loss(c: Component, s_prev: Matrix, t_i: Matrix) -> float:
    return mse_loss(c.b.forward(c.f.forward(s_prev, train=False),
                                train=False), t_i)


def _flow2_loss(c: Component, t_prev: Matrix) -> float:
    return mse_loss(c.h.forward(c.g.forward(t_prev, train=False),
                                train=False), t_prev)


def _grads(*blocks: MLPBlock) -> list[Matrix]:
    return [g for blk in blocks for g in blk.grad_arrays()]


def _params(*blocks: MLPBlock) -> list[Matrix]:
    return [p for blk in blocks for p in blk.param_arrays()]


def gradcheck_component_flows(c: Component, s_prev: Matrix, t_prev: Matrix,
                              eps: float = 1e-5) -> dict[str, float]:
    """gradcheck of each flow's analytic gradients.

    Flow 1 differentiates mse1 with t_i frozen at its forward value, over
    the f and b parameters; flow 2 differentiates mse2 over g and h.
    Returns the max floored-relative error per flow.
    """
    component_gradients(c, s_prev, t_prev)
    t_i = c.g.forward(t_prev, train=False)
    return {
        "flow1": gradcheck(lambda: _flow1_loss(c, s_prev, t_i),
                           _params(c.f, c.b), _grads(c.f, c.b), eps),
        "flow2": gradcheck(lambda: _flow2_loss(c, t_prev),
                           _params(c.g, c.h), _grads(c.g, c.h), eps),
    }


def collect_messages(net: ALNetwork, x: Matrix, y_onehot: Matrix):
    """Per-component training inputs (s_prev, t_prev) for one batch, the
    arrays a training step would hand each component."""
    msgs = []
    s, t = x, y_onehot
    for c in net.components:
        msgs.append((s, t))
        s, t, _ = component_forward(c, s, t)
    return msgs


def gradcheck_cross_component(net: ALNetwork, x: Matrix, y_onehot: Matrix,
                              eps: float = 1e-5) -> dict[str, float]:
    """Differentiate every component's local objective, as trained (t_i
    frozen), with respect to every parameter in the network.

    Training hands component i fixed input arrays, so its objective is a
    function of component i's parameters only; the finite-difference
    gradient with respect to any other component's parameters must vanish.
    Returns {"cross": max |fd| over foreign parameters, "within": gradcheck
    of own-parameter fd vs the analytic flows}.
    """
    cross = within = 0.0
    for ci, (s_prev, t_prev) in zip(net.components,
                                    collect_messages(net, x, y_onehot)):
        component_gradients(ci, s_prev, t_prev)
        t_i = ci.g.forward(t_prev, train=False)

        def obj() -> float:
            return _flow1_loss(ci, s_prev, t_i) + _flow2_loss(ci, t_prev)

        own = list(ci.blocks().values())
        within = max(within, gradcheck(obj, _params(*own), _grads(*own), eps))
        foreign = _params(*(blk for cj in net.components if cj is not ci
                            for blk in cj.blocks().values()))
        for n in finite_diff_loss_grads(obj, foreign, eps=eps):
            cross = max(cross, float(np.abs(n).max()))
    return {"cross": cross, "within": within}
