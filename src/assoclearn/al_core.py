"""Locally trained component networks and their inference composition.

A chain of C components maps the input s_0 and the one-hot target t_0;
component i owns four blocks, wired as ``NetworkPlan.validate`` checks:

    f  forward  s_{i-1} -> s_i    elu layers
    g  encoder  t_{i-1} -> t_i    sigmoid layers
    b  bridge   s_i -> t_i        sigmoid layers
    h  decoder  t_i -> t_{i-1}    sigmoid layers

Each component trains two local flows, both run by ``_flow``. Flow 2
runs first: g encodes t_{i-1} to t_i and h decodes it back, with loss
``mse2 = MSE(h(t_i), t_{i-1})``. Flow 1 then bridges s_i = f(s_{i-1})
to flow 2's code: ``mse1 = MSE(b(s_i), t_i)`` with t_i held constant.
Flow 2 updates g and h only; flow 1 updates f and b only. Activations
crossing a component boundary are plain arrays with no gradient linkage,
so no update of component i can depend on parameters of component j != i.
``gradcheck_network`` checks it: each component's objective, differenced
over every parameter of the network, must match both flows' analytic
gradients on its own tensors and vanish on every other component's.
Only after both flows succeed does ``component_update`` step each block's
Adam optimizer, in g, h, f, b order, at the network's one rate
(``ALNetwork.lr``).

Prediction never touches the encoders or the inner bridges: it composes
all f blocks upward, the last bridge, then all h blocks downward,

    y_hat = (h_1 o ... o h_C o b_C o f_C o ... o f_1)(x).

``inference_layers`` lists the layers of that path. Their parameters are
the "effective" set; everything else (all g_i, bridges below the top) is
"affiliated" and provably cannot change what ``predict`` returns.

``ALNetwork`` and ``bp.BPNetwork`` share the model contract that fit,
evaluation, geometry and checkpoints use: ``kind`` (the checkpoint tag),
``n_classes``, ``predict(x)`` (scores, labels), ``features(x)`` (here s_C),
``named_layers()`` and ``plan_dict()`` (what a checkpoint rebuilds from).
"""

from __future__ import annotations

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
    mse,
    param_items,
)


@dataclass
class LossRecord:
    """Local losses of one component on one batch."""

    mse1: float
    mse2: float


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
    checks the wiring rule."""

    name: str
    input_dim: int
    target_dim: int
    components: list[ComponentPlan]

    def validate(self, first: int = 1) -> None:
        """Raise PlanError, naming the component (from first), the block
        and the widths, at the first rule the widths break: each chain has
        >= 2 widths and maps what its block reads to what it writes,
        f s_{i-1} -> s_i, g t_{i-1} -> t_i, b s_i -> t_i, h t_i -> t_{i-1},
        with s_0, t_0 = input_dim, target_dim."""
        if not self.components:
            raise PlanError(f"plan {self.name!r} has no components")
        s, t = self.input_dim, self.target_dim
        for i, c in enumerate(self.components, start=first):
            chains = {"f": c.f, "g": c.g, "b": c.b, "h": c.h}
            for label, chain in chains.items():
                if len(chain) < 2:
                    raise PlanError(f"component {i}: {label} chain needs "
                                    f">= 2 widths, got {chain}")
            s_i, t_i = c.f[-1], c.g[-1]
            for label, reads, writes in (("f", s, s_i), ("g", t, t_i),
                                         ("b", s_i, t_i), ("h", t_i, t)):
                chain = chains[label]
                if (chain[0], chain[-1]) != (reads, writes):
                    link = (f"components {i - 1} -> {i} do not chain: "
                            if i > first and label in ("f", "g") else "")
                    raise PlanError(f"{link}component {i}: {label} must map "
                                    f"{reads} -> {writes}, got {chain[0]} -> "
                                    f"{chain[-1]}")
            s, t = s_i, t_i

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


# The activation of every layer of each block, in build order: a plan
# holds widths only, and these are what it builds.
BLOCK_ACTIVATIONS = {"f": "elu", "g": "sigmoid", "b": "sigmoid", "h": "sigmoid"}


class Component:
    """One fold unit: the four blocks plus one Adam optimizer per block."""

    def __init__(self, index: int, f: MLPBlock, g: MLPBlock, b: MLPBlock,
                 h: MLPBlock):
        self.index = index
        self.f = f
        self.g = g
        self.b = b
        self.h = h
        NetworkPlan(f"component {index}", f.fan_in, g.fan_in,
                    [self.plan]).validate(first=index)
        self.opt_f = BlockAdam(f)
        self.opt_g = BlockAdam(g)
        self.opt_b = BlockAdam(b)
        self.opt_h = BlockAdam(h)

    @property
    def plan(self) -> ComponentPlan:
        """The width chains of the four blocks."""
        return ComponentPlan(*([layer.fan_in for layer in blk.layers]
                               + [blk.fan_out]
                               for blk in (self.f, self.g, self.b, self.h)))

    def blocks(self) -> dict[str, MLPBlock]:
        return {"f": self.f, "g": self.g, "b": self.b, "h": self.h}


def _check_component_inputs(c: Component, s_prev: Matrix, t_prev: Matrix) -> None:
    for name, x, block in (("s", s_prev, "f"), ("t", t_prev, "g")):
        width = getattr(c, block).fan_in
        if x.ndim != 2 or x.shape[1] != width:
            raise ShapeError(
                f"component {c.index}: {name} input has shape {x.shape}, "
                f"{block} needs (batch, {width})")
    if s_prev.shape[0] != t_prev.shape[0]:
        raise ShapeError(
            f"component {c.index}: batch mismatch, s has {s_prev.shape[0]} "
            f"rows, t has {t_prev.shape[0]}")


def _flow(enc: MLPBlock, dec: MLPBlock, x: Matrix, target: Matrix,
          train: bool, where: str) -> tuple[Matrix, float]:
    """One local flow: code = enc(x), loss = MSE(dec(code), target).
    Training mode leaves the loss's gradients on dec and enc, never on x,
    which belongs to the previous component. Returns (code, loss)."""
    code = enc.forward(x, train=train)
    ensure_finite(code, where)
    loss, grad = mse(dec.forward(code, train=train), target)
    if train:
        enc.backward(dec.backward(grad), input_grad=False)
    return code, loss


def _flows(c: Component, s_prev: Matrix, t_prev: Matrix, train: bool):
    """Flow 2 through (g, h), then flow 1 through (f, b) towards flow 2's
    code t_i, held constant. Returns (s_i, t_i, LossRecord)."""
    _check_component_inputs(c, s_prev, t_prev)
    where = f"component {c.index}"
    t_i, mse2 = _flow(c.g, c.h, t_prev, t_prev, train, f"{where} g output")
    s_i, mse1 = _flow(c.f, c.b, s_prev, t_i, train, f"{where} f output")
    return s_i, t_i, LossRecord(mse1=mse1, mse2=mse2)


def component_forward(c: Component, s_prev: Matrix, t_prev: Matrix):
    """Both flows in evaluation mode; returns (s_i, t_i, LossRecord).

    The outputs are plain arrays: passing them to the next component
    creates no gradient linkage back to this one.
    """
    return _flows(c, s_prev, t_prev, train=False)


def component_update(c: Component, s_prev: Matrix, t_prev: Matrix,
                     lr: float):
    """One local training step at rate lr. Returns (s_i, t_i, LossRecord)
    where the outputs were computed with the parameters BEFORE this
    update, exactly what gets handed to the next component. No block
    steps unless both flows succeed."""
    s_i, t_i, rec = _flows(c, s_prev, t_prev, train=True)
    for opt in (c.opt_g, c.opt_h, c.opt_f, c.opt_b):
        opt.step(lr)
    return s_i, t_i, rec


class ALNetwork:
    """Ordered chain of components plus the overall input/target widths
    and the learning rate every component trains at. Its plan, which a
    checkpoint stores, is the NetworkPlan called name that the
    components' widths spell out."""

    kind = "al"

    def __init__(self, components: list[Component], input_dim: int,
                 target_dim: int, name: str, lr: float = 1e-4):
        self.plan = NetworkPlan(name, input_dim, target_dim,
                                [c.plan for c in components])
        self.plan.validate()
        self.components = components
        self.input_dim = input_dim
        self.n_classes = target_dim
        self.lr = lr

    @property
    def n_components(self) -> int:
        return len(self.components)

    def plan_dict(self) -> dict:
        """The plan a checkpoint stores. A plan holds widths only, so a
        layer whose activation is not its block's in BLOCK_ACTIVATIONS
        raises PlanError: the plan would rebuild another network."""
        for name, layer in self.named_layers():
            want = BLOCK_ACTIVATIONS[name.split(".")[1]]
            if layer.activation != want:
                raise PlanError(
                    f"plan {self.plan.name!r} cannot rebuild layer {name}: "
                    f"activation {layer.activation!r}, a plan gives {want!r}")
        return self.plan.to_dict()

    def predict(self, x: Matrix):
        """Prediction through inference_layers. Returns (y_hat, predicted
        class per row). Encoders and inner bridges are never evaluated."""
        for layer in inference_layers(self):
            x = layer.forward(x, train=False)
        return x, row_argmax(x)

    def named_layers(self) -> list[tuple[str, DenseLayer]]:
        """Every layer, components in order, blocks f, g, b, h: the order
        the checkpoint format and every bit-exactness comparison use."""
        return [(f"c{c.index}.{bname}.{li}", layer) for c in self.components
                for bname, blk in c.blocks().items()
                for li, layer in enumerate(blk.layers)]

    def features(self, x: Matrix) -> Matrix:
        """Top forward activation s_C, before the bridge."""
        for c in self.components:
            x = c.f.forward(x, train=False)
        return x


def build_network(plan: NetworkPlan, rng: Rng, lr: float = 1e-4) -> ALNetwork:
    """Materialize a plan: He-init weights drawn from rng in component
    order, blocks in f, g, b, h order within each component, each with
    its activation in BLOCK_ACTIVATIONS."""
    plan.validate()
    comps = [Component(i, **{k: make_block(getattr(cp, k), act, rng)
                             for k, act in BLOCK_ACTIVATIONS.items()})
             for i, cp in enumerate(plan.components, start=1)]
    return ALNetwork(comps, plan.input_dim, plan.target_dim, plan.name, lr)


def inference_layers(net: ALNetwork) -> list[DenseLayer]:
    """The one dense stack prediction runs: every f layer upward, the top
    bridge, then every h layer downward. match_effective_params gives the
    baseline the same widths."""
    up = [layer for c in net.components for layer in c.f.layers]
    down = [layer for c in reversed(net.components) for layer in c.h.layers]
    return up + net.components[-1].b.layers + down


def effective_param_count(net: ALNetwork) -> int:
    """Parameters of inference_layers."""
    return sum(layer.param_count() for layer in inference_layers(net))


def net_param_items(net: ALNetwork) -> list[tuple[str, Matrix]]:
    """param_items over named_layers(); the benchmark imports it."""
    return param_items(net.named_layers())


# finite-difference harness -------------------------------------------

def gradcheck_network(net: ALNetwork, x: Matrix,
                      y_onehot: Matrix) -> dict[str, float]:
    """Difference each component's local objective mse1 + mse2, as
    trained (t_i frozen), once over every parameter of the network, on
    the arrays a training step would hand it. Returns "c<i>.flow1" and
    "c<i>.flow2", gradcheck of its f, b and its g, h tensors against both
    flows' analytic gradients, and "cross", the largest |fd| over other
    components' tensors, which must vanish."""
    res, cross = {}, 0.0
    s, t = x, y_onehot
    for c in net.components:
        s_prev, t_prev = s, t
        _flows(c, s_prev, t_prev, train=True)
        s, t, _ = component_forward(c, s_prev, t_prev)
        where = f"component {c.index} gradient check"

        def obj() -> float:
            return (_flow(c.f, c.b, s_prev, t, False, where)[1]
                    + _flow(c.g, c.h, t_prev, t_prev, False, where)[1])

        for flow, blocks in (("flow1", (c.f, c.b)), ("flow2", (c.g, c.h))):
            res[f"c{c.index}.{flow}"] = gradcheck(
                obj, [p for blk in blocks for p in blk.param_arrays()],
                [g for blk in blocks for g in blk.grad_arrays()])
        foreign = [p for cj in net.components if cj is not c
                   for blk in cj.blocks().values() for p in blk.param_arrays()]
        for n in finite_diff_loss_grads(obj, foreign):
            cross = max(cross, float(np.abs(n).max()))
    res["cross"] = cross
    return res
