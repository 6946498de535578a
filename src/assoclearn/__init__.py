"""Locally trained component networks, an end-to-end baseline, and the
pipelined trainer that overlaps their component updates.

See the README for the architecture; the short version: a network is
folded into components that each minimize a private objective (bridge
match plus target autoencoding), so no gradient ever crosses a component
boundary and successive mini-batches can occupy different components at
the same time.
"""

from .al_core import (
    ALNetwork,
    Component,
    ComponentPlan,
    LossRecord,
    NetworkPlan,
    build_network,
    component_forward,
    component_update,
    get_plan,
    infer,
    plan_names,
)
from .bp import BPNetwork, build_bp_network, match_effective_params
from .data import Dataset, load_idx, load_mnist, one_hot, synth_blobs, synth_xor
from .linalg import make_rng, spawn_rngs
from .metrics import MetricsRecord, accuracy, class_geometry
from .train import Schedule, bench_pipeline, fit, train_epoch_pipelined, train_epoch_sequential

__version__ = "0.1.0"

__all__ = [
    "ALNetwork", "BPNetwork", "Component", "ComponentPlan", "Dataset",
    "LossRecord", "MetricsRecord", "NetworkPlan", "Schedule", "accuracy",
    "bench_pipeline", "build_bp_network", "build_network", "class_geometry",
    "component_forward", "component_update", "fit", "get_plan", "infer",
    "load_idx", "load_mnist", "make_rng", "match_effective_params",
    "one_hot", "plan_names", "spawn_rngs", "synth_blobs", "synth_xor",
    "train_epoch_pipelined", "train_epoch_sequential",
]
