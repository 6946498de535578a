"""Workload definitions and seeded input generation.

Each workload is one training mode on the desk-mlp plan, trained on
Gaussian blobs that this module generates itself, so the inputs do not
change when the program's own data helpers change. The same seed always
gives the same arrays, and every workload trains on the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLAN = "desk-mlp"        # AL plan; bp trains match_effective_params(PLAN)
DIM = 784
CLASSES = 10
N_TRAIN = 6000
N_TEST = 1000
SEPARATION = 4.0         # std-dev of the blob centres; the noise is unit
BATCH_SIZE = 128


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str            # al-seq, al-pipe or bp, as fit() takes it
    lr: float
    # Epochs trained on one freshly built model. final_train_loss and
    # test_accuracy are read at the end of a round, so they depend on the
    # seed alone and never on how many epochs fit into --seconds.
    round_epochs: int
    # Distinct initialisations per run; round r trains model r % models,
    # and the reported loss and accuracy are means over the models.
    models: int = 1


# The AL rounds train 6 epochs at lr 3e-3: by then test accuracy has
# saturated and the loss has left the sigmoid plateau, so one model's
# loss varies little between seeds. The bp loss after one epoch depends
# strongly on the initialisation, and it falls to ~5e-3 in the second
# epoch, where it varies even more; bp averages 12 one-epoch models
# instead.
WORKLOADS = {w.name: w for w in (
    Workload("deskmlp-seq",
             "al-seq on desk-mlp, 784-dim blobs, batch 128: one thread, "
             "time goes to nn (Adam, sigmoid) and linalg.matmul",
             mode="al-seq", lr=3e-3, round_epochs=6),
    Workload("deskmlp-pipe",
             "al-pipe on the same data and seed as deskmlp-seq: two stages "
             "with real compute, stage imbalance and BLAS-thread contention",
             mode="al-pipe", lr=3e-3, round_epochs=6),
    Workload("deskmlp-bp",
             "bp on match_effective_params(desk-mlp): the single-worker "
             "end-to-end baseline, the only workload that runs the bp module",
             mode="bp", lr=1e-4, round_epochs=1, models=12),
)}


@dataclass
class Inputs:
    train_X: np.ndarray
    train_y: np.ndarray
    test_X: np.ndarray
    test_y: np.ndarray
    init_seeds: tuple[int, ...]      # one per model
    shuffle_seeds: tuple[int, ...]


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Blobs plus the model-init and shuffle seeds, all derived from seed."""
    data_seed, *seeds = (int(s) for s in np.random.SeedSequence(seed)
                         .generate_state(1 + 2 * wl.models))
    rng = np.random.Generator(np.random.PCG64(data_seed))
    n = N_TRAIN + N_TEST
    centers = rng.normal(0.0, SEPARATION, size=(CLASSES, DIM))
    y = rng.permutation(np.arange(n) % CLASSES)
    # The centres are added class by class, in place, so that no second
    # full-size array exists and the process's peak memory stays that of
    # training.
    X = rng.normal(0.0, 1.0, size=(n, DIM))
    for c in range(CLASSES):
        X[y == c] += centers[c]
    X -= X.min(axis=0)
    X /= X.max(axis=0)
    return Inputs(X[:N_TRAIN], y[:N_TRAIN], X[N_TRAIN:], y[N_TRAIN:],
                  tuple(seeds[::2]), tuple(seeds[1::2]))


def build_model(al, wl: Workload, init_seed: int):
    """A ready-to-train model through the public API; al is the package."""
    plan = al.get_plan(PLAN)
    rng = al.make_rng(init_seed)
    if wl.mode == "bp":
        return al.build_bp_network(al.match_effective_params(plan), rng,
                                   lr=wl.lr)
    return al.build_network(plan, rng, lr=wl.lr)
