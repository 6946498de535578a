"""Print the bit-identity hashes of al-seq, al-pipe and bp.

Each hash is the sha256 of the parameter bytes (``net_param_items`` or
``bp_param_items``, in order) after a seeded 2-epoch ``fit`` on the
benchmark's blobs: perfbench's ``make_inputs(wl, 1)``, the first init
and shuffle seed, the workload's rate, batch 128 and ``lr_drops=()``.
A change that keeps the training bits must print the hashes that
ROADMAP.md quotes. Exits 1 when al-seq and al-pipe differ.

    PYTHONPATH=src python3 tools/param_hashes.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import assoclearn as al  # noqa: E402
from assoclearn.al_core import net_param_items  # noqa: E402
from assoclearn.bp import bp_param_items  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE, CLASSES, WORKLOADS, build_model, make_inputs)

EPOCHS = 2
RUNS = (("al-seq", "deskmlp-seq"), ("al-pipe", "deskmlp-pipe"),
        ("bp", "deskmlp-bp"))


def param_hash(name: str) -> str:
    wl = WORKLOADS[name]
    inputs = make_inputs(wl, 1)
    model = build_model(al, wl, inputs.init_seeds[0])
    al.fit(model, al.Dataset(inputs.train_X, inputs.train_y, CLASSES),
           al.Dataset(inputs.test_X, inputs.test_y, CLASSES),
           mode=wl.mode, epochs=EPOCHS, batch_size=BATCH_SIZE,
           rng=al.make_rng(inputs.shuffle_seeds[0]),
           seed=inputs.init_seeds[0], lr=wl.lr, lr_drops=())
    items = (bp_param_items if wl.mode == "bp" else net_param_items)(model)
    return hashlib.sha256(b"".join(a.tobytes() for _, a in items)).hexdigest()


def main() -> int:
    hashes = {mode: param_hash(name) for mode, name in RUNS}
    for mode, h in hashes.items():
        print(f"{mode:8s} {h}")
    if hashes["al-seq"] != hashes["al-pipe"]:
        print("al-seq and al-pipe differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
