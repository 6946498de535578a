"""Model persistence: one JSON header line, then raw parameter blobs.

Layout: the first line is UTF-8 JSON (tag ``model.kind``, plan
``model.plan_dict()``, seed, epoch, dtype, and the name/shape of every
tensor, in order); everything after the newline is the concatenation of
those tensors as little-endian float64 bytes, which the dtype field
declares as "<f8" and a loader requires. The tensor order is
``nn.param_items`` over the model's ``named_layers()``, so a reader needs
nothing beyond the header: ``load_checkpoint`` checks the header's fields
and compares its tensor list with the one the plan implies before it
reads a tensor byte, and ``load`` then rebuilds the model the tag names
from the plan and the seed. Every model has a plan, so ``load`` reads
every checkpoint ``save`` writes. Neither the optimizer moments nor the
learning rate is stored: a restored model predicts identically but
restarts Adam cold. A checkpoint is replaced atomically, so a write that
fails leaves the previous one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError, TruncatedFileError
from .fileio import atomic_open, read_exact
from .linalg import make_rng
from .al_core import NetworkPlan, build_network
from .bp import BPNetwork
from .nn import param_items, set_params

_FORMAT = "alnet-ckpt-1"
_DTYPE = "<f8"
# Longest header line a loader reads, newline included: desk-mlp's is
# 1,129 bytes, so only a file that is no checkpoint comes near it.
_HEADER_MAX = 2**20


def save(path, model, seed: int, epoch: int,
         extra: dict | None = None) -> None:
    items = param_items(model.named_layers())
    header = {
        "format": _FORMAT,
        "tag": model.kind,
        "plan": model.plan_dict(),
        "seed": seed,
        "epoch": epoch,
        "dtype": _DTYPE,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in items],
    }
    if extra:
        header["extra"] = extra
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, a in items:     # through the buffer: no copy of a tensor
            fh.write(np.ascontiguousarray(a, dtype=_DTYPE))


# Benchmark shims: perfbench traces these until ROADMAP item 15 traces save.
save_al = save
save_bp = save


def _al_blocks(plan: dict) -> list[tuple[str, list]]:
    return [(f"c{i}.{k}", widths) for i, cp in enumerate(
        NetworkPlan.from_dict(plan).components, start=1)
        for k, widths in vars(cp).items()]


# Per checkpoint tag: plan dict and seeded rng -> model, and plan dict ->
# (layer name, width chain) of each block, in named_layers() order.
_BUILDERS = {
    "al": lambda plan, rng: build_network(NetworkPlan.from_dict(plan), rng),
    "bp": lambda plan, rng: BPNetwork(rng=rng, **plan),
}
_BLOCKS = {"al": _al_blocks, "bp": lambda plan: [("stack", plan["widths"])]}


def _layout(path, tag, plan) -> list[tuple[str, list[int]]]:
    """(name, shape) of every tensor of the plan's model, in save order;
    DataError naming path unless every width is a positive int."""
    try:
        blocks = _BLOCKS[tag](plan)
        if not all(type(w) is int and w > 0 for _, ws in blocks for w in ws):
            raise ValueError("widths must be positive ints")
    except (LookupError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed plan {plan!r}: {e!r}") from e
    return [(f"{name}.{li}.{p}", shape) for name, w in blocks
            for li, (a, b) in enumerate(zip(w, w[1:]))
            for p, shape in (("W", [a, b]), ("bias", [1, b]))]


def load_checkpoint(path):
    """Returns (header dict, list of arrays in header order). The header
    line (at most _HEADER_MAX bytes), its fields and its tensor list,
    against the one its plan implies, are all checked before a tensor
    byte is read; then exactly the plan's tensors are read, each through
    fileio.read_exact, and then the end of the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX)
        if not line.endswith(b"\n"):
            raise TruncatedFileError(f"{path}: header line not terminated "
                                     f"within {_HEADER_MAX} bytes")
        try:
            header = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: header is not valid JSON: {e}") from e
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != _FORMAT:
            raise DataError(f"{path}: format {fmt!r}, expected {_FORMAT!r}")
        missing = [k for k in ("tag", "plan", "seed", "epoch", "dtype",
                               "arrays") if k not in header]
        if missing:
            raise DataError(f"{path}: header lacks {', '.join(missing)}")
        tag, seed = header["tag"], header["seed"]
        if header["dtype"] != _DTYPE:
            raise DataError(f"{path}: dtype {header['dtype']!r}, expected "
                            f"{_DTYPE!r}")
        if tag not in _BUILDERS:
            raise DataError(f"{path}: tag {tag!r}, expected one of "
                            f"{sorted(_BUILDERS)}")
        if type(seed) is not int or seed < 0:
            raise DataError(f"{path}: malformed seed {seed!r}")
        want = _layout(path, tag, header["plan"])
        descs = header["arrays"]
        stored = [(d.get("name"), d.get("shape")) if isinstance(d, dict)
                  else (d, None)
                  for d in (descs if isinstance(descs, list) else [descs])]
        if stored != want:
            names = [n for n, _ in stored], [n for n, _ in want]
            what = "names" if names[0] != names[1] else "shapes"
            pairs = zip(*names) if what == "names" else zip(stored, want)
            diff = next((f"{a} vs {b}" for a, b in pairs if a != b),
                        f"{len(stored)} tensors vs {len(want)}")
            raise DataError(
                f"{path}: tensor {what} do not match this network ({diff})")
        arrays = [np.frombuffer(read_exact(
            fh, np.dtype(_DTYPE).itemsize * math.prod(shape),
            f"{path}: tensor {name}"), dtype=_DTYPE).reshape(shape)
            for name, shape in want]
        read_exact(fh, 0, path, last=True)
    return header, arrays


def load(path):
    """(model, header): the model the tag names, rebuilt from the plan and
    an rng seeded from the seed the checkpoint carries, then assigned the
    tensors load_checkpoint read; DataError naming path when the header
    is refused or the plan builds no model."""
    header, arrays = load_checkpoint(path)
    plan = header["plan"]
    try:
        model = _BUILDERS[header["tag"]](plan, make_rng(header["seed"]))
    except (LookupError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed plan {plan!r}: {e!r}") from e
    set_params(model.named_layers(), arrays)
    return model, header
