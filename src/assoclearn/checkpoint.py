"""Model persistence: one JSON header line, then raw parameter blobs.

Layout: the first line is UTF-8 JSON (tag, plan, seed, epoch, and the
name/shape of every tensor, in order); everything after the newline is
the concatenation of those tensors as little-endian float64 bytes. The
tensor order is the stable enumeration order of the model (components in
order, blocks f, g, b, h, per layer W then bias), so a reader needs
nothing beyond the header. Optimizer moments are not stored: a restored
model predicts identically but restarts Adam cold. A checkpoint is
replaced atomically, so a write that fails leaves the previous one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DataError, TruncatedFileError
from .fileio import atomic_open
from .linalg import make_rng
from .al_core import (
    ALNetwork,
    NetworkPlan,
    build_network,
    net_param_items,
    net_set_params,
)
from .bp import BPNetwork, bp_param_items, bp_set_params

_FORMAT = "alnet-ckpt-1"
_DTYPE = "<f8"


def _write(path, tag: str, plan: dict | None, seed: int, epoch: int,
           items, extra: dict | None) -> None:
    header = {
        "format": _FORMAT,
        "tag": tag,
        "plan": plan,
        "seed": seed,
        "epoch": epoch,
        "dtype": _DTYPE,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in items],
    }
    if extra:
        header["extra"] = extra
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, a in items:
            fh.write(np.ascontiguousarray(a, dtype=_DTYPE).tobytes())


def _tensor_descs(path, header) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor the header declares; DataError when
    a header field, a name or a shape is missing or malformed."""
    missing = [k for k in ("tag", "plan", "seed", "epoch", "arrays")
               if k not in header]
    if missing:
        raise DataError(f"{path}: header lacks {', '.join(missing)}")
    descs = header["arrays"]
    if not isinstance(descs, list):
        raise DataError(f"{path}: header 'arrays' is not a list")
    out = []
    for i, desc in enumerate(descs):
        if not (isinstance(desc, dict) and isinstance(desc.get("name"), str)):
            raise DataError(f"{path}: tensor {i} has no name")
        name, shape = desc["name"], desc.get("shape")
        if not (isinstance(shape, list) and all(
                isinstance(n, int) and n >= 0 for n in shape)):
            raise DataError(f"{path}: tensor {name} has malformed shape "
                            f"{shape!r}")
        out.append((name, tuple(shape)))
    return out


def load_checkpoint(path):
    """Returns (header dict, list of arrays in header order)."""
    path = Path(path)
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise TruncatedFileError(f"{path}: header line not terminated")
        try:
            header = json.loads(line)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: header is not valid JSON: {e}") from e
        fmt = header.get("format") if isinstance(header, dict) else None
        if fmt != _FORMAT:
            raise DataError(f"{path}: format {fmt!r}, expected {_FORMAT!r}")
        arrays = []
        for name, shape in _tensor_descs(path, header):
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise TruncatedFileError(
                    f"{path}: tensor {name} needs {count * 8} bytes, "
                    f"got {len(raw)}")
            arrays.append(np.frombuffer(raw, dtype=_DTYPE).reshape(shape)
                          .astype(np.float64))
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after last tensor")
    return header, arrays


def _read(path, tag: str):
    """(header, arrays) of a checkpoint; DataError unless its tag is tag."""
    header, arrays = load_checkpoint(path)
    if header["tag"] != tag:
        raise DataError(f"{path}: tag {header['tag']!r}, expected {tag!r}")
    return header, arrays


def _rebuild(path, header, build):
    """build(plan, rng) from the header's plan dict and an rng seeded from
    its seed; DataError naming path when either is missing or malformed."""
    plan, seed = header["plan"], header["seed"]
    if plan is None:
        raise DataError(f"{path}: checkpoint has no plan; "
                        f"use load_al_into with a compatible network")
    if type(seed) is not int or seed < 0:
        raise DataError(f"{path}: malformed seed {seed!r}")
    try:
        return build(plan, make_rng(seed))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed plan {plan!r}: {e!r}") from e


def _assign_al(net: ALNetwork, path, header, arrays) -> None:
    names = [n for n, _ in net_param_items(net)]
    stored = [d["name"] for d in header["arrays"]]
    if names != stored:
        diff = next((f"{a} vs {b}" for a, b in zip(stored, names) if a != b),
                    f"{len(stored)} tensors vs {len(names)}")
        raise DataError(
            f"{path}: tensor names do not match this network ({diff})")
    net_set_params(net, arrays)


def save_al(path, net: ALNetwork, seed: int, epoch: int,
            extra: dict | None = None) -> None:
    plan = net.plan.to_dict() if net.plan is not None else None
    _write(path, "al", plan, seed, epoch, net_param_items(net), extra)


def load_al_into(net: ALNetwork, path) -> dict:
    """Overwrite net's parameters from a checkpoint; returns the header."""
    header, arrays = _read(path, "al")
    _assign_al(net, path, header, arrays)
    return header


def load_al(path, lr: float = 1e-4) -> tuple[ALNetwork, dict]:
    """Rebuild a network from a checkpoint that carries its plan."""
    header, arrays = _read(path, "al")
    net = _rebuild(path, header, lambda plan, rng: build_network(
        NetworkPlan.from_dict(plan), rng, lr=lr))
    _assign_al(net, path, header, arrays)
    return net, header


def save_bp(path, net: BPNetwork, seed: int, epoch: int,
            extra: dict | None = None) -> None:
    plan = {"name": net.name, "widths": net.widths,
            "feature_layer": net.feature_layer, "head": net.head}
    _write(path, "bp", plan, seed, epoch, bp_param_items(net), extra)


def load_bp(path, lr: float = 1e-4) -> tuple[BPNetwork, dict]:
    header, arrays = _read(path, "bp")
    net = _rebuild(path, header, lambda plan, rng: BPNetwork(
        plan["widths"], rng, lr=lr, head=plan.get("head", "softmax"),
        feature_layer=plan.get("feature_layer"),
        name=plan.get("name", "bp")))
    bp_set_params(net, arrays)
    return net, header
