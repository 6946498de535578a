"""Artifacts are replaced atomically: a write that fails part-way leaves
the previous file byte for byte, and no temporary file behind. A write
that succeeds reaches the disk before it replaces the file. Every file
the program reads goes through one bounded reader: a file cut short
costs at most one read chunk, whatever size it declares."""

import gzip
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from assoclearn import checkpoint, fileio
from assoclearn.al_core import build_network, get_plan
from assoclearn.bp import BPNetwork
from assoclearn.data import load_idx
from assoclearn.errors import TruncatedFileError
from assoclearn.linalg import make_rng
from assoclearn.metrics import (
    MetricsRecord,
    write_json_summary,
    write_metrics_csv,
)


class Unwritable:
    """Stands in for a value that fails only once writing has begun."""


def write_checkpoint(path, fail):
    # the header and the first tensor are written before the second fails
    model = BPNetwork([2, 2], make_rng(0))
    if fail:
        model.stack.layers[0].bias = np.array([Unwritable()])
    checkpoint.save(path, model, seed=0, epoch=1)


def write_summary(path, fail):
    write_json_summary(path, {"a": 1, "z": Unwritable() if fail else 2})


def write_csv(path, fail):
    rec = MetricsRecord(epoch=1, mode="al-seq", mse1=[0.5], mse2=[0.25],
                        train_loss=0.75)
    write_metrics_csv(path, [rec, Unwritable() if fail else rec], 1)


@pytest.mark.parametrize("write", [write_checkpoint, write_summary,
                                   write_csv],
                         ids=["checkpoint.bin", "summary.json",
                              "metrics.csv"])
def test_failed_write_leaves_previous_file(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, fail=False)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError, AttributeError)):
        write(path, fail=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_write_is_fsynced_before_it_replaces_the_file(tmp_path, monkeypatch):
    # The file's data is on disk before the rename makes it visible, and
    # the directory holding the rename is fsynced after it (POSIX).
    events = []
    fsync, replace = os.fsync, os.replace

    def fsyncing(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def replacing(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        replace(src, dst)

    monkeypatch.setattr(fileio.os, "fsync", fsyncing)
    monkeypatch.setattr(fileio.os, "replace", replacing)
    path = tmp_path / "artifact"
    with fileio.atomic_open(path) as fh:
        fh.write("done")
    written = path.stat().st_ino
    assert events[:2] == [("fsync", written), ("replace", written)]
    if os.name == "posix":
        assert events[2:] == [("fsync", tmp_path.stat().st_ino)]
    assert path.read_text() == "done"


# Each writes a file that declares far more than it holds and returns
# (load call, subject of the refusal, bytes declared, bytes held).
def idx_of_1e6_images(tmp_path, gzipped):
    images, labels = tmp_path / "images", tmp_path / "labels"
    payload = struct.pack(">IIII", 0x00000803, 10**6, 28, 28) + bytes(100)
    images.write_bytes(gzip.compress(payload) if gzipped else payload)
    labels.write_bytes(struct.pack(">II", 0x00000801, 10**6))
    return lambda: load_idx(images, labels), images, 784 * 10**6, 100


def checkpoint_of_a_1e12_tensor(tmp_path):
    # The plan and the header agree on a 10**6 x 10**6 first tensor, so
    # the reader gets past the layout check to the tensor bytes.
    path = tmp_path / "model.bin"
    checkpoint.save(path, build_network(get_plan("blobs"), make_rng(0)),
                    seed=0, epoch=0)
    line, blobs = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["plan"]["components"][0]["f"] = [10**6, 10**6]
    header["arrays"][0]["shape"] = [10**6, 10**6]
    header["arrays"][1]["shape"] = [1, 10**6]
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    return (lambda: checkpoint.load_checkpoint(path),
            f"{path}: tensor c1.f.0.W", 8 * 10**12, len(blobs))


@pytest.mark.parametrize("make", [
    lambda tmp_path: idx_of_1e6_images(tmp_path, gzipped=False),
    lambda tmp_path: idx_of_1e6_images(tmp_path, gzipped=True),
    checkpoint_of_a_1e12_tensor,
], ids=["idx", "idx-gzip", "checkpoint"])
def test_a_file_cut_short_costs_at_most_one_read_chunk(tmp_path, make):
    load, what, declared, held = make(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError) as err:
            load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (f"{what}: needed {declared} bytes, "
                              f"file ended after {held}")
    assert peak < 2 * 2**20, peak
