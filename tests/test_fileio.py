"""Artifacts are replaced atomically: a write that fails part-way leaves
the previous file byte for byte, and no temporary file behind. A write
that succeeds reaches the disk before it replaces the file."""

import os

import numpy as np
import pytest

from assoclearn import checkpoint, fileio
from assoclearn.bp import BPNetwork
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
