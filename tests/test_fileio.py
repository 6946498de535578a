"""Artifacts are replaced atomically: a write that fails part-way leaves
the previous file byte for byte, and no temporary file behind."""

import numpy as np
import pytest

from assoclearn import checkpoint
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
