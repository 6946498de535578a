"""Run metrics: accuracy, class geometry and the metrics files.

``class_geometry`` quantifies how well features separate classes: the
intraclass distance is the mean pairwise Euclidean distance within a
class (averaged over classes that have at least two points), the
interclass distance is the mean pairwise distance between class
centroids, and the ratio inter/intra grows as clusters tighten and move
apart. Distances use the Gram-matrix identity, no pairwise Python loops.

``evaluate`` (accuracy of ``model.predict``), ``features`` and
``geometry_report`` serve either model through the model contract
(``al_core``). Every evaluation-mode pass runs in chunks of at most
``chunk`` rows and ``EVAL_ELEMS`` elements of the model's widest layer
output (``_slices``).

CSV rows exclude wall-clock so that a rerun with the same seed produces
a byte-identical file; timing lives in the JSON summary instead. Both
files are replaced atomically, so an interrupted write leaves the
previous file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import GeometryError, ShapeError
from .linalg import Matrix
from .al_core import ALNetwork
from .data import Dataset
from .fileio import atomic_open

# Most elements one evaluation chunk may hold in a layer output (_slices).
EVAL_ELEMS = 2**19


@dataclass
class MetricsRecord:
    """One epoch's numbers. mse1/mse2 are per component, empty for the
    end-to-end baseline; wall_clock is seconds and never reaches the CSV."""

    epoch: int
    mode: str
    mse1: list[float]
    mse2: list[float]
    train_loss: float | None = None
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    wall_clock: float | None = None

    def __post_init__(self):
        for acc in (self.train_accuracy, self.test_accuracy):
            if acc is not None and not 0.0 <= acc <= 1.0:
                raise ValueError(f"accuracy {acc} outside [0, 1]")
        for v in list(self.mse1) + list(self.mse2):
            if v < 0:
                raise ValueError(f"negative loss {v}")


@dataclass
class ClassGeometry:
    inter_class: float
    intra_class: float
    ratio: float


def accuracy(predicted, labels) -> float:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape:
        raise ShapeError(
            f"length mismatch: {predicted.shape} vs {labels.shape}")
    if predicted.size == 0:
        raise ShapeError("empty prediction array")
    return float((predicted == labels).mean())


def _slices(model, n: int, chunk: int):
    """Row slices of an evaluation pass over n rows: at most chunk rows,
    and at most EVAL_ELEMS elements of the model's widest layer output,
    but never fewer than one row."""
    width = max(layer.fan_out for _, layer in model.named_layers())
    rows = max(1, min(chunk, EVAL_ELEMS // width))
    return (slice(i, i + rows) for i in range(0, n, rows))


def evaluate(model, ds: Dataset, chunk: int = 2048) -> float:
    """Accuracy of model.predict over ds, computed in chunks (_slices)."""
    labels = [model.predict(ds.X[sl])[1]
              for sl in _slices(model, ds.n, chunk)]
    return accuracy(np.concatenate(labels) if labels else [], ds.y)


# Benchmark shims: perfbench traces these until ROADMAP item 15 traces evaluate.
infer = ALNetwork.predict
evaluate_al = evaluate
evaluate_bp = evaluate


def features(model, X: Matrix, chunk: int = 2048) -> Matrix:
    """model.features of every row of X, computed in chunks (_slices),
    each written into one preallocated output as soon as it is done."""
    probe = model.features(X[:0])
    out = np.empty((X.shape[0],) + probe.shape[1:], probe.dtype)
    for sl in _slices(model, X.shape[0], chunk):
        out[sl] = model.features(X[sl])
    return out


def _pairwise_mean_distance(P: Matrix) -> float:
    sq = (P * P).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (P @ P.T)
    np.maximum(d2, 0.0, out=d2)
    iu = np.triu_indices(P.shape[0], k=1)
    return float(np.sqrt(d2[iu]).mean())


def class_geometry(features: Matrix, labels) -> ClassGeometry:
    """Inter/intraclass distances of a labeled point cloud.

    Classes with a single point have no pairwise distances; they still
    contribute a centroid but are excluded from the intraclass mean
    rather than counted as zero.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ShapeError(
            f"features {features.shape} do not pair with "
            f"{labels.shape[0]} labels")
    classes = np.unique(labels)
    if classes.size < 2:
        raise GeometryError("need at least 2 classes")
    centroids = np.stack([features[labels == c].mean(axis=0)
                          for c in classes])
    inter = _pairwise_mean_distance(centroids)
    intra_terms = [
        _pairwise_mean_distance(features[labels == c])
        for c in classes if (labels == c).sum() >= 2
    ]
    if not intra_terms:
        raise GeometryError(
            "intraclass distance undefined: every class is a singleton")
    intra = float(np.mean(intra_terms))
    if intra == 0.0:
        raise GeometryError("intraclass distance is zero; ratio undefined")
    return ClassGeometry(inter_class=inter, intra_class=intra,
                         ratio=inter / intra)


def geometry_report(ds: Dataset, model) -> dict:
    """Geometry of the raw features (key "raw") and of the model's learned
    features (key model.kind)."""
    return {"raw": asdict(class_geometry(ds.X, ds.y)),
            model.kind: asdict(class_geometry(features(model, ds.X), ds.y))}


# emission -------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def csv_header(n_components: int) -> list[str]:
    cols = ["epoch", "mode", "train_loss", "train_accuracy", "test_accuracy"]
    cols += [f"mse1_c{i}" for i in range(1, n_components + 1)]
    cols += [f"mse2_c{i}" for i in range(1, n_components + 1)]
    return cols


def record_row(rec: MetricsRecord, n_components: int) -> list[str]:
    def cell(values, i):
        return _fmt(values[i]) if i < len(values) else ""

    row = [str(rec.epoch), rec.mode, _fmt(rec.train_loss),
           _fmt(rec.train_accuracy), _fmt(rec.test_accuracy)]
    row += [cell(rec.mse1, i) for i in range(n_components)]
    row += [cell(rec.mse2, i) for i in range(n_components)]
    return row


def write_metrics_csv(path, records: list[MetricsRecord],
                      n_components: int) -> None:
    with atomic_open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(csv_header(n_components))
        for rec in records:
            w.writerow(record_row(rec, n_components))


def write_json_summary(path, summary: dict) -> None:
    with atomic_open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
