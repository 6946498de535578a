"""Dataset loading, synthetic datasets, and mini-batch iteration.

The IDX reader understands the classic big-endian layout: a uint32 magic
(0x00000803 for image files, 0x00000801 for label files), uint32 counts
and dimensions, then raw uint8 payload. Gzipped files are detected by
their two-byte signature and decompressed transparently. Pixels are
flattened row-major and scaled by 1/255 so every feature lands in [0,1].
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    CountMismatchError,
    DataError,
    TruncatedFileError,
)
from .linalg import DTYPE, Matrix, Rng

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Feature matrix in [0,1], integer labels, and the class count."""

    X: Matrix
    y: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=DTYPE)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise DataError(
                f"{self.X.shape[0]} rows but {self.y.shape[0]} labels")
        if not np.isfinite(self.X).all():
            raise DataError("non-finite feature values")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise DataError(
                f"labels outside [0, {self.n_classes}): "
                f"min {self.y.min()}, max {self.y.max()}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def _open_data(path: Path):
    with open(path, "rb") as fh:
        sig = fh.read(2)
    if sig == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, count: int, path: Path) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: needed {count} bytes, file ended after {len(data)}")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Read one image file and one label file into a Dataset."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    for p in (images_path, labels_path):
        if not p.exists():
            raise DataError(f"no such file: {p}")

    with _open_data(images_path) as fh:
        magic, n, rows, cols = struct.unpack(
            ">IIII", _read_exact(fh, 16, images_path))
        if magic != _IMAGE_MAGIC:
            raise BadMagicError(
                f"{images_path}: magic 0x{magic:08x}, "
                f"expected 0x{_IMAGE_MAGIC:08x}")
        raw = _read_exact(fh, n * rows * cols, images_path)
    X = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    X = X.astype(DTYPE) / 255.0

    with _open_data(labels_path) as fh:
        magic, m = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != _LABEL_MAGIC:
            raise BadMagicError(
                f"{labels_path}: magic 0x{magic:08x}, "
                f"expected 0x{_LABEL_MAGIC:08x}")
        raw = _read_exact(fh, m, labels_path)
    y = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    if n != m:
        raise CountMismatchError(f"{n} images but {m} labels")
    n_classes = int(y.max()) + 1 if y.size else 0
    return Dataset(X=X, y=y, n_classes=max(n_classes, 1))


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_idx_file(data_dir: Path, base: str) -> Path:
    # Both the hyphenated and the dotted naming conventions circulate.
    dotted = base.replace("-idx", ".idx")
    candidates = [base, base + ".gz", dotted, dotted + ".gz"]
    for name in candidates:
        p = data_dir / name
        if p.exists():
            return p
    raise DataError(
        f"none of {', '.join(candidates)} found under {data_dir}")


def load_mnist(data_dir) -> tuple[Dataset, Dataset]:
    """Standard 60000/10000 split from a directory of IDX files."""
    data_dir = Path(data_dir)
    out = []
    for split in ("train", "test"):
        img_base, lab_base = _MNIST_FILES[split]
        ds = load_idx(_find_idx_file(data_dir, img_base),
                      _find_idx_file(data_dir, lab_base))
        out.append(Dataset(X=ds.X, y=ds.y, n_classes=10))
    return out[0], out[1]


def stratified_subset(ds: Dataset, n: int, rng: Rng) -> Dataset:
    """Seeded sample of n rows preserving class proportions (largest
    remainder rounding, ties to the lower class id)."""
    if not 0 < n <= ds.n:
        raise DataError(f"subset size {n} not in 1..{ds.n}")
    shares = np.array([(ds.y == c).sum() for c in range(ds.n_classes)],
                      dtype=np.float64) * n / ds.n
    quota = np.floor(shares).astype(int)
    remainder = shares - quota
    for c in np.argsort(-remainder, kind="stable")[: n - quota.sum()]:
        quota[c] += 1
    picks = []
    for c in range(ds.n_classes):
        idx = np.flatnonzero(ds.y == c)
        picks.append(rng.permutation(idx)[: quota[c]])
    chosen = rng.permutation(np.concatenate(picks))
    return Dataset(X=ds.X[chosen], y=ds.y[chosen], n_classes=ds.n_classes)


def mnist_subset(train: Dataset, test: Dataset, n_train: int = 6000,
                 n_test: int = 1000, seed: int = 0):
    """The desk-scale fixture: 6000 train / 1000 test, stratified."""
    from .linalg import spawn_rngs

    r_train, r_test = spawn_rngs(seed, 2)
    return (stratified_subset(train, n_train, r_train),
            stratified_subset(test, n_test, r_test))


def one_hot(labels, n_classes: int) -> Matrix:
    labels = np.asarray(labels, dtype=np.int64)
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise DataError(
            f"label {int(bad[0])} out of range for {n_classes} classes")
    return np.eye(n_classes, dtype=DTYPE)[labels]


def synth_blobs(n: int, d: int, k: int, separation: float, rng: Rng) -> Dataset:
    """k Gaussian clusters with unit within-class spread and centers drawn
    with standard deviation `separation`; features min-max scaled to [0,1]."""
    if k < 2:
        raise DataError(f"need at least 2 classes, got {k}")
    centers = rng.normal(0.0, separation, size=(k, d))
    y = rng.permutation(np.arange(n) % k)
    X = centers[y] + rng.normal(0.0, 1.0, size=(n, d))
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0] = 1.0
    X = (X - lo) / span
    return Dataset(X=X, y=y, n_classes=k)


def synth_xor() -> Dataset:
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], dtype=DTYPE)
    y = np.array([0, 1, 1, 0], dtype=np.int64)
    return Dataset(X=X, y=y, n_classes=2)


class BatchIterator:
    """Yields index arrays covering a fresh seeded permutation each pass;
    the final batch may be short."""

    def __init__(self, n: int, batch_size: int, rng: Rng):
        if n < 1:
            raise DataError("empty dataset")
        if batch_size < 1:
            raise DataError(f"batch_size must be >= 1, got {batch_size}")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng

    def __iter__(self):
        order = self.rng.permutation(self.n)
        for start in range(0, self.n, self.batch_size):
            yield order[start:start + self.batch_size]

    def n_batches(self) -> int:
        return (self.n + self.batch_size - 1) // self.batch_size
