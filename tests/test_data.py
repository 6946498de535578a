import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from assoclearn.bp import BPNetwork
from assoclearn.data import (
    BatchIterator,
    Dataset,
    load_idx,
    load_mnist,
    mnist_subset,
    one_hot,
    stratified_subset,
    synth_blobs,
    synth_xor,
)
from assoclearn.errors import (
    BadMagicError,
    CountMismatchError,
    DataError,
    TruncatedFileError,
)
from assoclearn.linalg import make_rng
from assoclearn.metrics import evaluate
from assoclearn.train import train_epoch

from conftest import MNIST_DIR, requires_mnist


def write_idx_pair(tmp_path, images, labels, gzipped=False,
                   image_magic=0x00000803, label_magic=0x00000801):
    """images: uint8 array (n, rows, cols); labels: uint8 array (n,)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_bytes = struct.pack(">IIII", image_magic, n, rows, cols)
    img_bytes += images.tobytes()
    lab_bytes = struct.pack(">II", label_magic, labels.shape[0])
    lab_bytes += labels.tobytes()
    suffix = ".gz" if gzipped else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lab_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    writer = gzip.open if gzipped else open
    with writer(img_path, "wb") as fh:
        fh.write(img_bytes)
    with writer(lab_path, "wb") as fh:
        fh.write(lab_bytes)
    return img_path, lab_path


# IDX loading ----------------------------------------------------------

def test_load_idx_roundtrip(tmp_path):
    rng = make_rng(0)
    images = rng.integers(0, 256, size=(5, 3, 4), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    ds = load_idx(*write_idx_pair(tmp_path, images, labels))
    assert ds.n == 5 and ds.dim == 12
    assert np.allclose(ds.X, images.reshape(5, 12) / 255.0)
    assert ds.y.tolist() == [0, 1, 2, 1, 0]
    assert ds.n_classes == 3


def test_load_idx_gzip_transparent(tmp_path):
    images = np.full((2, 2, 2), 128, dtype=np.uint8)
    labels = np.array([1, 0], dtype=np.uint8)
    plain = load_idx(*write_idx_pair(tmp_path, images, labels))
    zipped = load_idx(*write_idx_pair(tmp_path, images, labels,
                                      gzipped=True))
    assert np.array_equal(plain.X, zipped.X)
    assert np.array_equal(plain.y, zipped.y)


def test_load_idx_single_zero_image(tmp_path):
    ds = load_idx(*write_idx_pair(
        tmp_path, np.zeros((1, 2, 3), dtype=np.uint8),
        np.zeros(1, dtype=np.uint8)))
    assert ds.X.shape == (1, 6)
    assert np.array_equal(ds.X, np.zeros((1, 6)))


def test_load_idx_bad_image_magic(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                           np.zeros(1, dtype=np.uint8),
                           image_magic=0x00000804)
    with pytest.raises(BadMagicError, match="0x00000804"):
        load_idx(*paths)


def test_load_idx_bad_label_magic(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                           np.zeros(1, dtype=np.uint8),
                           label_magic=0x00000802)
    with pytest.raises(BadMagicError, match="0x00000802"):
        load_idx(*paths)


def test_load_idx_truncated(tmp_path):
    img_path, lab_path = write_idx_pair(
        tmp_path, np.ones((3, 2, 2), dtype=np.uint8),
        np.zeros(3, dtype=np.uint8))
    img_path.write_bytes(img_path.read_bytes()[:-5])
    with pytest.raises(TruncatedFileError, match="ended"):
        load_idx(img_path, lab_path)


@pytest.mark.parametrize("gzipped", [False, True])
def test_load_idx_declared_size_beyond_the_file(tmp_path, gzipped):
    # 10**9 images of 28x28 over a 100-byte payload: the loader must
    # report the truncation, not ask for 784 GB first.
    img_path, lab_path = write_idx_pair(
        tmp_path, np.ones((1, 2, 2), dtype=np.uint8),
        np.zeros(1, dtype=np.uint8), gzipped=gzipped)
    payload = struct.pack(">IIII", 0x00000803, 10**9, 28, 28) + bytes(100)
    img_path.write_bytes(gzip.compress(payload) if gzipped else payload)
    with pytest.raises(TruncatedFileError,
                       match=f"{img_path.name}: needed 784000000000 bytes, "
                             f"file ended after 100"):
        load_idx(img_path, lab_path)


@pytest.mark.parametrize("corrupt,says", [
    (lambda gz: gz[:len(gz) // 2], "end-of-stream marker"),
    # 0xff opens a deflate block of the reserved type 3
    (lambda gz: gz[:10] + b"\xff" * (len(gz) - 10), "invalid block type"),
    (lambda gz: gz[:2] + b"\x09" + gz[3:], "Unknown compression method"),
], ids=["truncated-stream", "corrupt-body", "bad-header"])
def test_load_idx_corrupt_gzip_raises_data_error(tmp_path, corrupt, says):
    img_path, lab_path = write_idx_pair(
        tmp_path, np.ones((3, 2, 2), dtype=np.uint8),
        np.zeros(3, dtype=np.uint8))
    # gzip.compress writes a 10-byte header: no file name field
    img_path.write_bytes(corrupt(gzip.compress(img_path.read_bytes())))
    with pytest.raises(DataError,
                       match=f"{img_path.name}: corrupt gzip stream: .*{says}"):
        load_idx(img_path, lab_path)


def test_load_idx_checks_the_gzip_trailer(tmp_path):
    # A level-0 gzip stores the payload verbatim, so flipping a bit of
    # the last pixel (11 -> 75) keeps the deflate stream valid; only the
    # CRC-32 in the trailer, which follows it, tells.
    images = np.arange(12, dtype=np.uint8).reshape(3, 2, 2)
    img_path, lab_path = write_idx_pair(tmp_path, images,
                                        np.zeros(3, dtype=np.uint8))
    gz = bytearray(gzip.compress(img_path.read_bytes(), compresslevel=0))
    assert gz[-9] == 11         # the last payload byte, before the trailer
    gz[-9] ^= 64
    img_path.write_bytes(bytes(gz))
    with pytest.raises(DataError, match="CRC check failed") as err:
        load_idx(img_path, lab_path)
    assert str(err.value).startswith(f"{img_path}: ")


@pytest.mark.parametrize("which", [0, 1], ids=["images", "labels"])
def test_load_idx_rejects_bytes_after_the_payload(tmp_path, which):
    paths = write_idx_pair(tmp_path, np.ones((3, 2, 2), dtype=np.uint8),
                           np.zeros(3, dtype=np.uint8))
    paths[which].write_bytes(paths[which].read_bytes() + b"\x00")
    with pytest.raises(DataError) as err:
        load_idx(*paths)
    assert str(err.value).startswith(f"{paths[which]}: ")


def test_load_idx_scales_pixels_in_one_float64_array(tmp_path):
    # Every byte value scales to the bits of u8.astype(float64) / 255,
    # and loading holds the float64 pixels once: the uint8 payload and
    # the finiteness mask are an eighth of them each.
    images = np.resize(np.arange(256, dtype=np.uint8), (300, 28, 28))
    paths = write_idx_pair(tmp_path, images, np.zeros(300, dtype=np.uint8))
    tracemalloc.start()
    try:
        ds = load_idx(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = images.reshape(300, -1).astype(np.float64) / 255.0
    assert ds.X.tobytes() == expected.tobytes()
    assert peak < 1.5 * ds.X.nbytes, (peak, ds.X.nbytes)


def test_load_idx_count_mismatch(tmp_path):
    img_path, _ = write_idx_pair(
        tmp_path, np.ones((3, 2, 2), dtype=np.uint8),
        np.zeros(3, dtype=np.uint8))
    # label file declaring a different record count
    lab_path = tmp_path / "short-labels-idx1-ubyte"
    lab_path.write_bytes(struct.pack(">II", 0x00000801, 2) + b"\x00\x00")
    with pytest.raises(CountMismatchError) as err:
        load_idx(img_path, lab_path)
    assert str(err.value) == f"3 images but 2 labels ({lab_path})"


def test_load_idx_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_idx(tmp_path / "nope", tmp_path / "also-nope")


def _idx_name(base, variant):
    name = base.replace("-idx", ".idx") if "dotted" in variant else base
    return name + (".gz" if variant.endswith("gz") else "")


@pytest.mark.parametrize("variant", ["plain", "gz", "dotted", "dotted-gz"])
def test_load_mnist_finds_each_naming_of_the_files(tmp_path, variant):
    # Tiny hand-written IDX files under the official names: a test of
    # the file lookup, not of the dataset.
    for split, n in (("train", 3), ("t10k", 2)):
        pair = write_idx_pair(
            tmp_path, np.arange(n * 4).reshape(n, 2, 2), np.arange(n),
            gzipped=variant.endswith("gz"))
        for path, kind in zip(pair, ("images-idx3", "labels-idx1")):
            path.rename(tmp_path / _idx_name(f"{split}-{kind}-ubyte", variant))
    train, test = load_mnist(tmp_path)
    assert (train.n, test.n, train.dim, train.n_classes) == (3, 2, 4, 10)
    assert np.array_equal(train.X[2], np.arange(8, 12) / 255.0)
    assert np.array_equal(test.y, [0, 1])


def test_load_mnist_names_every_file_it_looked_for(tmp_path):
    with pytest.raises(DataError, match=(
            "none of train-images-idx3-ubyte, train-images-idx3-ubyte.gz, "
            "train-images.idx3-ubyte, train-images.idx3-ubyte.gz found "
            f"under {tmp_path}")):
        load_mnist(tmp_path)


@requires_mnist
def test_mnist_official_shapes():
    train, test = load_mnist(MNIST_DIR)
    assert train.n == 60000 and train.dim == 784
    assert test.n == 10000 and test.dim == 784
    assert train.n_classes == 10
    assert train.X.min() >= 0.0 and train.X.max() <= 1.0


# one-hot --------------------------------------------------------------

def test_one_hot_single_label():
    row = one_hot([3], 10)
    assert row.shape == (1, 10)
    assert row[0, 3] == 1.0 and row.sum() == 1.0


def test_one_hot_row_sums():
    y = make_rng(1).integers(0, 7, size=40)
    enc = one_hot(y, 7)
    assert np.array_equal(enc.sum(axis=1), np.ones(40))


def test_one_hot_argmax_roundtrip():
    y = make_rng(2).integers(0, 5, size=30)
    assert np.array_equal(one_hot(y, 5).argmax(axis=1), y)


def test_one_hot_out_of_range():
    with pytest.raises(DataError, match="out of range"):
        one_hot([4], 4)


@pytest.mark.parametrize("labels, bad", [([-1, 2], -1), ([0, 5, 1], 5)])
def test_one_hot_error_names_offending_label(labels, bad):
    with pytest.raises(DataError, match=f"label {bad} out of range for 3"):
        one_hot(labels, 3)


# synthetic datasets ---------------------------------------------------

def test_blobs_linear_classifier_separates():
    data = synth_blobs(100, 2, 2, separation=10.0, rng=make_rng(3))
    y = one_hot(data.y, 2)
    # single-layer softmax stack = linear classifier
    net = BPNetwork([2, 2], make_rng(4), lr=1e-2)
    shuffle = make_rng(5)
    acc = 0.0
    for epoch in range(50):
        train_epoch(net, data.X, y, 16, shuffle, epoch, "bp")
        acc = evaluate(net, data)
        if acc == 1.0:
            break
    assert acc == 1.0


def test_blobs_determinism_and_range():
    a = synth_blobs(50, 3, 4, separation=5.0, rng=make_rng(6))
    b = synth_blobs(50, 3, 4, separation=5.0, rng=make_rng(6))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert a.X.min() >= 0.0 and a.X.max() <= 1.0
    assert a.n_classes == 4
    assert set(np.unique(a.y)) == {0, 1, 2, 3}


def test_blobs_rejects_single_class():
    with pytest.raises(DataError, match="at least 2"):
        synth_blobs(10, 2, 1, separation=1.0, rng=make_rng(7))


def test_xor_canonical():
    ds = synth_xor()
    assert ds.X.shape == (4, 2)
    assert ds.y.tolist() == [0, 1, 1, 0]
    assert ds.n_classes == 2


# dataset invariants ---------------------------------------------------

def test_dataset_rejects_label_out_of_range():
    with pytest.raises(DataError, match="labels outside"):
        Dataset(X=np.zeros((2, 2)), y=np.array([0, 5]), n_classes=2)


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(X=np.array([[np.nan, 0.0]]), y=np.array([0]), n_classes=1)


def test_dataset_rejects_mispaired_labels():
    with pytest.raises(DataError, match="labels"):
        Dataset(X=np.zeros((3, 2)), y=np.array([0, 1]), n_classes=2)


def test_dataset_rejects_1d_features():
    with pytest.raises(DataError, match="2-D"):
        Dataset(X=np.zeros(3), y=np.zeros(3, dtype=int), n_classes=1)


# subsetting -----------------------------------------------------------

def make_labeled(n_per_class, k):
    y = np.repeat(np.arange(k), n_per_class)
    X = make_rng(8).uniform(size=(y.size, 3))
    return Dataset(X=X, y=y, n_classes=k)


def test_stratified_subset_preserves_proportions():
    ds = make_labeled(100, 4)
    sub = stratified_subset(ds, 40, make_rng(9))
    assert sub.n == 40
    counts = [(sub.y == c).sum() for c in range(4)]
    assert counts == [10, 10, 10, 10]


def test_stratified_subset_unbalanced_rounding():
    y = np.array([0] * 7 + [1] * 3)
    ds = Dataset(X=np.zeros((10, 2)), y=y, n_classes=2)
    sub = stratified_subset(ds, 5, make_rng(10))
    counts = [(sub.y == c).sum() for c in range(2)]
    # shares 3.5 / 1.5 round by largest remainder, tie to the lower id
    assert counts == [4, 1]
    assert sub.n == 5


def test_stratified_subset_deterministic():
    ds = make_labeled(50, 3)
    a = stratified_subset(ds, 30, make_rng(11))
    b = stratified_subset(ds, 30, make_rng(11))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)


def test_stratified_subset_size_validation():
    ds = make_labeled(5, 2)
    with pytest.raises(DataError):
        stratified_subset(ds, 0, make_rng(12))
    with pytest.raises(DataError):
        stratified_subset(ds, 11, make_rng(12))


def test_mnist_subset_fixture_sizes():
    train = make_labeled(800, 10)
    test = make_labeled(200, 10)
    sub_train, sub_test = mnist_subset(train, test, seed=1)
    assert sub_train.n == 6000 and sub_test.n == 1000
    assert sub_train.n_classes == 10


# batching -------------------------------------------------------------

def test_batch_iterator_covers_every_index_once():
    it = BatchIterator(23, 5, make_rng(13))
    for _ in range(3):
        seen = np.concatenate(list(it))
        assert sorted(seen.tolist()) == list(range(23))


def test_batch_iterator_batch_sizes():
    it = BatchIterator(10, 4, make_rng(14))
    sizes = [len(idx) for idx in it]
    assert sizes == [4, 4, 2]


def test_batch_iterator_fresh_permutation_each_pass():
    it = BatchIterator(32, 32, make_rng(15))
    first = list(it)[0]
    second = list(it)[0]
    assert not np.array_equal(first, second)


def test_batch_iterator_validation():
    with pytest.raises(DataError):
        BatchIterator(0, 4, make_rng(16))
    with pytest.raises(DataError):
        BatchIterator(10, 0, make_rng(16))
