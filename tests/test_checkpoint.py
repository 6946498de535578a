import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from assoclearn.al_core import ALNetwork, Component, build_network, get_plan
from assoclearn import checkpoint
from assoclearn.bp import BPNetwork, build_bp_network, match_effective_params
from assoclearn.checkpoint import load, load_checkpoint, save
from assoclearn.errors import DataError, PlanError, TruncatedFileError
from assoclearn.linalg import make_rng
from assoclearn.nn import MLPBlock
from conftest import given_layer, params


def al_fixture(seed=0):
    return build_network(get_plan("blobs"), make_rng(seed))


def bp_fixture(seed=0):
    return BPNetwork([8, 6, 4], make_rng(seed), head="mse", name="toy")


FIXTURES = {"al": al_fixture, "bp": bp_fixture}


@pytest.mark.parametrize("kind", ["al", "bp"])
def test_roundtrip_bit_exact(tmp_path, kind):
    net = FIXTURES[kind](0)
    path = tmp_path / "model.bin"
    save(path, net, seed=0, epoch=7)
    restored, header = load(path)
    assert type(restored) is type(net)
    assert restored.plan_dict() == net.plan_dict() == header["plan"]
    for (na, pa), (nb, pb) in zip(params(net), params(restored)):
        assert na == nb
        assert np.array_equal(pa, pb)
    x = make_rng(1).uniform(size=(5, 8))
    assert np.array_equal(net.predict(x)[0], restored.predict(x)[0])
    assert header["epoch"] == 7 and header["seed"] == 0


@pytest.mark.parametrize("kind", ["al", "bp"])
def test_load_then_save_reproduces_the_file(tmp_path, kind):
    path, again = tmp_path / "model.bin", tmp_path / "again.bin"
    save(path, FIXTURES[kind](3), seed=3, epoch=4,
         extra={"test_accuracy": 0.25, "mode": kind})
    model, header = load(path)
    save(again, model, header["seed"], header["epoch"], header.get("extra"))
    assert again.read_bytes() == path.read_bytes()


def test_header_fields(tmp_path):
    net = al_fixture(5)
    path = tmp_path / "model.bin"
    save(path, net, seed=5, epoch=3, extra={"test_accuracy": 0.5})
    header, arrays = load_checkpoint(path)
    assert header["format"] == "alnet-ckpt-1"
    assert header["tag"] == "al"
    assert header["dtype"] == "<f8"
    assert header["plan"]["name"] == "blobs"
    assert header["extra"] == {"test_accuracy": 0.5}
    assert len(arrays) == len(header["arrays"]) == len(params(net))
    names = [d["name"] for d in header["arrays"]]
    assert names[0] == "c1.f.0.W" and names[1] == "c1.f.0.bias"


def test_save_holds_no_copy_of_a_tensor(tmp_path):
    # Each tensor reaches the file through the buffer protocol, so saving
    # desk-mlp never holds a copy of its largest tensor (1.6 MB).
    net = build_network(get_plan("desk-mlp"), make_rng(6))
    largest = max(a.nbytes for _, a in params(net))
    tracemalloc.start()
    try:
        save(tmp_path / "model.bin", net, seed=6, epoch=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest // 4, (peak, largest)
    _, arrays = load_checkpoint(tmp_path / "model.bin")
    assert all(np.array_equal(a, b) for a, (_, b) in zip(arrays, params(net)))


def test_tag_mismatch(tmp_path):
    al_path = tmp_path / "al.bin"
    save(al_path, al_fixture(9), seed=9, epoch=0)
    _rewrite_header(al_path, lambda h: h.update(tag="cnn"))
    with pytest.raises(DataError, match=re.escape(
            f"{al_path}: tag 'cnn', expected one of ['al', 'bp']")):
        load(al_path)


def test_truncated_blob_detected(tmp_path):
    path = tmp_path / "model.bin"
    save(path, al_fixture(10), seed=10, epoch=0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    # The last tensor of the blobs plan is c2.h.0.bias, (1, 8): 64 bytes.
    with pytest.raises(TruncatedFileError, match=re.escape(
            f"{path}: tensor c2.h.0.bias: needed 64 bytes, "
            f"file ended after 48")):
        load_checkpoint(path)


def declare_first_shape(path, shape):
    """Rewrite the header so the first tensor declares shape."""
    line, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["arrays"][0]["shape"] = shape
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)


def shape_mismatch(path, shape, name="c1.f.0.W", want=(8, 16)):
    """The refusal of a blobs checkpoint whose tensor name declares shape
    where the plan implies want."""
    return re.escape(f"{path}: tensor shapes do not match this network "
                     f"(('{name}', {shape!r}) vs ('{name}', {list(want)}))")


# [2**32, 2**32] and [2**62, 4] hold 2**64 elements, a count that wraps to
# 0 in 64-bit integers; [10**6, 10**6] would need terabytes of memory.
@pytest.mark.parametrize("shape", [[2**32, 2**32], [2**62, 4], [10**6, 10**6]],
                         ids=["wraps-2e32x2e32", "wraps-2e62x4", "oversized-1e12"])
def test_declared_size_beyond_the_file_is_truncation(tmp_path, shape):
    # The header alone cannot declare it: its plan implies another shape.
    # With the plan's first f layer edited to agree, the reader reaches
    # the tensor and finds the file too short.
    path = tmp_path / "model.bin"
    save(path, al_fixture(12), seed=12, epoch=0)
    declare_first_shape(path, shape)
    with pytest.raises(DataError, match=shape_mismatch(path, shape)):
        load_checkpoint(path)
    _rewrite_header(path, lambda h: (
        h["plan"]["components"][0].update(f=shape),
        h["arrays"][1].update(shape=[1, shape[1]])))
    with pytest.raises(TruncatedFileError, match=re.escape(
            f"{path}: tensor c1.f.0.W: needed {8 * math.prod(shape)} "
            f"bytes, file ended after ")):
        load_checkpoint(path)


def test_a_header_shape_of_1e12_elements_reads_no_tensor(tmp_path):
    # desk-mlp holds megabytes of tensors; a header that declares 10**12
    # elements for its first is refused with only the header line read.
    path = tmp_path / "model.bin"
    save(path, build_network(get_plan("desk-mlp"), make_rng(23)), seed=23,
         epoch=0)
    declare_first_shape(path, [10**12])
    line = path.read_bytes().split(b"\n", 1)[0]
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=shape_mismatch(
                path, [10**12], want=(784, 256))):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The bound leaves room for the reader's 8 KiB buffer and the parsed
    # header; reading the tensors would take 5.9 MB.
    assert peak < 32 * len(line), (peak, len(line))


def test_unterminated_header_detected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b'{"format": "alnet-ckpt-1"')
    with pytest.raises(TruncatedFileError, match=re.escape(
            f"{path}: header line not terminated within "
            f"{checkpoint._HEADER_MAX} bytes")):
        load_checkpoint(path)


def test_header_read_stops_at_its_cap(tmp_path):
    # A large file without a newline is refused after reading at most
    # _HEADER_MAX bytes of it, never the whole file: the traced peak is a
    # small multiple of the cap (readline's buffer and its result).
    path = tmp_path / "model.bin"
    with open(path, "wb") as fh:
        fh.truncate(32 * 2**20)     # sparse: 32 MiB of zeros, no newline
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFileError, match=re.escape(
                f"{path}: header line not terminated within "
                f"{checkpoint._HEADER_MAX} bytes")):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * checkpoint._HEADER_MAX, peak


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "model.bin"
    save(path, al_fixture(11), seed=11, epoch=0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match=re.escape(
            f"{path}: bytes after the declared payload")):
        load_checkpoint(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(json.dumps({"format": "other-1"}).encode() + b"\n")
    with pytest.raises(DataError, match=re.escape(
            f"{path}: format 'other-1', expected 'alnet-ckpt-1'")):
        load_checkpoint(path)


def test_invalid_header_json(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"not json at all\n")
    with pytest.raises(DataError, match="JSON"):
        load_checkpoint(path)


def _rewrite_header(path, edit):
    line, blobs = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + blobs)


@pytest.mark.parametrize("key", ["arrays", "tag", "plan", "seed", "epoch",
                                 "dtype"])
def test_header_without_field_rejected(tmp_path, key):
    path = tmp_path / "model.bin"
    save(path, al_fixture(14), seed=14, epoch=0)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(DataError, match=f"header lacks {key}"):
        load_checkpoint(path)


def test_header_tensor_without_shape_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save(path, al_fixture(15), seed=15, epoch=0)
    _rewrite_header(path, lambda h: h["arrays"][1].pop("shape"))
    with pytest.raises(DataError, match=shape_mismatch(
            path, None, "c1.f.0.bias", (1, 16))):
        load_checkpoint(path)


def test_header_negative_dimension_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save(path, al_fixture(16), seed=16, epoch=0)
    _rewrite_header(path, lambda h: h["arrays"][0].update(shape=[-1, 4]))
    with pytest.raises(DataError, match=shape_mismatch(path, [-1, 4])):
        load_checkpoint(path)


def test_header_boolean_dimension_rejected(tmp_path):
    # JSON true is a Python bool, which isinstance(..., int) accepts.
    path = tmp_path / "model.bin"
    save(path, al_fixture(16), seed=16, epoch=0)
    _rewrite_header(path, lambda h: h["arrays"][0].update(shape=[True, 128]))
    with pytest.raises(DataError, match=shape_mismatch(path, [True, 128])):
        load_checkpoint(path)


# Zero bytes, so a size check alone would pass, and numpy bounds the
# product of the nonzero dimensions; the plan implies [8, 16].
@pytest.mark.parametrize("shape", [[0, 2**62], [2**62, 0], [0, 2**63]])
def test_header_shape_numpy_cannot_hold_rejected(tmp_path, shape):
    path = tmp_path / "model.bin"
    save(path, al_fixture(16), seed=16, epoch=0)
    declare_first_shape(path, shape)
    with pytest.raises(DataError, match=shape_mismatch(path, shape)):
        load_checkpoint(path)


def test_load_wrong_architecture(tmp_path):
    # The header's plan builds a network of other tensors than it holds.
    path = tmp_path / "model.bin"
    save(path, al_fixture(12), seed=12, epoch=0)
    _rewrite_header(path, lambda h: h.update(plan=get_plan("xor").to_dict()))
    with pytest.raises(DataError, match="tensor names do not match this "
                                        "network .18 tensors vs 8."):
        load(path)


@pytest.mark.parametrize("loader", ["al", "bp"])
def test_renamed_tensors_raise_data_error(tmp_path, loader):
    path = tmp_path / "model.bin"
    model = (al_fixture(21) if loader == "al"
             else BPNetwork([4, 3, 2], make_rng(21)))
    save(path, model, seed=21, epoch=0)
    _rewrite_header(path, lambda h: [d.update(name="zzz." + d["name"])
                                     for d in h["arrays"]])
    with pytest.raises(DataError, match=re.escape(str(path)) +
                       ": tensor names do not match"):
        load(path)


def test_load_same_names_other_shapes_raises(tmp_path):
    # blobs with a wider top-bridge hidden layer, read back under the
    # blobs plan: every name matches, and the first 12 tensors match in
    # shape too, up to c2.b.0
    plan = get_plan("blobs")
    plan.components[1].b = [16, 24, 8]
    path = tmp_path / "model.bin"
    save(path, build_network(plan, make_rng(17)), seed=17, epoch=0)
    _rewrite_header(path, lambda h: h.update(plan=get_plan("blobs").to_dict()))
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*c2.b.0"):
        load(path)


def test_a_plan_the_tensors_disagree_with_builds_nothing(tmp_path):
    # blobs' bp baseline with only its plan's widths edited: the plan
    # would build 12.5 M parameters, the file holds 8 KiB of them.
    path = tmp_path / "model.bin"
    save(path, build_bp_network(match_effective_params(get_plan("blobs")),
                                make_rng(22)), seed=22, epoch=1)
    _rewrite_header(path, lambda h: h["plan"].update(
        widths=[8, 2500, 2500, 2500, 4]))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=re.escape(str(path)) +
                           ": tensor names do not match"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * size, (peak, size)


def test_save_refuses_a_net_its_plan_cannot_rebuild(tmp_path):
    # Identity layers throughout: the plan holds widths only, so load
    # would rebuild ELU and sigmoid blocks, another model.
    comp = Component(1, *(MLPBlock([given_layer(np.eye(3))]) for _ in "fgbh"))
    net = ALNetwork([comp], 3, 3, "identity")
    with pytest.raises(PlanError, match="c1.f.0: activation 'identity'"):
        save(tmp_path / "model.bin", net, seed=0, epoch=0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("loader,edit,says", [
    ("al", lambda h: h.update(plan={}), "malformed plan {}"),
    ("al", lambda h: h.update(plan=3), "malformed plan 3"),
    ("al", lambda h: h.update(plan=None), "malformed plan None"),
    ("al", lambda h: h.update(seed="abc"), "malformed seed 'abc'"),
    ("bp", lambda h: h["plan"].pop("widths"), "malformed plan"),
    ("al", lambda h: h.update(dtype="<f4"), "dtype '<f4'"),
    ("al", lambda h: h.update(dtype="<i8"), "dtype '<i8'"),
    ("al", lambda h: h.update(dtype=5), "dtype 5"),
    ("bp", lambda h: h["plan"].update(widths=[4, 0, 2]), "malformed plan"),
    ("bp", lambda h: h["plan"].update(widths=[4, True, 2]), "malformed plan"),
    ("bp", lambda h: h["plan"].update(widths="432"), "malformed plan"),
    ("al", lambda h: h["plan"]["components"][0].update(f=[8, -16]),
     "malformed plan"),
    ("bp", lambda h: h["plan"].update(head="tanh"), "malformed plan"),
    ("bp", lambda h: h["arrays"].__setitem__(0, "stack.0.W"),
     "tensor shapes do not match this network "
     "(('stack.0.W', None) vs ('stack.0.W', [4, 3]))"),
    ("bp", lambda h: h.update(arrays="stack.0.W"),
     "tensor names do not match this network (1 tensors vs 4)"),
], ids=["al-empty-plan", "al-plan-not-a-dict", "al-no-plan",
        "al-seed-not-an-int",
        "bp-plan-without-widths", "al-dtype-f4", "al-dtype-i8",
        "al-dtype-not-a-string", "bp-zero-width", "bp-boolean-width",
        "bp-widths-a-string", "al-negative-width", "bp-head-it-cannot-build",
        "bp-tensor-entry-not-a-dict", "bp-tensor-list-not-a-list"])
def test_malformed_plan_or_seed_raises_data_error(tmp_path, loader, edit,
                                                  says):
    path = tmp_path / "model.bin"
    model = (al_fixture(19) if loader == "al"
             else BPNetwork([4, 3, 2], make_rng(19)))
    save(path, model, seed=19, epoch=0)
    _rewrite_header(path, edit)
    with pytest.raises(DataError, match=re.escape(f"{path}: {says}")):
        load(path)


def test_load_al_reads_the_file_once(tmp_path, monkeypatch):
    # Two reads could pair one write's header with another write's tensors
    # when a running fit replaces the checkpoint in between.
    path = tmp_path / "model.bin"
    save(path, al_fixture(20), seed=20, epoch=0)
    reads = []

    def counted(p):
        reads.append(p)
        return load_checkpoint(p)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counted)
    load(path)
    assert len(reads) == 1


def test_restored_network_trains_further(tmp_path):
    # optimizer state is not persisted; training must still work cold
    from assoclearn.al_core import component_update
    from assoclearn.data import one_hot, synth_blobs

    path = tmp_path / "model.bin"
    save(path, al_fixture(15), seed=15, epoch=0)
    restored, _ = load(path)
    ds = synth_blobs(16, 8, 4, separation=6.0, rng=make_rng(16))
    s, t = ds.X, one_hot(ds.y, 4)
    for c in restored.components:
        s, t, rec = component_update(c, s, t, restored.lr)
        assert np.isfinite(rec.mse1 + rec.mse2)
