import json
import re

import numpy as np
import pytest

from assoclearn.al_core import (
    build_network,
    get_plan,
    infer,
    net_param_items,
)
from assoclearn import checkpoint
from assoclearn.bp import BPNetwork
from assoclearn.checkpoint import (
    load_al,
    load_al_into,
    load_bp,
    load_checkpoint,
    save_al,
    save_bp,
)
from assoclearn.errors import DataError, ShapeError, TruncatedFileError
from assoclearn.linalg import make_rng


def al_fixture(seed=0):
    return build_network(get_plan("blobs"), make_rng(seed))


def test_al_roundtrip_bit_exact(tmp_path):
    net = al_fixture(0)
    path = tmp_path / "model.bin"
    save_al(path, net, seed=0, epoch=7)
    restored, header = load_al(path)
    for (na, pa), (nb, pb) in zip(net_param_items(net),
                                  net_param_items(restored)):
        assert na == nb
        assert np.array_equal(pa, pb)
    x = make_rng(1).uniform(size=(5, 8))
    assert np.array_equal(infer(net, x)[0], infer(restored, x)[0])
    assert header["epoch"] == 7 and header["seed"] == 0


def test_al_load_into_existing_network(tmp_path):
    net = al_fixture(2)
    other = al_fixture(3)
    path = tmp_path / "model.bin"
    save_al(path, net, seed=2, epoch=1)
    load_al_into(other, path)
    x = make_rng(4).uniform(size=(3, 8))
    assert np.array_equal(infer(net, x)[0], infer(other, x)[0])


def test_header_fields(tmp_path):
    net = al_fixture(5)
    path = tmp_path / "model.bin"
    save_al(path, net, seed=5, epoch=3, extra={"test_accuracy": 0.5})
    header, arrays = load_checkpoint(path)
    assert header["format"] == "alnet-ckpt-1"
    assert header["tag"] == "al"
    assert header["dtype"] == "<f8"
    assert header["plan"]["name"] == "blobs"
    assert header["extra"] == {"test_accuracy": 0.5}
    assert len(arrays) == len(header["arrays"]) == len(net_param_items(net))
    names = [d["name"] for d in header["arrays"]]
    assert names[0] == "c1.f.0.W" and names[1] == "c1.f.0.bias"


def test_bp_roundtrip_bit_exact(tmp_path):
    net = BPNetwork([8, 6, 4], make_rng(6), head="mse", name="toy")
    path = tmp_path / "bp.bin"
    save_bp(path, net, seed=6, epoch=2)
    restored, header = load_bp(path)
    assert restored.head == "mse"
    assert restored.widths == [8, 6, 4]
    x = make_rng(7).uniform(size=(4, 8))
    assert np.array_equal(net.predict(x)[0], restored.predict(x)[0])
    assert header["plan"]["name"] == "toy"


def test_tag_mismatch(tmp_path):
    net = BPNetwork([4, 2], make_rng(8))
    path = tmp_path / "bp.bin"
    save_bp(path, net, seed=8, epoch=0)
    with pytest.raises(DataError, match="tag"):
        load_al(path)
    al_path = tmp_path / "al.bin"
    save_al(al_path, al_fixture(9), seed=9, epoch=0)
    with pytest.raises(DataError, match="tag"):
        load_bp(al_path)


def test_truncated_blob_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(10), seed=10, epoch=0)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(TruncatedFileError, match="needs"):
        load_checkpoint(path)


def test_unterminated_header_detected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b'{"format": "alnet-ckpt-1"')
    with pytest.raises(TruncatedFileError, match="header"):
        load_checkpoint(path)


def test_trailing_bytes_detected(tmp_path):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(11), seed=11, epoch=0)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path)


def test_wrong_format_rejected(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(json.dumps({"format": "other-1"}).encode() + b"\n")
    with pytest.raises(DataError, match="format"):
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


@pytest.mark.parametrize("key", ["arrays", "tag", "plan", "seed", "epoch"])
def test_header_without_field_rejected(tmp_path, key):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(14), seed=14, epoch=0)
    _rewrite_header(path, lambda h: h.pop(key))
    with pytest.raises(DataError, match=f"header lacks {key}"):
        load_checkpoint(path)


def test_header_tensor_without_shape_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(15), seed=15, epoch=0)
    _rewrite_header(path, lambda h: h["arrays"][1].pop("shape"))
    with pytest.raises(DataError, match="malformed shape None"):
        load_checkpoint(path)


def test_header_negative_dimension_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(16), seed=16, epoch=0)
    _rewrite_header(path, lambda h: h["arrays"][0].update(shape=[-1, 4]))
    with pytest.raises(DataError, match=r"malformed shape \[-1, 4\]"):
        load_checkpoint(path)


def test_load_into_wrong_architecture(tmp_path):
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(12), seed=12, epoch=0)
    other = build_network(get_plan("xor"), make_rng(13))
    with pytest.raises(DataError, match="tensor names"):
        load_al_into(other, path)


def test_load_into_same_names_other_shapes_leaves_net_untouched(tmp_path):
    # blobs with a wider top-bridge hidden layer: every name matches, and
    # the first 12 tensors match in shape too, up to c2.b.0
    plan = get_plan("blobs")
    plan.components[1].b = [16, 24, 8]
    path = tmp_path / "model.bin"
    save_al(path, build_network(plan, make_rng(17)), seed=17, epoch=0)
    net = al_fixture(18)
    before = [p.tobytes() for _, p in net_param_items(net)]
    with pytest.raises(ShapeError, match="c2.b.0"):
        load_al_into(net, path)
    assert [p.tobytes() for _, p in net_param_items(net)] == before


@pytest.mark.parametrize("loader,edit", [
    ("al", lambda h: h.update(plan={})),
    ("al", lambda h: h.update(plan=3)),
    ("al", lambda h: h.update(seed="abc")),
    ("bp", lambda h: h["plan"].pop("widths")),
], ids=["al-empty-plan", "al-plan-not-a-dict", "al-seed-not-an-int",
        "bp-plan-without-widths"])
def test_malformed_plan_or_seed_raises_data_error(tmp_path, loader, edit):
    path = tmp_path / "model.bin"
    if loader == "al":
        save_al(path, al_fixture(19), seed=19, epoch=0)
    else:
        save_bp(path, BPNetwork([4, 3, 2], make_rng(19)), seed=19, epoch=0)
    _rewrite_header(path, edit)
    with pytest.raises(DataError, match=re.escape(str(path))):
        (load_al if loader == "al" else load_bp)(path)


def test_load_al_reads_the_file_once(tmp_path, monkeypatch):
    # Two reads could pair one write's header with another write's tensors
    # when a running fit replaces the checkpoint in between.
    path = tmp_path / "model.bin"
    save_al(path, al_fixture(20), seed=20, epoch=0)
    reads = []

    def counted(p):
        reads.append(p)
        return load_checkpoint(p)

    monkeypatch.setattr(checkpoint, "load_checkpoint", counted)
    load_al(path)
    assert len(reads) == 1


def test_load_al_needs_plan(tmp_path):
    net = al_fixture(14)
    net.plan = None
    path = tmp_path / "model.bin"
    save_al(path, net, seed=14, epoch=0)
    with pytest.raises(DataError, match="no plan"):
        load_al(path)


def test_restored_network_trains_further(tmp_path):
    # optimizer state is not persisted; training must still work cold
    from assoclearn.al_core import component_update
    from assoclearn.data import one_hot, synth_blobs

    path = tmp_path / "model.bin"
    save_al(path, al_fixture(15), seed=15, epoch=0)
    restored, _ = load_al(path)
    ds = synth_blobs(16, 8, 4, separation=6.0, rng=make_rng(16))
    s, t = ds.X, one_hot(ds.y, 4)
    for c in restored.components:
        s, t, rec = component_update(c, s, t)
        assert np.isfinite(rec.local_obj)
