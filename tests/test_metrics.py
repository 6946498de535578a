import tracemalloc

import numpy as np
import pytest

from assoclearn import metrics
from assoclearn.al_core import (ALNetwork, ComponentPlan, NetworkPlan,
                                build_network, get_plan)
from assoclearn.bp import BPNetwork
from assoclearn.data import Dataset, synth_blobs
from assoclearn.errors import GeometryError, ShapeError
from assoclearn.linalg import make_rng
from assoclearn.metrics import (
    ClassGeometry,
    MetricsRecord,
    accuracy,
    class_geometry,
    csv_header,
    evaluate,
    features,
    geometry_report,
    record_row,
    write_metrics_csv,
)


# accuracy -------------------------------------------------------------

def test_accuracy_all_correct():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_accuracy_all_wrong():
    assert accuracy([0, 0, 0], [1, 2, 3]) == 0.0


def test_accuracy_three_of_four():
    assert accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ShapeError):
        accuracy([1, 2], [1, 2, 3])


def test_accuracy_empty():
    with pytest.raises(ShapeError):
        accuracy([], [])


# evaluation -----------------------------------------------------------

def blob_fixture(seed=0, n=64):
    return synth_blobs(n, 8, 4, separation=6.0, rng=make_rng(seed))


def test_evaluate_al_matches_direct_inference():
    net = build_network(get_plan("blobs"), make_rng(4))
    ds = blob_fixture(seed=5)
    _, classes = net.predict(ds.X)
    assert evaluate(net, ds, chunk=10) == accuracy(classes, ds.y)


def test_evaluate_bp_matches_direct_prediction():
    net = BPNetwork([8, 6, 4], make_rng(6))
    ds = blob_fixture(seed=7)
    _, classes = net.predict(ds.X)
    assert evaluate(net, ds, chunk=10) == accuracy(classes, ds.y)


@pytest.mark.parametrize("kind", ["al", "bp"])
def test_evaluate_on_no_rows_is_a_shape_error(kind):
    model = (build_network(get_plan("blobs"), make_rng(4)) if kind == "al"
             else BPNetwork([8, 6, 4], make_rng(6)))
    empty = Dataset(np.empty((0, 8)), np.empty(0, dtype=np.int64), 4)
    with pytest.raises(ShapeError, match="empty prediction array"):
        evaluate(model, empty)


@pytest.mark.parametrize("kind", ["al", "bp"])
def test_features_chunking_consistent(kind):
    if kind == "al":
        model = build_network(get_plan("blobs"), make_rng(8))
    else:
        model = BPNetwork([8, 6, 5, 4], make_rng(8), feature_layer=2)
    X = blob_fixture(seed=9).X
    whole = model.features(X)
    assert np.array_equal(features(model, X, chunk=8), whole)
    assert np.array_equal(features(model, X, chunk=4096), whole)


# evaluation element budget --------------------------------------------

def _wide_models():
    """An AL net and a bp net on 8 inputs whose widest layer output is a
    512-wide hidden layer below their 16-wide features, so
    metrics.EVAL_ELEMS caps a chunk at EVAL_ELEMS // 512 rows."""
    plan = NetworkPlan(name="wide", input_dim=8, target_dim=4, components=[
        ComponentPlan(f=[8, 512, 16], g=[4, 8], b=[16, 8], h=[8, 4])])
    return (build_network(plan, make_rng(40)),
            BPNetwork([8, 512, 16, 4], make_rng(41), feature_layer=2))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("what", ["evaluate_al", "evaluate_bp",
                                  "features-al", "features-bp"])
def test_evaluation_peak_does_not_grow_with_chunk(what):
    # Both chunks exceed the EVAL_ELEMS // 512 = 1024-row cap, so both
    # passes hold the same 1024x512 activations; an uncapped pass at 8192
    # rows holds 4096x512 float64 (16 MB) at once instead of 2048x512.
    al_net, bp_net = _wide_models()
    ds = blob_fixture(seed=42, n=4096)
    run = {"evaluate_al": lambda c: evaluate(al_net, ds, c),
           "evaluate_bp": lambda c: evaluate(bp_net, ds, c),
           "features-al": lambda c: features(al_net, ds.X, c),
           "features-bp": lambda c: features(bp_net, ds.X, c)}[what]
    small = _traced_peak(lambda: run(2048))
    large = _traced_peak(lambda: run(8192))
    assert abs(large - small) < 2**20, (small, large)


def test_features_holds_its_result_once():
    # Each chunk's features go straight into the one output array, so the
    # pass holds the 16 MiB result plus one 1024x512 chunk (4 MiB), not
    # the result twice as a list of chunks and their concatenation would.
    model = BPNetwork([8, 512, 4], make_rng(46), feature_layer=1)
    X = blob_fixture(seed=47, n=4096).X
    rows = min(2048, metrics.EVAL_ELEMS // 512)
    result_bytes = 4096 * 512 * 8
    peak = _traced_peak(lambda: features(model, X, chunk=2048))
    assert peak <= result_bytes + rows * 512 * 8 + 2**20, peak


@pytest.fixture
def chunk_rows(monkeypatch):
    """Row count of every chunk the evaluation passes of metrics run."""
    rows = []

    def spy(fn):
        def wrapped(model, x, *rest):
            rows.append(x.shape[0])
            return fn(model, x, *rest)
        return wrapped

    monkeypatch.setattr(ALNetwork, "predict", spy(ALNetwork.predict))
    monkeypatch.setattr(BPNetwork, "predict", spy(BPNetwork.predict))
    return rows


@pytest.mark.parametrize("budget,rows", [(16 * 5, 5), (8, 1)],
                         ids=["capped", "wider-than-budget"])
def test_capped_evaluation_equals_whole_array(monkeypatch, chunk_rows,
                                              budget, rows):
    # The blobs models' widest layer output is 16. A budget of 80
    # elements caps a chunk at 5 rows; a budget of 8 is below one row of
    # that layer, so every pass runs one row at a time.
    al_net = build_network(get_plan("blobs"), make_rng(43))
    bp_net = BPNetwork([8, 16, 6, 4], make_rng(44), feature_layer=2)
    ds = blob_fixture(seed=45, n=23)
    monkeypatch.setattr(metrics, "EVAL_ELEMS", budget)
    expected_rows = [min(rows, 23 - i) for i in range(0, 23, rows)]
    for model in (al_net, bp_net):
        whole = accuracy(model.predict(ds.X)[1], ds.y)
        chunk_rows.clear()
        assert evaluate(model, ds, chunk=4096) == whole
        assert chunk_rows == expected_rows
        assert evaluate(model, ds, chunk=rows) == whole
        assert np.array_equal(features(model, ds.X, chunk=4096),
                              features(model, ds.X, chunk=rows))
        # BLAS may round a product of fewer rows differently in the last
        # bits, so the whole-array features agree to rounding only.
        assert np.allclose(features(model, ds.X, chunk=4096),
                           model.features(ds.X), rtol=0, atol=1e-12)


# class geometry -------------------------------------------------------

def test_geometry_hand_oracle():
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    geo = class_geometry(feats, labels)
    assert abs(geo.intra_class - 2.0) < 1e-12
    assert abs(geo.inter_class - 10.0) < 1e-12
    assert abs(geo.ratio - 5.0) < 1e-12


def test_geometry_all_singletons_rejected():
    feats = np.array([[0.0, 0.0], [3.0, 4.0]])
    with pytest.raises(GeometryError, match="singleton"):
        class_geometry(feats, np.array([0, 1]))


def test_geometry_single_class_rejected():
    with pytest.raises(GeometryError, match="at least 2"):
        class_geometry(np.zeros((4, 2)), np.zeros(4, dtype=int))


def test_geometry_zero_intra_rejected():
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 0.0]])
    with pytest.raises(GeometryError, match="zero"):
        class_geometry(feats, np.array([0, 0, 1, 1]))


def test_geometry_translation_invariance():
    rng = make_rng(10)
    feats = rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)
    base = class_geometry(feats, labels)
    moved = class_geometry(feats + np.array([[5.0, -2.0, 0.5, 9.0, -1.0]]),
                           labels)
    assert abs(base.inter_class - moved.inter_class) < 1e-9
    assert abs(base.intra_class - moved.intra_class) < 1e-9
    assert abs(base.ratio - moved.ratio) < 1e-9


def test_geometry_rotation_invariance():
    rng = make_rng(11)
    feats = rng.normal(size=(30, 5))
    labels = rng.integers(0, 3, size=30)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    base = class_geometry(feats, labels)
    rotated = class_geometry(feats @ Q, labels)
    assert abs(base.inter_class - rotated.inter_class) < 1e-9
    assert abs(base.intra_class - rotated.intra_class) < 1e-9
    assert abs(base.ratio - rotated.ratio) < 1e-9


def test_geometry_singletons_excluded_not_zeroed():
    # class 2 has one point; intra must stay the two-point mean, not drop
    feats = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 0.0], [12.0, 0.0],
                      [50.0, 50.0]])
    labels = np.array([0, 0, 1, 1, 2])
    geo = class_geometry(feats, labels)
    assert abs(geo.intra_class - 2.0) < 1e-12


def test_geometry_pairing_validation():
    with pytest.raises(ShapeError):
        class_geometry(np.zeros((3, 2)), np.zeros(4, dtype=int))


def test_geometry_report_keys():
    ds = blob_fixture(seed=12)
    net = build_network(get_plan("blobs"), make_rng(13))
    bp = BPNetwork([8, 6, 4], make_rng(14))
    assert set(geometry_report(ds, net)) == {"raw", "al"}
    assert set(geometry_report(ds, bp)) == {"raw", "bp"}
    report = {**geometry_report(ds, net), **geometry_report(ds, bp)}
    for part in report.values():
        assert set(part) == {"inter_class", "intra_class", "ratio"}
        geo = ClassGeometry(**part)
        assert geo.ratio == pytest.approx(geo.inter_class / geo.intra_class)


# records and emission -------------------------------------------------

def test_record_rejects_bad_accuracy():
    with pytest.raises(ValueError, match="accuracy"):
        MetricsRecord(epoch=0, mode="al-seq", mse1=[], mse2=[],
                      test_accuracy=1.5)


def test_record_rejects_negative_loss():
    with pytest.raises(ValueError, match="negative"):
        MetricsRecord(epoch=0, mode="al-seq", mse1=[-0.1], mse2=[])


def test_csv_header_schema():
    assert csv_header(2) == ["epoch", "mode", "train_loss",
                             "train_accuracy", "test_accuracy",
                             "mse1_c1", "mse1_c2", "mse2_c1", "mse2_c2"]


def test_record_row_fills_missing_components_with_blanks():
    rec = MetricsRecord(epoch=3, mode="bp", mse1=[], mse2=[],
                        train_loss=0.5, train_accuracy=0.9,
                        test_accuracy=0.8, wall_clock=12.5)
    row = record_row(rec, 2)
    assert row == ["3", "bp", "0.5", "0.9", "0.8", "", "", "", ""]


def test_csv_writing_deterministic(tmp_path):
    records = [
        MetricsRecord(epoch=0, mode="al-seq", mse1=[0.25, 0.125],
                      mse2=[0.5, 0.0625], train_loss=0.875,
                      train_accuracy=0.5, test_accuracy=0.4375,
                      wall_clock=1.23),
        MetricsRecord(epoch=1, mode="al-seq", mse1=[0.2, 0.1],
                      mse2=[0.4, 0.05], train_loss=0.75,
                      train_accuracy=0.625, test_accuracy=0.5,
                      wall_clock=4.56),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(a, records, 2)
    # different wall clock must not leak into the file
    records[0].wall_clock = 99.9
    write_metrics_csv(b, records, 2)
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == ",".join(csv_header(2))
