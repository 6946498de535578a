"""BLAS thread policy: thread-count-invariant training products, and the
one-thread pin of a pipelined epoch that always restores the caller's
thread count."""

import numpy as np
import pytest

from assoclearn import blas, train
from assoclearn.al_core import build_network, get_plan
from assoclearn.data import one_hot, synth_blobs
from assoclearn.errors import NumericError
from assoclearn.linalg import make_rng
from assoclearn.nn import DenseLayer

requires_openblas = pytest.mark.skipif(
    blas.threads() is None,
    reason="no OpenBLAS thread control found in the BLAS numpy loaded, "
           "so the thread count cannot be set or observed")


def training_layer_shapes(plan_names):
    """Every distinct (fan_in, fan_out) of the plans' f/g/b/h layers."""
    shapes = set()
    for name in plan_names:
        for cp in get_plan(name).components:
            for chain in (cp.f, cp.g, cp.b, cp.h):
                shapes.update(zip(chain, chain[1:]))
    return sorted(shapes)


def layer_products(fan_in, fan_out, batch=128):
    """Forward output, grad_W and input gradient of one training step;
    identity activation, so these are the three products themselves."""
    rng = make_rng(fan_in * 100003 + fan_out)
    layer = DenseLayer(fan_in, fan_out, rng=rng)
    x = rng.standard_normal((batch, fan_in))
    out = layer.forward(x, train=True)
    grad_in = layer.backward(rng.standard_normal((batch, fan_out)))
    return out, layer.grad_W, grad_in


@requires_openblas
@pytest.mark.parametrize(
    "fan_in,fan_out",
    training_layer_shapes(["desk-mlp", "desk-3", "reference-mlp"]))
def test_training_products_same_bytes_at_one_and_two_threads(fan_in,
                                                             fan_out):
    results = []
    for n in (1, 2):
        with blas.pinned_threads(n):
            if blas.threads() != n:
                pytest.skip(f"OpenBLAS did not accept {n} threads")
            results.append(layer_products(fan_in, fan_out))
    for label, a, b in zip(("forward", "grad_W", "input grad"), *results):
        assert a.tobytes() == b.tobytes(), label


def pipe_setup(fail: bool):
    net = build_network(get_plan("blobs"), make_rng(30))
    if fail:
        net.components[1].f.layers[0].W[:] = np.nan
    ds = synth_blobs(40, 8, 4, separation=6.0, rng=make_rng(31))
    return net, ds.X, one_hot(ds.y, 4)


@requires_openblas
@pytest.mark.parametrize("fail", [False, True], ids=["clean", "stage-fails"])
def test_pipelined_epoch_restores_caller_blas_threads(monkeypatch, fail):
    net, X, y1 = pipe_setup(fail)
    inside = []
    update = train.component_update

    def recording_update(*args):
        inside.append(blas.threads())
        return update(*args)

    monkeypatch.setattr(train, "component_update", recording_update)
    with blas.pinned_threads(2):
        caller = blas.threads()
        if fail:
            with pytest.raises(NumericError,
                               match="non-finite values in component 2"):
                train.train_epoch(net, X, y1, 8, make_rng(32), 1, "al-pipe")
        else:
            train.train_epoch(net, X, y1, 8, make_rng(32), 1, "al-pipe")
        assert blas.threads() == caller
    assert inside and set(inside) == {1}


def test_without_thread_control_the_epoch_runs_unpinned(monkeypatch):
    monkeypatch.setattr(blas, "_thread_functions", lambda: None)
    assert blas.threads() is None
    net, X, y1 = pipe_setup(fail=False)
    rec, _ = train.train_epoch(net, X, y1, 8, make_rng(32), 1, "al-pipe")
    assert np.isfinite(rec.train_loss)
