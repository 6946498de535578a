"""Shared fixtures: dataset availability probing and small nets.

The image-digit dataset cannot be fetched inside the build sandbox, so
every test that needs the real files first looks for them under
AL_DATA_DIR and skips with an explicit reason when they are absent.

``given_layer`` builds a dense layer holding given tensors the one way
the package offers: a layer built from an rng, then ``nn.set_params``.
``params`` lists a model's tensors the one way the package offers:
``nn.param_items`` over its ``named_layers()``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from assoclearn import nn
from assoclearn.data import load_mnist, mnist_subset
from assoclearn.linalg import make_rng


def _find_mnist_dir() -> Path | None:
    root = os.environ.get("AL_DATA_DIR")
    if not root:
        return None
    root = Path(root)
    if not root.is_dir():
        return None
    try:
        from assoclearn.data import _find_idx_file, _MNIST_FILES
        for img, lab in _MNIST_FILES.values():
            _find_idx_file(root, img)
            _find_idx_file(root, lab)
    except Exception:
        return None
    return root


MNIST_DIR = _find_mnist_dir()

requires_mnist = pytest.mark.skipif(
    MNIST_DIR is None,
    reason="MNIST IDX files not available: set AL_DATA_DIR to a directory "
           "with the four ubyte files (the build sandbox has no network "
           "route to any dataset mirror)")


@pytest.fixture(scope="session")
def mnist_full():
    if MNIST_DIR is None:
        pytest.skip("MNIST data not available")
    return load_mnist(MNIST_DIR)


@pytest.fixture(scope="session")
def mnist_desk(mnist_full):
    train, test = mnist_full
    return mnist_subset(train, test, seed=0)


def given_layer(W, bias=None, activation="identity"):
    """A DenseLayer holding copies of W and bias (zeros when None)."""
    fan_in, fan_out = np.shape(W)
    layer = nn.DenseLayer(fan_in, fan_out, activation, rng=make_rng(0))
    nn.set_params([("given", layer)],
                  [W, np.zeros(fan_out) if bias is None else bias])
    return layer


def params(model):
    """(name, tensor) of every parameter of model, in checkpoint order."""
    return nn.param_items(model.named_layers())
