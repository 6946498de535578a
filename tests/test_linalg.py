import numpy as np
import pytest

from assoclearn.errors import NumericError, ShapeError
from assoclearn.linalg import (
    ensure_finite,
    he_normal_init,
    make_rng,
    matmul,
    row_argmax,
    spawn_rngs,
)


def test_matmul_identity():
    a = np.array([[1.5, -2.0], [0.25, 7.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_hand_oracle():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b), np.array([[2.0], [4.0]]))


def test_matmul_zero_annihilation():
    assert np.array_equal(matmul(np.zeros((2, 3)), np.ones((3, 1))),
                          np.zeros((2, 1)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    assert "(2, 3)" in str(exc.value)


def test_matmul_associativity():
    rng = make_rng(42)
    for _ in range(10):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 6))
        c = rng.normal(size=(6, 3))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        denom = np.maximum(1.0, np.abs(left))
        assert (np.abs(left - right) / denom).max() < 1e-9


def test_he_init_statistics():
    rng = make_rng(123)
    w = he_normal_init(100, 1000, rng)
    assert abs(float(w.mean())) < 0.01
    assert abs(float(w.var()) - 0.02) < 0.002


def test_he_init_deterministic():
    w1 = he_normal_init(8, 8, make_rng(5))
    w2 = he_normal_init(8, 8, make_rng(5))
    assert np.array_equal(w1, w2)


def test_he_init_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        he_normal_init(0, 4, make_rng(0))


def test_row_argmax_tie_breaks_low():
    assert row_argmax(np.array([[0.2, 0.5, 0.5]])).tolist() == [1]


def test_row_argmax_batch():
    got = row_argmax(np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]]))
    assert got.tolist() == [0, 1, 0]


def test_rng_same_seed_same_sequence():
    assert make_rng(99).random(16).tolist() == make_rng(99).random(16).tolist()


def test_spawned_streams_differ():
    a, b = spawn_rngs(0, 2)
    assert a.random(8).tolist() != b.random(8).tolist()


def test_spawn_deterministic():
    a1, b1 = spawn_rngs(3, 2)
    a2, b2 = spawn_rngs(3, 2)
    assert np.array_equal(a1.random(4), a2.random(4))
    assert np.array_equal(b1.random(4), b2.random(4))


def test_ensure_finite_flags_nan_with_context():
    bad = np.array([[1.0, float("nan")]])
    with pytest.raises(NumericError) as exc:
        ensure_finite(bad, "unit test tensor")
    assert "unit test tensor" in str(exc.value)


def test_ensure_finite_flags_inf():
    with pytest.raises(NumericError):
        ensure_finite(np.array([[float("inf")]]), "x")
