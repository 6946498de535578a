"""Dense matrix arithmetic, seeded RNG, and weight initializers.

Every tensor in this package is a dense 2-D ``numpy.ndarray``, batch-major
(rows are samples). ``DTYPE`` is the dtype tensors are born with: only
``he_normal_init`` here and ``data``, where inputs enter, read it. Compute
follows its operands, so every array made from these tensors has their
dtype. numpy supplies the arithmetic; this module adds the shape
validation, the documented deterministic RNG, and the initializers the
rest of the package builds on.

The RNG is numpy's PCG64, wrapped so that the same 64-bit seed yields the
same stream on every platform and run.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float64

Matrix = np.ndarray
Rng = np.random.Generator


def make_rng(seed: int) -> Rng:
    """Deterministic generator (PCG64) for the given seed."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rngs(seed: int, n: int) -> list[Rng]:
    """n independent deterministic streams derived from one seed."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


def _require_2d(name: str, a: Matrix) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix")


def matmul(a: Matrix, b: Matrix, sliced: bool = False) -> Matrix:
    """Matrix product; raises ShapeError naming both shapes on mismatch.

    With sliced, the product is sliced_matmul's, whose bits do not
    depend on the BLAS thread count.
    """
    _require_2d("a", a)
    _require_2d("b", b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    return sliced_matmul(a, b) if sliced else a @ b


# OpenBLAS blocks an inner dimension above this width differently in its
# threaded and one-thread drivers, so a @ b can differ in the last bits
# between thread counts; up to this width both drivers compute the same
# sums in the same order.
K_SLICE = 256


def sliced_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b with the inner dimension summed in K_SLICE-wide slices, in
    order, so the bits are the same at any BLAS thread count. Training
    uses it for every product, which keeps a pipeline whose stage threads
    run BLAS on one thread each bit-identical to a sequential run on the
    default thread count."""
    k = a.shape[1]
    out = a[:, :K_SLICE] @ b[:K_SLICE]
    for lo in range(K_SLICE, k, K_SLICE):
        out += a[:, lo:lo + K_SLICE] @ b[lo:lo + K_SLICE]
    return out


def row_argmax(a: Matrix) -> np.ndarray:
    """Index of the max entry per row; ties break toward the lowest index."""
    _require_2d("a", a)
    return np.argmax(a, axis=1)


def he_normal_init(rows: int, cols: int, rng: Rng) -> Matrix:
    """He normal initializer: i.i.d. Normal(0, 2/fan_in) with fan_in = rows.
    The draw is returned as it is when it already has DTYPE, not copied."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"he_normal_init: invalid size {rows}x{cols}")
    std = np.sqrt(2.0 / rows)
    return rng.normal(0.0, std, size=(rows, cols)).astype(DTYPE, copy=False)


def ensure_finite(a: Matrix, context: str) -> Matrix:
    """Raise NumericError if the matrix holds NaN or Inf."""
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {context}")
    return a
