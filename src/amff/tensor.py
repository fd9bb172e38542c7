"""Dense float64 primitives shared by every differentiable module.

Vectors are 1-D float64 ndarrays, matrices are row-major 2-D float64
ndarrays, and batches carry the sample index on their leading axis.
All gradients in this package are hand-derived, so the finite-difference
checker here is the single source of truth for their correctness.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray

# Every GEMM that ``affine_forward`` runs multiplies exactly this many rows.
_BLOCK_ROWS = 64

# The step of every central difference ``finite_diff_check`` takes.
_FD_STEP = 1e-5


def make_rng(seed) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed yields an identical stream.

    ``seed`` may be an int or a tuple of ints, the latter deriving an
    independent substream (used for per-epoch shuffling and similar).
    A negative or non-integer seed raises ``ConfigError``.
    """
    try:
        sequence = np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed {seed!r}: {exc}") from None
    return np.random.Generator(np.random.PCG64(sequence))


def as_vector(x, name: str = "vector") -> Array:
    """Validate and return ``x`` as a finite, non-empty 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"{name}: expected non-empty 1-D array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError(f"{name}: contains non-finite entries")
    return v


def affine_forward(w: Array, b: Array, x: Array) -> Array:
    """Return ``w @ v + b`` for every vector ``v`` along the last axis of ``x``.

    ``x`` is one vector ``(n,)``, a batch of vectors ``(B, n)`` or a batch
    of stacks ``(B, k, n)``; the leading axes index samples.  The vectors
    are flattened to rows, zero-padded to a whole number of
    ``_BLOCK_ROWS``-row blocks and multiplied block by block, so every
    BLAS call has the one shape ``(_BLOCK_ROWS, n) @ (n, out)`` whatever
    the batch size.  A row's result is then bit-identical whatever else is
    batched with it on any BLAS whose fixed-shape GEMM computes each row
    independently of its neighbours; the batch-invariance property test
    in ``tests/test_scoring.py`` checks that on the BLAS at hand.  A
    minimum pad is not enough: OpenBLAS picks its kernel by size, and the
    size at which rows start to differ depends on the layer's shape.
    """
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ShapeError(f"affine: w {w.shape} and b {b.shape} do not form a layer")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"affine: w has {w.shape[1]} columns but x has length {x.shape[-1]}")
    out, n = w.shape
    rows = math.prod(x.shape[:-1])
    padded = np.zeros((-(-rows // _BLOCK_ROWS) * _BLOCK_ROWS, n))
    padded[:rows] = x.reshape(rows, n)
    y = (padded.reshape(-1, _BLOCK_ROWS, n) @ w.T).reshape(-1, out)[:rows]
    return y.reshape(*x.shape[:-1], out) + b


def softmax(v: Array, axis: int = -1) -> Array:
    """Numerically stable softmax along ``axis``.

    The maximum entry is subtracted before exponentiation so saturated
    logits cannot overflow; every slice sums to 1 within 1e-12.
    """
    e = np.exp(v - v.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _round_half_up(x: float) -> int:
    """Nearest integer with halves rounded up, unlike ``round``'s half-to-even."""
    return int(np.floor(x + 0.5))


def finite_diff_check(f: Callable[[Array], float], x: Array, analytic_grad: Array) -> float:
    """Compare an analytic gradient against central finite differences of step ``_FD_STEP``.

    Returns the maximum over coordinates of
    ``|central_difference - analytic| / max(1, |analytic|)``.
    Central differences are used for their O(step^2) truncation error.
    """
    x = as_vector(x, "x")
    g = as_vector(analytic_grad, "analytic_grad")
    if x.shape != g.shape:
        raise ShapeError(f"finite_diff_check: x {x.shape} vs grad {g.shape}")
    worst = 0.0
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = _FD_STEP
        hi = float(f(x + step))
        lo = float(f(x - step))
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"finite_diff_check: f non-finite at coordinate {k}")
        cd = (hi - lo) / (2.0 * _FD_STEP)
        err = abs(cd - g[k]) / max(1.0, abs(g[k]))
        worst = max(worst, err)
    return worst
