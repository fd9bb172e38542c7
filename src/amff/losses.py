"""Training objectives: pairwise fidelity loss and per-task MSE.

The fidelity loss compares every ordered pair in a mini-batch.  Ground
truth preferences are binary (`gt_i >= gt_j`), predicted preferences
come from the Thurstone Case V model, Phi((s_i - s_j) / sqrt(2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .tensor import Array, as_vector

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# erfc keeps the tail mass accurate where 1 - Phi would underflow.
_erfc = np.vectorize(math.erfc, otypes=[np.float64])
# Floor inside sqrt denominators; the Gaussian pdf factor underflows to
# zero long before 1/sqrt(_TINY) can overflow, so no inf*0 appears.
_TINY = 1e-300


@dataclass(frozen=True)
class BatchScores:
    """Predictions and ground truths for one task over a mini-batch."""

    preds: Array
    gts: Array

    def __post_init__(self):
        preds = as_vector(self.preds, "preds")
        gts = as_vector(self.gts, "gts")
        if preds.size != gts.size:
            raise DataError(f"batch: {preds.size} preds vs {gts.size} gts")
        object.__setattr__(self, "preds", preds)
        object.__setattr__(self, "gts", gts)

    @property
    def n(self) -> int:
        return self.preds.size


def thurstone_prob(s_i: float, s_j: float) -> float:
    """P(item i preferred over item j) under Thurstone Case V."""
    # Phi((s_i - s_j)/sqrt(2)) written via erfc for accurate tails.
    return 0.5 * math.erfc(-(s_i - s_j) / 2.0)


def fidelity_loss(batch: BatchScores) -> tuple[float, Array]:
    """Pairwise ranking loss over all ordered pairs of a mini-batch.

    Returns the loss and its gradient w.r.t. the predictions.  Diagonal
    pairs are excluded: they contribute the constant 1 - sqrt(1/2) with
    exactly zero gradient, so dropping them only shifts reported values
    by a constant while the 1/N^2 normalization is kept.
    """
    n = batch.n
    if n < 2:
        raise DataError(f"fidelity_loss: need at least 2 samples, got {n}")
    preds, gts = batch.preds, batch.gts

    diff = preds[:, None] - preds[None, :]
    p_hat = 0.5 * _erfc(-diff / 2.0)
    # Accurate 1 - p_hat without a second erfc pass: a - b == -(b - a)
    # exactly in IEEE arithmetic, so diff is antisymmetric bit for bit and
    # entry (i, j) of 0.5 * erfc(diff / 2) is entry (j, i) of p_hat.
    p_hat_c = p_hat.T
    prefer = gts[:, None] >= gts[None, :]

    term = np.where(prefer, 1.0 - np.sqrt(p_hat), 1.0 - np.sqrt(p_hat_c))
    np.fill_diagonal(term, 0.0)
    loss = float(term.sum()) / (n * n)

    # d(term)/d(p_hat), with the binary preference selecting the branch.
    dterm = np.where(
        prefer,
        -0.5 / np.sqrt(np.maximum(p_hat, _TINY)),
        0.5 / np.sqrt(np.maximum(p_hat_c, _TINY)),
    )
    pdf = np.exp(-0.25 * diff * diff) / _SQRT2PI  # N(0,1) pdf at diff/sqrt(2)
    grad_pair = dterm * pdf / _SQRT2
    np.fill_diagonal(grad_pair, 0.0)
    dpreds = (grad_pair.sum(axis=1) - grad_pair.sum(axis=0)) / (n * n)
    return loss, dpreds


def mse_loss(batch: BatchScores) -> tuple[float, Array]:
    """Mean squared error and its gradient w.r.t. the predictions."""
    n = batch.n
    r = batch.preds - batch.gts
    loss = float(r @ r) / n
    return loss, 2.0 * r / n


@dataclass(frozen=True)
class LossBundle:
    """Combined objective: sum of the present per-task components."""

    l_c: float
    l_v: float
    l_a: float
    total: float
    d_consistency: Array | None
    d_quality: Array | None
    d_authenticity: Array | None


def total_loss(
    consistency: BatchScores | None,
    quality: BatchScores | None,
    authenticity: BatchScores | None,
) -> LossBundle:
    """Unweighted sum of the per-task losses; masked tasks contribute 0."""
    present = [b for b in (consistency, quality, authenticity) if b is not None]
    if not present:
        raise DataError("total_loss: all components masked")
    sizes = {b.n for b in present}
    if len(sizes) != 1:
        raise DataError(f"total_loss: mismatched batch sizes {sorted(sizes)}")

    l_c, d_c = fidelity_loss(consistency) if consistency is not None else (0.0, None)
    l_v, d_v = mse_loss(quality) if quality is not None else (0.0, None)
    l_a, d_a = mse_loss(authenticity) if authenticity is not None else (0.0, None)
    total = l_c + l_v + l_a
    if not np.isfinite(total):
        raise NumericError("total_loss: non-finite loss")
    return LossBundle(l_c, l_v, l_a, total, d_c, d_v, d_a)
