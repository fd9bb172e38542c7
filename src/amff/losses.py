"""Training objectives: pairwise fidelity loss, per-task MSE and their sum.

The fidelity loss compares every ordered pair in a mini-batch.  Ground
truth preferences are binary (`gt_i >= gt_j`), predicted preferences
come from the Thurstone Case V model, Phi((s_i - s_j) / sqrt(2)).
``total_loss`` combines them over the model's (B, 3) score block, whose
columns are in ``dataio.TASKS`` order: fidelity for consistency, MSE for
quality and authenticity, each enabled by a task mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .tensor import Array

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# erfc keeps the tail mass accurate where 1 - Phi would underflow.
_erfc = np.vectorize(math.erfc, otypes=[np.float64])
# Floor inside sqrt denominators; the Gaussian pdf factor underflows to
# zero long before 1/sqrt(_TINY) can overflow, so no inf*0 appears.
_TINY = 1e-300


def fidelity_loss(preds: Array, gts: Array) -> tuple[float, Array]:
    """Pairwise ranking loss over all ordered pairs of a mini-batch.

    ``preds`` and ``gts`` are one task's score and target columns.
    Returns the loss and its gradient w.r.t. the predictions.  Diagonal
    pairs are excluded: they contribute the constant 1 - sqrt(1/2) with
    exactly zero gradient, so dropping them only shifts reported values
    by a constant while the 1/N^2 normalization is kept.
    """
    n = preds.size
    if gts.size != n:
        raise DataError(f"fidelity_loss: {n} predictions vs {gts.size} targets")
    if n < 2:
        raise DataError(f"fidelity_loss: need at least 2 samples, got {n}")

    diff = preds[:, None] - preds[None, :]
    # q is the predicted probability of each pair's observed order: p_hat
    # where gt_i >= gt_j, else 1 - p_hat = 0.5 * erfc(diff / 2), which keeps
    # its tail accurate without a second erfc pass.
    sign = np.where(gts[:, None] >= gts[None, :], 1.0, -1.0)
    q = 0.5 * _erfc(-sign * diff / 2.0)
    term = 1.0 - np.sqrt(q)
    np.fill_diagonal(term, 0.0)
    loss = float(term.sum()) / (n * n)

    # d(term)/d(p_hat); dq/dp_hat is the sign.
    dterm = -sign * 0.5 / np.sqrt(np.maximum(q, _TINY))
    pdf = np.exp(-0.25 * diff * diff) / _SQRT2PI  # N(0,1) pdf at diff/sqrt(2)
    grad_pair = dterm * pdf / _SQRT2
    np.fill_diagonal(grad_pair, 0.0)
    dpreds = (grad_pair.sum(axis=1) - grad_pair.sum(axis=0)) / (n * n)
    return loss, dpreds


def mse_loss(preds: Array, gts: Array) -> tuple[float, Array]:
    """Mean squared error of one task's columns and its gradient w.r.t. the predictions."""
    n = preds.size
    if gts.size != n:
        raise DataError(f"mse_loss: {n} predictions vs {gts.size} targets")
    r = preds - gts
    loss = float(r @ r) / n
    return loss, 2.0 * r / n


@dataclass(frozen=True)
class LossBundle:
    """Combined objective over a (B, 3) score block, tasks in ``TASKS`` order.

    ``losses`` holds the three per-task losses (0 for an inactive task),
    ``total`` their sum and ``grad`` the (B, 3) gradient w.r.t. the
    scores, whose inactive columns are exactly 0.
    """

    losses: Array
    total: float
    grad: Array


# The loss of each score column: fidelity ranks consistency, MSE regresses the heads.
_TASK_LOSSES = (fidelity_loss, mse_loss, mse_loss)


def total_loss(scores: Array, targets: Array, active) -> LossBundle:
    """Unweighted sum of the active tasks' losses; inactive tasks contribute 0.

    ``scores`` and ``targets`` are (B, 3) blocks and ``active`` is a
    length-3 boolean task mask; an inactive column's targets are not read.
    A non-finite score or target in an active column is an error: the
    pairwise loss alone would not show it, as an infinite score in a
    two-row batch gives a finite loss.
    """
    if scores.shape != targets.shape or scores.shape[1:] != (3,) or not len(scores) or len(active) != 3:
        raise DataError(f"total_loss: scores {scores.shape}, targets {targets.shape}, mask of {len(active)}")
    if not any(active):
        raise DataError("total_loss: all components masked")
    columns = np.flatnonzero(active)
    if not (np.isfinite(scores[:, columns]).all() and np.isfinite(targets[:, columns]).all()):
        raise NumericError("total_loss: non-finite score or target in an active column")
    losses, grad = np.zeros(3), np.zeros(scores.shape)
    for k in columns:
        losses[k], grad[:, k] = _TASK_LOSSES[k](scores[:, k], targets[:, k])
    total = float(losses[0] + losses[1] + losses[2])
    if not math.isfinite(total):
        raise NumericError("total_loss: non-finite loss")
    return LossBundle(losses, total, grad)
