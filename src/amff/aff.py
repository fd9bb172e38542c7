"""Adaptive fusion of the three scale features.

Each sample's three feature vectors form a (3, D) stack; a batch is a
(B, 3, D) tensor.  Every row goes through a shared two-layer perceptron
(linear, ReLU, linear), and a softmax across the scale axis turns each
feature channel's three logits into convex weights.  The fused feature
is the per-channel weighted sum, so it always lies inside the min/max
envelope of its inputs.  Both passes are hand-derived; the backward
includes the softmax Jacobian and sums the shared-weight gradients over
the three rows of every sample in the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import Array, affine_forward, softmax

_SIMPLEX_TOL = 1e-12


class Block(NamedTuple):
    """Two affine layers, ``dim -> hidden -> out``, with a ReLU between them.

    The weights generator (``out == dim``), a score head (``out == 1``) or their gradients.
    """

    w1: Array  # (hidden, dim)
    b1: Array  # (hidden,)
    w2: Array  # (out, hidden)
    b2: Array  # (out,)

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class AffCache:
    """Forward intermediates required by the backward pass."""

    stacked: Array  # (B, 3, dim) rows: 0.5x, 1.0x, 1.5x features
    pre1: Array     # (B, 3, hidden) first-layer pre-activations
    hidden: Array   # (B, 3, hidden) ReLU outputs
    weights: Array  # (B, 3, dim) per-channel simplex over the scale axis


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_aff_params(dim: int, hidden: int = 256, rng: np.random.Generator | None = None) -> Block:
    """Glorot-uniform weights, zero biases; initial fusion weights ~ 1/3."""
    if rng is None:
        raise ValueError("init_aff_params requires an explicit rng")
    return Block(
        w1=glorot_uniform(rng, hidden, dim),
        b1=np.zeros(hidden),
        w2=glorot_uniform(rng, dim, hidden),
        b2=np.zeros(dim),
    )


def aff_forward(stacked: Array, params: Block) -> tuple[Array, AffCache]:
    """Fuse each sample's (3, D) scale stack into one (D,) vector.

    ``stacked`` is (B, 3, D) with rows 0.5x, 1.0x, 1.5x; returns the
    (B, D) fused features.
    """
    if stacked.ndim != 3 or stacked.shape[1:] != (3, params.dim):
        raise ShapeError(
            f"aff_forward: expected (B, 3, {params.dim}) scale features, got {stacked.shape}"
        )
    pre1 = affine_forward(params.w1, params.b1, stacked)     # (B, 3, h)
    hidden = np.maximum(pre1, 0.0)
    logits = affine_forward(params.w2, params.b2, hidden)    # (B, 3, D)
    weights = softmax(logits, axis=1)

    col_sums = weights.sum(axis=1)
    if np.any(weights < 0.0) or np.max(np.abs(col_sums - 1.0)) > _SIMPLEX_TOL:
        raise NumericError("aff_forward: scale weights left the simplex")

    fused = (weights * stacked).sum(axis=1)
    return fused, AffCache(stacked, pre1, hidden, weights)


def aff_backward(cache: AffCache, params: Block, d_fused: Array) -> tuple[Block, Array]:
    """Exact gradients of a scalar loss w.r.t. params and the inputs.

    ``d_fused`` is the (B, D) upstream gradient w.r.t. the fused
    features.  Parameter gradients are summed over the batch; the
    (B, 3, D) input gradient gives each row a direct mixing term (its
    fusion weight times the upstream gradient) plus the path back
    through the weights generator.
    """
    stacked, weights = cache.stacked, cache.weights
    if d_fused.shape != (stacked.shape[0], params.dim) or stacked.shape[2] != params.dim:
        raise ShapeError(
            f"aff_backward: d_fused {d_fused.shape} does not match cache {stacked.shape} "
            f"and params dim {params.dim}"
        )
    d_weights = d_fused[:, None, :] * stacked        # (B, 3, D)

    # Softmax Jacobian per channel (each sample's columns are independent 3-simplices).
    inner = (weights * d_weights).sum(axis=1, keepdims=True)
    d_logits = weights * (d_weights - inner)

    # Shared weights: every (sample, row) pair is one more use of the layer.
    d_logits_flat = d_logits.reshape(-1, params.dim)
    db2 = d_logits_flat.sum(axis=0)
    dw2 = d_logits_flat.T @ cache.hidden.reshape(-1, params.hidden)  # (D, h)
    d_pre1 = (d_logits @ params.w2) * (cache.pre1 > 0.0)             # (B, 3, h)
    d_pre1_flat = d_pre1.reshape(-1, params.hidden)
    db1 = d_pre1_flat.sum(axis=0)
    dw1 = d_pre1_flat.T @ stacked.reshape(-1, params.dim)            # (h, D)
    d_stacked = d_pre1 @ params.w1                                   # weights-generator path

    d_inputs = weights * d_fused[:, None, :] + d_stacked
    return Block(dw1, db1, dw2, db2), d_inputs
