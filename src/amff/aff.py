"""The two-layer perceptron and the adaptive fusion of the three scale features.

One perceptron (linear, ReLU, linear) serves the fusion's weights
generator and both score heads; only its output width differs.  It maps
every vector along the last axis of its input, and its backward sums the
shared-weight gradients over every leading index.

Each sample's three feature vectors form a (3, D) stack; a batch is a
(B, 3, D) tensor.  The weights generator maps every row to D logits,
and a softmax across the scale axis turns each feature channel's three
logits into convex weights.  The fused feature is the per-channel
weighted sum, so it always lies inside the min/max envelope of its
inputs.  Both passes are hand-derived; the fusion backward includes the
softmax Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeError
from .tensor import Array, affine_forward, softmax


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
class MlpCache:
    """Perceptron forward intermediates required by the backward pass."""

    x: Array       # (..., dim) input
    hidden: Array  # (..., hidden) ReLU outputs, positive exactly where the pre-activations are


@dataclass(frozen=True)
class AffCache:
    """Forward intermediates required by the backward pass."""

    generator: MlpCache  # x holds the (B, 3, dim) rows: 0.5x, 1.0x, 1.5x features
    weights: Array       # (B, 3, dim) per-channel simplex over the scale axis


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_block(dim: int, hidden: int, out: int, rng: np.random.Generator) -> Block:
    """Glorot-uniform weights (``w1`` drawn first), zero biases."""
    return Block(
        w1=glorot_uniform(rng, hidden, dim),
        b1=np.zeros(hidden),
        w2=glorot_uniform(rng, out, hidden),
        b2=np.zeros(out),
    )


def mlp_forward(params: Block, x: Array) -> tuple[Array, MlpCache]:
    """Map every ``dim`` vector along the last axis of ``x`` to an ``out`` vector.

    ``x`` is ``(..., dim)`` with samples on the leading axis; the output is
    ``(..., out)``.
    """
    if x.shape[-1:] != (params.dim,):
        raise ShapeError(f"mlp_forward: expected (..., {params.dim}) input, got {x.shape}")
    hidden = affine_forward(params.w1, params.b1, x)
    np.maximum(hidden, 0.0, out=hidden)  # in place: affine_forward returns a fresh array
    return affine_forward(params.w2, params.b2, hidden), MlpCache(x, hidden)


def mlp_backward(cache: MlpCache, params: Block, dy: Array, out: Block | None = None) -> tuple[Block, Array]:
    """Gradients for the upstream ``dy`` of the output's shape, including the ReLU mask.

    Parameter gradients are summed over every leading index (each one is
    another use of the shared weights) and written into ``out`` when it is
    given, fresh arrays otherwise; the input gradient has the input's
    shape.  ``dy`` is made contiguous first: BLAS rounds a strided upstream
    differently in the last bits for some batch sizes.
    """
    x = cache.x
    if x.shape[-1] != params.dim or dy.shape != (*x.shape[:-1], params.w2.shape[0]):
        raise ShapeError(f"mlp_backward: dy {dy.shape} or cache {x.shape} does not match params")
    if out is None:
        out = Block(*map(np.empty_like, params))
    dy = np.ascontiguousarray(dy)
    dy_flat = dy.reshape(-1, dy.shape[-1])
    np.sum(dy_flat, axis=0, out=out.b2)
    np.matmul(dy_flat.T, cache.hidden.reshape(-1, params.hidden), out=out.w2)
    d_pre1 = (dy @ params.w2) * (cache.hidden > 0.0)                # (..., h)
    d_pre1_flat = d_pre1.reshape(-1, params.hidden)
    np.sum(d_pre1_flat, axis=0, out=out.b1)
    np.matmul(d_pre1_flat.T, x.reshape(-1, params.dim), out=out.w1)
    return out, d_pre1 @ params.w1


def aff_forward(stacked: Array, params: Block) -> tuple[Array, AffCache]:
    """Fuse each sample's (3, D) scale stack into one (D,) vector.

    ``stacked`` is (B, 3, D) with rows 0.5x, 1.0x, 1.5x; returns the
    (B, D) fused features.
    """
    if stacked.ndim != 3 or stacked.shape[1:] != (3, params.dim):
        raise ShapeError(
            f"aff_forward: expected (B, 3, {params.dim}) scale features, got {stacked.shape}"
        )
    logits, generator = mlp_forward(params, stacked)    # (B, 3, D)
    weights = softmax(logits, axis=1)
    fused = (weights * stacked).sum(axis=1)
    return fused, AffCache(generator, weights)


def aff_backward(cache: AffCache, params: Block, d_fused: Array, out: Block | None = None) -> tuple[Block, Array]:
    """Exact gradients of a scalar loss w.r.t. params and the inputs.

    ``d_fused`` is the (B, D) upstream gradient w.r.t. the fused
    features.  Parameter gradients are summed over the batch and written
    into ``out`` as ``mlp_backward`` does; the
    (B, 3, D) input gradient gives each row a direct mixing term (its
    fusion weight times the upstream gradient) plus the path back
    through the weights generator.
    """
    stacked, weights = cache.generator.x, cache.weights
    if d_fused.shape != (stacked.shape[0], params.dim) or stacked.shape[2] != params.dim:
        raise ShapeError(
            f"aff_backward: d_fused {d_fused.shape} does not match cache {stacked.shape} "
            f"and params dim {params.dim}"
        )
    d_weights = d_fused[:, None, :] * stacked        # (B, 3, D)

    # Softmax Jacobian per channel (each sample's columns are independent 3-simplices).
    inner = (weights * d_weights).sum(axis=1, keepdims=True)
    d_logits = weights * (d_weights - inner)

    grads, d_stacked = mlp_backward(cache.generator, params, d_logits, out)
    return grads, weights * d_fused[:, None, :] + d_stacked
