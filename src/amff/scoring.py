"""The similarity score and the full model forward/backward.

Two regression heads, each the ``aff`` perceptron with one output
(D -> 256 -> 1), predict visual quality and authenticity from the fused
feature; the consistency score is the similarity between the fused
feature and the text feature.
Cosine is the default similarity; negated Euclidean and Manhattan
distances are available so all three kinds share a higher-is-better
orientation.  Every function works on a batch: features are (B, D),
scores and their upstream gradients (B,), and parameter gradients are
summed over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .aff import AffCache, Block, MlpCache, aff_backward, aff_forward, glorot_uniform, mlp_backward, mlp_forward
from .errors import ConfigError, NumericError, ShapeError
from .tensor import Array

SIMILARITY_KINDS = ("cosine", "euclidean", "manhattan")


def similarity_score(f_img: Array, f_text: Array, kind: str = "cosine") -> tuple[Array, Array]:
    """Row-wise similarity of two (B, D) batches plus its gradient w.r.t. ``f_img``.

    Returns (B,) scores and the (B, D) gradient of each row's score.
    Euclidean and Manhattan scores are negated distances so that higher
    always means more consistent.
    """
    if f_img.ndim != 2 or f_img.shape != f_text.shape:
        raise ShapeError(f"similarity: expected two equal (B, D) batches, got {f_img.shape} vs {f_text.shape}")
    if kind == "cosine":
        ni = np.linalg.norm(f_img, axis=1, keepdims=True)
        nt = np.linalg.norm(f_text, axis=1, keepdims=True)
        if np.any(ni == 0.0) or np.any(nt == 0.0):
            raise NumericError("similarity: cosine undefined for zero-norm input")
        s = (f_img * f_text).sum(axis=1, keepdims=True) / (ni * nt)
        grad = (f_text / nt - s * f_img / ni) / ni
        return np.clip(s[:, 0], -1.0, 1.0), grad
    if kind == "euclidean":
        diff = f_img - f_text
        dist = np.linalg.norm(diff, axis=1, keepdims=True)
        grad = np.divide(-diff, dist, out=np.zeros_like(diff), where=dist > 0.0)
        return -dist[:, 0], grad
    if kind == "manhattan":
        diff = f_img - f_text
        return -np.abs(diff).sum(axis=1), -np.sign(diff)
    raise ConfigError(f"similarity: unknown kind {kind!r}")


@dataclass(frozen=True)
class ScoreTriple:
    """Model outputs, one (B,) array each: consistency, visual quality, authenticity."""

    s_c: Array
    s_v: Array
    s_a: Array


def param_layout(dim: int, hidden_aff: int, hidden_head: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter tensor, in buffer and checkpoint order."""
    blocks = (("aff", hidden_aff, dim), ("head_v", hidden_head, 1), ("head_a", hidden_head, 1))
    return [
        (f"{block}.{leaf}", shape)
        for block, hidden, out in blocks
        for leaf, shape in zip(Block._fields, ((hidden, dim), (hidden,), (out, hidden), (out,)))
    ]


class ModelParams:
    """Every learnable weight of the model in one contiguous float64 buffer.

    ``flat`` holds the tensors of ``param_layout`` back to back; ``aff``,
    ``head_v`` and ``head_a`` are blocks of views into it, so writing
    through a view writes the buffer.  Gradients and optimizer moments
    are containers of the same layout (``zeros_like``), which makes every
    whole-model update one operation on ``flat``.

    The container also names the model variant ``model_forward`` runs:
    the similarity kind, ``use_msi=False`` (the original-scale feature in
    all three fusion slots) and ``use_aff=False`` (the plain mean in
    place of the learned fusion).
    """

    def __init__(
        self,
        dim: int,
        hidden_aff: int,
        hidden_head: int,
        similarity: str = "cosine",
        use_msi: bool = True,
        use_aff: bool = True,
    ):
        if similarity not in SIMILARITY_KINDS:
            raise ConfigError(f"ModelParams: unknown similarity {similarity!r}")
        layout = param_layout(dim, hidden_aff, hidden_head)
        size = sum(math.prod(shape) for _, shape in layout)
        # BLAS multiplies by a weight matrix fastest when it starts on a 64-byte
        # boundary (about 1.4x for a (256, 512) aff.w1), so the buffer starts on one.
        buf = np.zeros(size + 7)
        skip = (-buf.ctypes.data % 64) // 8
        self.flat = buf[skip : skip + size]
        views, pos = [], 0
        for _, shape in layout:
            views.append(self.flat[pos : pos + math.prod(shape)].reshape(shape))
            pos += math.prod(shape)
        self.similarity, self.use_msi, self.use_aff = similarity, use_msi, use_aff
        self.aff, self.head_v, self.head_a = (Block(*views[k : k + 4]) for k in (0, 4, 8))

    @property
    def dim(self) -> int:
        return self.aff.dim

    def named_arrays(self) -> Iterator[tuple[str, Array]]:
        for block in ("aff", "head_v", "head_a"):
            for leaf, a in zip(Block._fields, getattr(self, block)):
                yield f"{block}.{leaf}", a

    def copy(self) -> "ModelParams":
        out = self.zeros_like()
        out.flat[:] = self.flat
        return out

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            self.dim, self.aff.hidden, self.head_v.hidden, self.similarity, self.use_msi, self.use_aff
        )

    def add_(self, other: "ModelParams") -> None:
        self.flat += other.flat


# Gradients are parameter containers; the second name stays only because
# bench/spans.py traces ``ModelGrads.add_``.
ModelGrads = ModelParams


def init_model_params(
    dim: int,
    rng: np.random.Generator,
    hidden_aff: int = 256,
    hidden_head: int = 256,
    similarity: str = "cosine",
    use_msi: bool = True,
    use_aff: bool = True,
) -> ModelParams:
    """Glorot-uniform weights and zero biases, drawn block by block in layout order."""
    params = ModelParams(dim, hidden_aff, hidden_head, similarity, use_msi, use_aff)
    for block in (params.aff, params.head_v, params.head_a):
        block.w1[...] = glorot_uniform(rng, *block.w1.shape)
        block.w2[...] = glorot_uniform(rng, *block.w2.shape)
    return params


@dataclass(frozen=True)
class ModelCache:
    fused: Array                # (B, D)
    aff_cache: AffCache | None  # None when fusion is the plain mean
    cache_v: MlpCache
    cache_a: MlpCache
    sim_grad: Array             # (B, D)


def model_forward(features: Array, params: ModelParams) -> tuple[ScoreTriple, ModelCache]:
    """Full forward pass of the variant ``params`` names: fuse scales, run both heads, score similarity.

    ``features`` is a (B, 4, D) block whose rows are f_text, f_05, f_10
    and f_15.
    """
    if features.ndim != 3 or features.shape[1:] != (4, params.dim):
        raise ShapeError(f"model_forward: expected (B, 4, {params.dim}) features, got {features.shape}")
    f_text = features[:, 0]
    trio = features[:, 1:] if params.use_msi else features[:, (2, 2, 2)]

    if params.use_aff:
        fused, aff_cache = aff_forward(trio, params.aff)
    else:
        fused = (trio[:, 0] + trio[:, 1] + trio[:, 2]) / 3.0
        aff_cache = None

    s_v, cache_v = mlp_forward(params.head_v, fused)
    s_a, cache_a = mlp_forward(params.head_a, fused)
    s_c, sim_grad = similarity_score(fused, f_text, params.similarity)
    cache = ModelCache(fused, aff_cache, cache_v, cache_a, sim_grad)
    return ScoreTriple(s_c, s_v[:, 0], s_a[:, 0]), cache


def model_backward(
    cache: ModelCache,
    params: ModelParams,
    ds_c: Array,
    ds_v: Array,
    ds_a: Array,
) -> ModelParams:
    """Gradients of ``sum(ds_c*S_C + ds_v*S_V + ds_a*S_A)`` w.r.t. all params.

    The upstream gradients are (B,), one entry per row of the forward's
    batch; the parameter gradients are summed over the batch.
    """
    grads_v, d_fused_v = mlp_backward(cache.cache_v, params.head_v, ds_v[:, None])
    grads_a, d_fused_a = mlp_backward(cache.cache_a, params.head_a, ds_a[:, None])
    d_fused = d_fused_v + d_fused_a + ds_c[:, None] * cache.sim_grad

    if cache.aff_cache is None:
        aff_grads = [np.zeros_like(a) for a in params.aff]
    else:
        aff_grads, _ = aff_backward(cache.aff_cache, params.aff, d_fused)
    grads = params.zeros_like()
    np.concatenate([g.ravel() for g in (*aff_grads, *grads_v, *grads_a)], out=grads.flat)
    return grads
