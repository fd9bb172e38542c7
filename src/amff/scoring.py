"""The similarity score and the full model forward/backward.

Two regression heads, each the ``aff`` perceptron with one output
(D -> 256 -> 1), predict visual quality and authenticity from the fused
feature; the consistency score is the similarity between the fused
feature and the text feature.
Cosine is the default similarity; negated Euclidean and Manhattan
distances are available so all three kinds share a higher-is-better
orientation.  Every function works on a batch: features are (B, D),
similarities (B,), and parameter gradients are summed over the batch.
The model's three scores travel as one (B, 3) block whose columns are
in ``dataio.TASKS`` order (consistency, quality, authenticity), and
their upstream gradient is a block of the same shape.
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

# (name, similarity, use_msi, use_aff) of every model variant: the full
# model under each similarity kind, then the two fusion ablations.  The
# ablation protocol trains each one and the gradient audit checks each one.
VARIANTS = (
    ("cosine", "cosine", True, True),
    ("euclidean", "euclidean", True, True),
    ("manhattan", "manhattan", True, True),
    ("no_msi", "cosine", False, True),
    ("no_aff", "cosine", True, False),
)


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
        self._layout = layout

    @property
    def dim(self) -> int:
        return self.aff.dim

    def named_arrays(self) -> Iterator[tuple[str, Array]]:
        """Each parameter tensor (a view into ``flat``) under its ``param_layout`` name, in buffer order."""
        return zip([name for name, _ in self._layout], (*self.aff, *self.head_v, *self.head_a))

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
    hidden_aff: int,
    hidden_head: int,
    similarity: str = "cosine",
    use_msi: bool = True,
    use_aff: bool = True,
) -> ModelParams:
    """Glorot-uniform weight matrices and zero biases, drawn tensor by tensor in ``param_layout`` order."""
    params = ModelParams(dim, hidden_aff, hidden_head, similarity, use_msi, use_aff)
    for _, a in params.named_arrays():
        if a.ndim == 2:
            a[...] = glorot_uniform(rng, *a.shape)
    return params


@dataclass(frozen=True)
class ModelCache:
    fused: Array                # (B, D)
    aff_cache: AffCache | None  # None when fusion is the plain mean
    cache_v: MlpCache
    cache_a: MlpCache
    sim_grad: Array             # (B, D)


def model_forward(features: Array, params: ModelParams) -> tuple[Array, ModelCache]:
    """Full forward pass of the variant ``params`` names: fuse scales, run both heads, score similarity.

    ``features`` is a (B, 4, D) block whose rows are f_text, f_05, f_10
    and f_15.  The scores are a (B, 3) block, columns in ``TASKS`` order.
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
    return np.concatenate((s_c[:, None], s_v, s_a), axis=1), cache


def model_backward(cache: ModelCache, params: ModelParams, d_scores: Array) -> ModelParams:
    """Gradients of ``sum(d_scores * scores)`` w.r.t. all params.

    ``d_scores`` is the (B, 3) upstream of the forward's score block,
    columns in ``TASKS`` order; the parameter gradients are summed over
    the batch and written straight into a fresh container, whose fusion
    block stays zero for the plain-mean variant.
    """
    if d_scores.shape != (cache.fused.shape[0], 3):
        raise ShapeError(f"model_backward: expected ({cache.fused.shape[0]}, 3) upstream, got {d_scores.shape}")
    grads = params.zeros_like()
    _, d_fused_v = mlp_backward(cache.cache_v, params.head_v, d_scores[:, 1:2], grads.head_v)
    _, d_fused_a = mlp_backward(cache.cache_a, params.head_a, d_scores[:, 2:3], grads.head_a)
    d_fused = d_fused_v + d_fused_a + d_scores[:, :1] * cache.sim_grad
    if cache.aff_cache is not None:
        aff_backward(cache.aff_cache, params.aff, d_fused, grads.aff)
    return grads
