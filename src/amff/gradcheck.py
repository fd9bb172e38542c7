"""Finite-difference audit of every hand-derived gradient.

Runs small-dimensional probes of the fusion block (all parameter blocks
and all three inputs), both score heads, the three similarity kinds,
both losses, and the mini-batch objective a training step descends
(``trainer.batch_objective``) under every model variant, reporting the
worst relative error per block.
"""

from __future__ import annotations

from .aff import Block, aff_backward, aff_forward, init_block, mlp_backward, mlp_forward
from .losses import fidelity_loss, mse_loss
from .scoring import SIMILARITY_KINDS, VARIANTS, init_model_params, similarity_score
from .tensor import Array, finite_diff_check, make_rng
from .trainer import batch_loss, batch_objective

DEFAULT_EPS = 1e-5

# Rows per probe batch: more than one, so the sums over the batch in
# every backward pass are audited along with the per-row gradients.
PROBE_BATCH = 3


def _check_leaves(tag: str, params: Block, grads: Block, loss_of) -> dict[str, float]:
    """Check each of a perceptron's four gradient leaves against ``loss_of(trial params)``."""
    results = {}
    for leaf in Block._fields:
        def loss_at(flat: Array, leaf=leaf) -> float:
            return loss_of(params._replace(**{leaf: flat.reshape(getattr(params, leaf).shape)}))

        results[f"{tag}.{leaf}"] = finite_diff_check(
            loss_at, getattr(params, leaf).ravel(), getattr(grads, leaf).ravel(), DEFAULT_EPS
        )
    return results


def _check_aff(seed: int, dim: int = 12, hidden: int = 7) -> dict[str, float]:
    rng = make_rng((seed, 201))
    params = init_block(dim, hidden, dim, rng)
    stacked = rng.standard_normal((PROBE_BATCH, 3, dim))
    probe = rng.standard_normal((PROBE_BATCH, dim))

    _, cache = aff_forward(stacked, params)
    grads, d_stacked = aff_backward(cache, params, probe)
    results = _check_leaves("aff", params, grads, lambda p: float((probe * aff_forward(stacked, p)[0]).sum()))

    for slot, name in enumerate(("f05", "f10", "f15")):
        def loss_input(flat, s=slot):
            trial = stacked.copy()
            trial[:, s] = flat.reshape(PROBE_BATCH, dim)
            fused, _ = aff_forward(trial, params)
            return float((probe * fused).sum())

        results[f"aff.{name}"] = finite_diff_check(
            loss_input, stacked[:, slot].ravel(), d_stacked[:, slot].ravel(), DEFAULT_EPS
        )
    return results


def _check_head(seed: int, tag: str, salt: int, dim: int = 12, hidden: int = 9) -> dict[str, float]:
    rng = make_rng((seed, salt))
    params = init_block(dim, hidden, 1, rng)
    x = rng.standard_normal((PROBE_BATCH, dim))
    dy = rng.standard_normal(PROBE_BATCH)
    _, cache = mlp_forward(params, x)
    grads, dx = mlp_backward(cache, params, dy[:, None])

    results = _check_leaves(tag, params, grads, lambda p: float(dy @ mlp_forward(p, x)[0][:, 0]))
    results[f"{tag}.x"] = finite_diff_check(
        lambda flat: float(dy @ mlp_forward(params, flat.reshape(x.shape))[0][:, 0]),
        x.ravel(),
        dx.ravel(),
        DEFAULT_EPS,
    )
    return results


def _check_similarity(seed: int, dim: int = 12) -> dict[str, float]:
    rng = make_rng((seed, 204))
    results = {}
    for kind in SIMILARITY_KINDS:
        f_img = rng.standard_normal((PROBE_BATCH, dim))
        f_text = rng.standard_normal((PROBE_BATCH, dim))
        upstream = rng.standard_normal(PROBE_BATCH)
        _, grad = similarity_score(f_img, f_text, kind)
        results[f"similarity.{kind}"] = finite_diff_check(
            lambda flat, k=kind: float(upstream @ similarity_score(flat.reshape(f_img.shape), f_text, k)[0]),
            f_img.ravel(),
            (upstream[:, None] * grad).ravel(),
            DEFAULT_EPS,
        )
    return results


def _check_losses(seed: int, n: int = 5) -> dict[str, float]:
    rng = make_rng((seed, 205))
    preds = rng.standard_normal(n)
    gts = rng.standard_normal(n)
    return {
        f"loss.{name}": finite_diff_check(lambda p, f=loss: f(p, gts)[0], preds, loss(preds, gts)[1], DEFAULT_EPS)
        for name, loss in (("fidelity", fidelity_loss), ("mse", mse_loss))
    }


def _check_model(seed: int, dim: int = 6, hidden: int = 5) -> dict[str, float]:
    """Audit the whole mini-batch objective against every model parameter.

    Each variant's gradient is ``batch_objective``'s, the step ``train`` takes,
    over all three tasks of a ``PROBE_BATCH``-row mini-batch, so the
    per-block backward passes, their composition and the sums over the
    batch are checked together; the finite differences run only its
    forward half, ``batch_loss``.
    """
    results = {}
    for k, (name, *variant) in enumerate(VARIANTS):
        rng = make_rng((seed, 206, k))
        params = init_model_params(dim, rng, hidden, hidden, *variant)
        for _, arr in params.named_arrays():
            if arr.ndim == 1:  # nonzero biases exercise the ReLUs off-center
                arr[:] = 0.1 * rng.standard_normal(arr.shape)
        features = rng.standard_normal((PROBE_BATCH, 4, dim))
        gts = rng.uniform(-2.0, 2.0, size=(3, PROBE_BATCH))

        active = (True, True, True)
        _, grads = batch_objective(params, features, gts.T, active)

        def loss_at(flat: Array) -> float:
            trial = params.zeros_like()
            trial.flat[:] = flat
            return batch_loss(trial, features, gts.T, active)[0].total

        results[f"model.{name}"] = finite_diff_check(loss_at, params.flat, grads.flat, DEFAULT_EPS)
    return results


def run_gradcheck(seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error for every gradient block."""
    results: dict[str, float] = {}
    results.update(_check_aff(seed))
    results.update(_check_head(seed, "head_v", 202))
    results.update(_check_head(seed, "head_a", 203))
    results.update(_check_similarity(seed))
    results.update(_check_losses(seed))
    results.update(_check_model(seed))
    return results


def format_gradcheck(results: dict[str, float]) -> str:
    lines = [f"{'block':<22}{'max_rel_err':>14}"]
    for name, err in results.items():
        lines.append(f"{name:<22}{err:>14.3e}")
    worst = max(results.values())
    lines.append(f"{'worst':<22}{worst:>14.3e}")
    return "\n".join(lines) + "\n"
