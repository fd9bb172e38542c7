import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amff

from amff.aff import Block, init_block
from amff.errors import ConfigError, NumericError, ShapeError
from amff.scoring import (
    init_model_params,
    mlp_backward,
    mlp_forward,
    model_backward,
    model_forward,
    similarity_score,
)
from amff.tensor import finite_diff_check, make_rng
from conftest import as_variant


def _features(rng, dim=10, batch=1):
    """(batch, 4, dim) block: f_text, f_05, f_10, f_15 per row."""
    return rng.standard_normal((batch, 4, dim))


def _sim(a, b, kind):
    """Similarity of two single vectors, through the batched function."""
    s, grad = similarity_score(np.asarray(a, float)[None], np.asarray(b, float)[None], kind)
    return s[0], grad[0]


class TestMlp:
    def test_zero_params_zero_output(self):
        p = Block(np.zeros((4, 3)), np.zeros(4), np.zeros((1, 4)), np.zeros(1))
        y, _ = mlp_forward(p, np.array([[1.0, -2.0, 3.0], [0.5, 0.0, -1.0]]))
        assert np.array_equal(y, np.zeros((2, 1)))

    def test_relu_inactive_on_nonnegative_input(self):
        # identity-like first layer, summing second layer
        p = Block(np.eye(4), np.zeros(4), np.ones((1, 4)), np.zeros(1))
        x = np.array([[0.5, 1.0, 0.0, 2.5], [3.0, 0.0, 0.25, 1.0]])
        y, _ = mlp_forward(p, x)
        assert np.allclose(y[:, 0], x.sum(axis=1), atol=1e-15, rtol=0)

    def test_matches_loop_oracle(self):
        rng = make_rng(1)
        p = init_block(6, 5, 1, rng)
        x = rng.standard_normal((3, 6))
        y, _ = mlp_forward(p, x)
        for row, got in zip(x, y[:, 0]):
            hidden = [max(sum(p.w1[i, j] * row[j] for j in range(6)) + p.b1[i], 0.0) for i in range(5)]
            oracle = sum(p.w2[0, i] * hidden[i] for i in range(5)) + p.b2[0]
            assert got == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize(
        "seed, lead, out",
        [pytest.param(0, (3,), 1, id="0"), pytest.param(1, (3,), 1, id="1"),
         pytest.param(2, (3, 3), 7, id="generator")],  # (B, 3, D) rows to D logits, as in the fusion
    )
    def test_backward_matches_finite_differences(self, seed, lead, out):
        rng = make_rng((seed, 50))
        p = init_block(7, 5, out, rng)
        x = rng.standard_normal((*lead, 7))
        dy = rng.standard_normal((*lead, out))
        _, cache = mlp_forward(p, x)
        grads, dx = mlp_backward(cache, p, dy)

        def y_with(block, flat):
            kw = {k: getattr(p, k) for k in ("w1", "b1", "w2", "b2")}
            kw[block] = flat.reshape(kw[block].shape)
            return float((dy * mlp_forward(Block(**kw), x)[0]).sum())

        for block in ("w1", "b1", "w2", "b2"):
            err = finite_diff_check(
                lambda flat, b=block: y_with(b, flat),
                getattr(p, block).ravel(),
                getattr(grads, block).ravel(),
            )
            assert err < 1e-4, block
        err = finite_diff_check(
            lambda v: float((dy * mlp_forward(p, v.reshape(x.shape))[0]).sum()), x.ravel(), dx.ravel()
        )
        assert err < 1e-4

    def test_backward_rejects_upstream_of_another_shape(self):
        rng = make_rng(5)
        p = init_block(5, 4, 1, rng)
        _, cache = mlp_forward(p, rng.standard_normal((3, 5)))
        for dy in (np.ones(3), np.ones((2, 1)), np.ones((3, 5))):
            with pytest.raises(ShapeError):
                mlp_backward(cache, p, dy)

    @pytest.mark.parametrize("dim", [64, 512])
    @pytest.mark.parametrize("batch", [2, 3, 7])
    def test_backward_does_not_depend_on_upstream_layout(self, batch, dim):
        # A column of a C-ordered (B, 3) block is a strided (B, 1) upstream.
        rng = make_rng((batch, dim))
        p = init_block(dim, 256, 1, rng)
        _, cache = mlp_forward(p, rng.standard_normal((batch, dim)))
        block = rng.standard_normal((batch, 3))
        strided = mlp_backward(cache, p, block[:, 1:2])
        contiguous = mlp_backward(cache, p, block[:, 1:2].copy())
        for got, want in zip((*strided[0], strided[1]), (*contiguous[0], contiguous[1])):
            assert np.array_equal(got, want)

    def test_zero_upstream_zero_grads(self):
        rng = make_rng(2)
        p = init_block(5, 4, 1, rng)
        _, cache = mlp_forward(p, rng.standard_normal((3, 5)))
        grads, dx = mlp_backward(cache, p, np.zeros((3, 1)))
        for g in (grads.w1, grads.b1, grads.w2, grads.b2, dx):
            assert np.array_equal(g, np.zeros_like(g))

    def test_dead_relu_blocks_input_grads(self):
        rng = make_rng(3)
        p = init_block(5, 4, 1, rng)
        p.b1[:] = -100.0  # every unit dead for moderate inputs
        x = rng.standard_normal((2, 5))
        y, cache = mlp_forward(p, x)
        grads, dx = mlp_backward(cache, p, np.ones((2, 1)))
        assert np.array_equal(y, np.full((2, 1), p.b2[0]))
        assert np.array_equal(dx, np.zeros((2, 5)))
        assert np.array_equal(grads.w1, np.zeros_like(grads.w1))
        assert grads.b2[0] == 2.0  # bias path stays alive, once per row

    def test_piecewise_linearity_on_fixed_pattern(self):
        rng = make_rng(4)
        p = init_block(6, 5, 1, rng)
        x = rng.standard_normal((1, 6))
        d = rng.standard_normal((1, 6))
        t = 1e-4  # small enough to keep the activation pattern fixed
        _, c0 = mlp_forward(p, x)
        _, c1 = mlp_forward(p, x + 2 * t * d)
        assert np.array_equal(c0.hidden > 0, c1.hidden > 0)
        y0, _ = mlp_forward(p, x)
        y1, _ = mlp_forward(p, x + t * d)
        y2, _ = mlp_forward(p, x + 2 * t * d)
        assert (y2 - y0)[0, 0] == pytest.approx(2 * (y1 - y0)[0, 0], abs=1e-10)


class TestSimilarity:
    def test_identical_vectors_cosine_one(self):
        v = np.array([1.0, 2.0, -1.0])
        s, _ = _sim(v, v, "cosine")
        assert s == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert _sim(a, b, "cosine")[0] == pytest.approx(0.0, abs=1e-15)
        assert _sim(a, b, "euclidean")[0] == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_antipodal(self):
        v = np.array([0.5, -1.5, 2.0])
        assert _sim(v, -v, "cosine")[0] == pytest.approx(-1.0, abs=1e-12)
        manh, _ = _sim(v, -v, "manhattan")
        assert manh == pytest.approx(-2.0 * np.abs(v).sum(), abs=1e-12)

    def test_zero_norm_cosine_errors(self):
        with pytest.raises(NumericError):
            similarity_score(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.ones((2, 3)), "cosine")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            similarity_score(np.ones((1, 2)), np.ones((1, 2)), "hamming")

    @pytest.mark.parametrize("kind", ["cosine", "euclidean", "manhattan"])
    def test_gradients_match_finite_differences(self, kind):
        rng = make_rng(5)
        f_img = rng.standard_normal((3, 8))
        f_text = rng.standard_normal((3, 8))
        upstream = rng.standard_normal(3)
        _, grad = similarity_score(f_img, f_text, kind)
        err = finite_diff_check(
            lambda v: float(upstream @ similarity_score(v.reshape(3, 8), f_text, kind)[0]),
            f_img.ravel(),
            (upstream[:, None] * grad).ravel(),
        )
        assert err < 1e-4

    def test_cosine_scale_invariance(self):
        rng = make_rng(6)
        f_img = rng.standard_normal((2, 8))
        f_text = rng.standard_normal((2, 8))
        s0, _ = similarity_score(f_img, f_text, "cosine")
        s1, _ = similarity_score(3.7 * f_img, f_text, "cosine")
        s2, _ = similarity_score(f_img, 3.7 * f_text, "cosine")
        assert np.max(np.abs(s1 - s0)) < 1e-12 and np.max(np.abs(s2 - s0)) < 1e-12


class TestModelForward:
    def test_identity_case_cosine_one(self):
        rng = make_rng(7)
        params = init_model_params(8, rng, hidden_aff=6, hidden_head=6)
        f = rng.standard_normal(8)
        f /= np.linalg.norm(f)
        scores, _ = model_forward(np.tile(f, (1, 4, 1)), params)
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_heads_zero_scores(self):
        rng = make_rng(8)
        params = init_model_params(6, rng, hidden_aff=4, hidden_head=4)
        for head in (params.head_v, params.head_a):
            for leaf in ("w1", "b1", "w2", "b2"):
                getattr(head, leaf)[:] = 0.0
        scores, _ = model_forward(_features(make_rng(9), 6, batch=3), params)
        assert np.array_equal(scores[:, 1], np.zeros(3)) and np.array_equal(scores[:, 2], np.zeros(3))

    def test_composes_component_oracles(self):
        from amff.aff import aff_forward

        rng = make_rng(10)
        params = init_model_params(7, rng, hidden_aff=5, hidden_head=5)
        features = _features(rng, 7, batch=3)
        scores, _ = model_forward(features, params)
        fused, _ = aff_forward(features[:, 1:], params.aff)
        assert scores.shape == (3, 3)
        assert np.allclose(scores[:, 1], mlp_forward(params.head_v, fused)[0][:, 0], atol=1e-12, rtol=0)
        assert np.allclose(scores[:, 2], mlp_forward(params.head_a, fused)[0][:, 0], atol=1e-12, rtol=0)
        assert np.allclose(
            scores[:, 0], similarity_score(fused, features[:, 0], "cosine")[0], atol=1e-12, rtol=0
        )

    def test_zeroing_a_scale_changes_outputs(self):
        rng = make_rng(11)
        params = init_model_params(8, rng, hidden_aff=6, hidden_head=6)
        features = _features(rng, 8)
        base, _ = model_forward(features, params)
        zeroed = features.copy()
        zeroed[:, 1] = 0.0
        changed, _ = model_forward(zeroed, params)
        assert changed[0, 1] != base[0, 1]  # f_05 participates in the fusion

    def test_ablation_flags(self):
        rng = make_rng(12)
        params = init_model_params(8, rng, hidden_aff=6, hidden_head=6)
        features = _features(rng, 8, batch=2)
        f_05, f_10, f_15 = features[:, 1], features[:, 2], features[:, 3]
        # no_aff: fused feature is the plain mean
        _, cache = model_forward(features, as_variant(params, use_aff=False))
        mean = (f_05 + f_10 + f_15) / 3.0
        assert np.allclose(cache.fused, mean, atol=1e-15, rtol=0)
        assert cache.aff_cache is None
        # no_msi with learned fusion: equal rows give exact 1/3 weights
        _, cache = model_forward(features, as_variant(params, use_msi=False))
        assert np.all(cache.aff_cache.weights == 1.0 / 3.0)
        assert np.allclose(cache.fused, f_10, atol=1e-12, rtol=0)
        # both off: fused is exactly the original-scale feature
        _, cache = model_forward(features, as_variant(params, use_msi=False, use_aff=False))
        assert np.allclose(cache.fused, f_10, atol=1e-15, rtol=0)

    def test_dim_mismatch(self):
        rng = make_rng(13)
        params = init_model_params(8, rng, hidden_aff=4, hidden_head=4)
        with pytest.raises(ShapeError):
            model_forward(_features(rng, 6), params)
        with pytest.raises(ShapeError):
            model_forward(rng.standard_normal((2, 3, 8)), params)  # no text feature

    @pytest.mark.parametrize(
        "flags",
        [{}, {"use_msi": False}, {"use_aff": False}, {"similarity": "euclidean"}, {"similarity": "manhattan"}],
        ids=["full", "no_msi", "no_aff", "euclidean", "manhattan"],
    )
    def test_batch_equals_single_rows_bit_for_bit(self, flags):
        rng = make_rng(17)
        params = init_model_params(16, rng, hidden_aff=12, hidden_head=12, **flags)
        features = _features(rng, 16, batch=9)
        scores, cache = model_forward(features, params)
        for r in range(9):
            one, one_cache = model_forward(features[r : r + 1], params)
            for k in range(3):
                assert np.array_equal(one[:, k], scores[r : r + 1, k]), k
            assert np.array_equal(one_cache.fused[0], cache.fused[r])


def _batch_variant_sizes(dim, hidden, sizes):
    """The batch sizes B whose scores differ from the same B rows scored one at a time."""
    rng = make_rng((dim, hidden))
    params = init_model_params(dim, rng, hidden_aff=hidden, hidden_head=hidden)
    features = _features(rng, dim, batch=max(sizes))
    alone = np.concatenate([model_forward(features[r : r + 1], params)[0] for r in range(len(features))])
    return [b for b in sizes if not np.array_equal(model_forward(features[:b], params)[0], alone[:b])]


class TestBatchInvariance:
    """A row's scores do not depend on what is batched with it, for every B up to 300.

    BLAS libraries pick their kernels by matrix size, so a product over the
    whole batch rounds a row differently as B changes; only a fixed block
    shape keeps the rows apart.  The BLAS thread count is fixed when NumPy
    loads, so the one-thread case runs in a fresh interpreter.
    """

    # Every B at small D; at D=512 every B up to two blocks, then a stride, to stay fast.
    CASES = [
        pytest.param(16, 256, range(1, 301), id="d16-h256"),
        pytest.param(64, 256, range(1, 301), id="d64-h256"),
        pytest.param(512, 256, [*range(1, 130), *range(130, 301, 9), 300], id="d512-h256"),
        pytest.param(8, 5, range(1, 301), id="d8-h5"),
    ]

    @pytest.mark.parametrize("dim, hidden, sizes", CASES)
    def test_scores_do_not_depend_on_the_batch(self, dim, hidden, sizes):
        assert _batch_variant_sizes(dim, hidden, sizes) == []

    def test_scores_do_not_depend_on_the_batch_at_one_blas_thread(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(Path(amff.__file__).parents[1])}
        node = f"{__file__}::TestBatchInvariance::test_scores_do_not_depend_on_the_batch"
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node],
            cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stdout[-3000:]


class TestModelBackward:
    @pytest.mark.parametrize("use_aff", [True, False])
    def test_param_grads_match_finite_differences(self, use_aff):
        rng = make_rng(14)
        params = init_model_params(6, rng, hidden_aff=5, hidden_head=5, use_aff=use_aff)
        features = _features(rng, 6, batch=3)
        ds = rng.standard_normal((3, 3))

        _, cache = model_forward(features, params)
        grads = model_backward(cache, params, ds.T)

        def loss_with(name, flat):
            p2 = params.copy()
            target = dict(p2.named_arrays())[name]
            target[...] = flat.reshape(target.shape)
            scores, _ = model_forward(features, p2)
            return float(ds[0] @ scores[:, 0] + ds[1] @ scores[:, 1] + ds[2] @ scores[:, 2])

        grad_map = dict(grads.named_arrays())
        for name, arr in params.named_arrays():
            err = finite_diff_check(
                lambda flat, n=name: loss_with(n, flat), arr.ravel(), grad_map[name].ravel()
            )
            assert err < 1e-4, f"{name}: {err}"

    @pytest.mark.parametrize("use_msi,use_aff", [(True, True), (False, True), (True, False)])
    @pytest.mark.parametrize("similarity", ["cosine", "euclidean", "manhattan"])
    def test_batch_equals_sum_of_single_rows(self, similarity, use_msi, use_aff):
        # the per-row backward passes, summed, are the loop oracle
        rng = make_rng(18)
        params = init_model_params(10, rng, hidden_aff=7, hidden_head=7, similarity=similarity,
                                   use_msi=use_msi, use_aff=use_aff)
        features = _features(rng, 10, batch=6)
        ds = rng.standard_normal((3, 6))
        _, cache = model_forward(features, params)
        grads = model_backward(cache, params, ds.T)
        total = params.zeros_like()
        for r in range(6):
            _, one = model_forward(features[r : r + 1], params)
            total.add_(model_backward(one, params, ds[:, r : r + 1].T))
        want = dict(total.named_arrays())
        for name, got in grads.named_arrays():
            assert np.max(np.abs(got - want[name])) <= 1e-13, name

    def test_no_aff_leaves_fusion_grads_zero(self):
        rng = make_rng(15)
        params = init_model_params(6, rng, hidden_aff=5, hidden_head=5, use_aff=False)
        _, cache = model_forward(_features(rng, 6, batch=2), params)
        grads = model_backward(cache, params, np.ones((2, 3)))
        for leaf in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(grads.aff, leaf), np.zeros_like(getattr(grads.aff, leaf)))

    def test_grads_accumulate(self):
        rng = make_rng(16)
        params = init_model_params(5, rng, hidden_aff=4, hidden_head=4)
        _, cache = model_forward(_features(rng, 5), params)
        g1 = model_backward(cache, params, np.array([[1.0, 0.5, -0.5]]))
        total = params.zeros_like()
        total.add_(g1)
        total.add_(g1)
        assert np.allclose(total.head_v.w1, 2 * g1.head_v.w1, atol=1e-15)

    def test_layout_of_upstream_does_not_change_bits(self):
        # Column slices of a C-ordered upstream are strided, an F-ordered
        # one's are contiguous; BLAS may round the two differently.
        rng = make_rng(19)
        params = init_model_params(12, rng, hidden_aff=9, hidden_head=9)
        _, cache = model_forward(_features(rng, 12, batch=7), params)
        ds = rng.standard_normal((7, 3))
        c_order = model_backward(cache, params, ds)
        f_order = model_backward(cache, params, np.asfortranarray(ds))
        assert np.array_equal(c_order.flat, f_order.flat)

    def test_rejects_upstream_of_another_shape(self):
        rng = make_rng(20)
        params = init_model_params(5, rng, hidden_aff=4, hidden_head=4)
        _, cache = model_forward(_features(rng, 5, batch=2), params)
        for ds in (np.ones((2, 2)), np.ones((3, 3)), np.ones(6)):
            with pytest.raises(ShapeError):
                model_backward(cache, params, ds)
