import numpy as np
import pytest

from amff.aff import Block, aff_backward, aff_forward, init_block
from amff.errors import ShapeError
from amff.tensor import finite_diff_check, make_rng


def _params(dim=10, hidden=6, seed=0):
    return init_block(dim, hidden, dim, make_rng((seed, 77)))


def _random_params(dim, hidden, rng):
    # nonzero biases so the weights generator is exercised off-center
    p = init_block(dim, hidden, dim, rng)
    p.b1[:] = 0.1 * rng.standard_normal(hidden)
    p.b2[:] = 0.1 * rng.standard_normal(dim)
    return p


def _loop_oracle(f05, f10, f15, p):
    """Straightforward re-implementation with explicit loops."""
    dim, hidden = p.dim, p.hidden
    rows = [f05, f10, f15]
    logits = np.zeros((3, dim))
    for r in range(3):
        act = np.zeros(hidden)
        for i in range(hidden):
            act[i] = max(sum(p.w1[i, j] * rows[r][j] for j in range(dim)) + p.b1[i], 0.0)
        for c in range(dim):
            logits[r, c] = sum(p.w2[c, i] * act[i] for i in range(hidden)) + p.b2[c]
    fused = np.zeros(dim)
    for c in range(dim):
        col = logits[:, c]
        e = np.exp(col - col.max())
        w = e / e.sum()
        fused[c] = w[0] * f05[c] + w[1] * f10[c] + w[2] * f15[c]
    return fused


class TestAffForward:
    def test_equal_inputs_reproduce_input(self):
        rng = make_rng(1)
        p = _random_params(12, 8, rng)
        f = rng.standard_normal((5, 12))
        fused, cache = aff_forward(np.stack([f, f, f], axis=1), p)
        assert np.max(np.abs(fused - f)) <= 1e-12
        # equal rows give exactly equal logits, hence exact 1/3 weights
        assert np.all(cache.weights == 1.0 / 3.0)

    def test_convex_combination_bounds(self):
        rng = make_rng(2)
        p = _random_params(16, 8, rng)
        stacked = rng.standard_normal((50, 3, 16))
        fused, _ = aff_forward(stacked, p)
        assert np.all(fused >= stacked.min(axis=1) - 1e-12)
        assert np.all(fused <= stacked.max(axis=1) + 1e-12)

    def test_simplex_invariant(self):
        rng = make_rng(3)
        p = _random_params(8, 5, rng)
        _, cache = aff_forward(rng.standard_normal((100, 3, 8)) * 3, p)
        w = cache.weights
        assert np.all(w >= 0)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12

    def test_matches_loop_oracle(self):
        rng = make_rng(4)
        p = _random_params(7, 5, rng)
        stacked = rng.standard_normal((3, 3, 7))
        fused, _ = aff_forward(stacked, p)
        for row, trio in zip(fused, stacked):
            assert np.allclose(row, _loop_oracle(*trio, p), atol=1e-12)

    def test_permutation_covariance(self):
        rng = make_rng(5)
        p = _random_params(9, 6, rng)
        a, b, c = (rng.standard_normal((4, 9)) for _ in range(3))
        fused, cache = aff_forward(np.stack([a, b, c], axis=1), p)
        fused_p, cache_p = aff_forward(np.stack([c, a, b], axis=1), p)
        # fused output is invariant, weights permute with their rows
        assert np.max(np.abs(fused - fused_p)) < 1e-12
        assert np.allclose(cache.weights[:, 0], cache_p.weights[:, 1], atol=1e-12)
        assert np.allclose(cache.weights[:, 2], cache_p.weights[:, 0], atol=1e-12)

    def test_dim_mismatch(self):
        p = _params(dim=6)
        with pytest.raises(ShapeError):
            aff_forward(np.zeros((2, 2, 6)), p)  # two scales, not three
        with pytest.raises(ShapeError):
            aff_forward(np.zeros((2, 3, 4)), p)
        with pytest.raises(ShapeError):
            aff_forward(np.zeros((3, 6)), p)  # one sample without its batch axis

    def test_batch_equals_single_rows_bit_for_bit(self):
        rng = make_rng(11)
        p = _random_params(16, 9, rng)
        stacked = rng.standard_normal((7, 3, 16))
        fused, cache = aff_forward(stacked, p)
        for r in range(7):
            one, one_cache = aff_forward(stacked[r : r + 1], p)
            assert np.array_equal(one[0], fused[r])
            assert np.array_equal(one_cache.weights[0], cache.weights[r])


class TestAffBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = make_rng(6)
        p = _random_params(8, 5, rng)
        _, cache = aff_forward(rng.standard_normal((3, 3, 8)), p)
        grads, d_stacked = aff_backward(cache, p, np.zeros((3, 8)))
        for g in (grads.w1, grads.b1, grads.w2, grads.b2, d_stacked):
            assert np.array_equal(g, np.zeros_like(g))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_blocks_match_finite_differences(self, seed):
        rng = make_rng((seed, 88))
        dim, hidden, batch = 9, 6, 3
        p = _random_params(dim, hidden, rng)
        stacked = rng.standard_normal((batch, 3, dim))
        probe = rng.standard_normal((batch, dim))
        _, cache = aff_forward(stacked, p)
        grads, d_stacked = aff_backward(cache, p, probe)

        def loss_with(block, flat):
            kw = {k: getattr(p, k) for k in ("w1", "b1", "w2", "b2")}
            kw[block] = flat.reshape(kw[block].shape)
            fused, _ = aff_forward(stacked, Block(**kw))
            return float((probe * fused).sum())

        for block in ("w1", "b1", "w2", "b2"):
            err = finite_diff_check(
                lambda flat, b=block: loss_with(b, flat),
                getattr(p, block).ravel(),
                getattr(grads, block).ravel(),
            )
            assert err < 1e-4, f"{block}: {err}"

        def loss_input(flat):
            fused, _ = aff_forward(flat.reshape(stacked.shape), p)
            return float((probe * fused).sum())

        err = finite_diff_check(loss_input, stacked.ravel(), d_stacked.ravel())
        assert err < 1e-4, f"inputs: {err}"

    def test_identical_inputs_grads_match_finite_differences(self):
        rng = make_rng(7)
        p = _random_params(8, 5, rng)
        f = rng.standard_normal((2, 8))
        stacked = np.stack([f, f, f], axis=1)
        probe = rng.standard_normal((2, 8))
        _, cache = aff_forward(stacked, p)
        _, d_stacked = aff_backward(cache, p, probe)

        def loss_input(flat):
            fused, _ = aff_forward(flat.reshape(stacked.shape), p)
            return float((probe * fused).sum())

        err = finite_diff_check(loss_input, stacked.ravel(), d_stacked.ravel())
        assert err < 1e-4

    def test_batch_equals_sum_of_single_rows(self):
        rng = make_rng(12)
        p = _random_params(10, 7, rng)
        stacked = rng.standard_normal((6, 3, 10))
        probe = rng.standard_normal((6, 10))
        grads, d_stacked = aff_backward(aff_forward(stacked, p)[1], p, probe)
        total = {k: np.zeros_like(getattr(p, k)) for k in ("w1", "b1", "w2", "b2")}
        for r in range(6):
            one, d_one = aff_backward(aff_forward(stacked[r : r + 1], p)[1], p, probe[r : r + 1])
            for k in total:
                total[k] += getattr(one, k)
            assert np.max(np.abs(d_one[0] - d_stacked[r])) <= 1e-13
        for k, want in total.items():
            assert np.max(np.abs(getattr(grads, k) - want)) <= 1e-13, k

    def test_cache_params_mismatch(self):
        rng = make_rng(8)
        p = _random_params(8, 5, rng)
        _, cache = aff_forward(rng.standard_normal((2, 3, 8)), p)
        other = _params(dim=10, hidden=5, seed=9)
        with pytest.raises(ShapeError):
            aff_backward(cache, other, np.zeros((2, 10)))
        with pytest.raises(ShapeError):
            aff_backward(cache, p, np.zeros((3, 8)))  # upstream for another batch size


def test_init_weights_unsaturated():
    rng = make_rng(10)
    p = init_block(32, 16, 32, rng)
    _, cache = aff_forward(rng.standard_normal((1, 3, 32)), p)
    # zero biases and Glorot weights: no scale dominates or vanishes at init
    assert np.all(cache.weights > 0.01) and np.all(cache.weights < 0.95)
    assert abs(cache.weights.mean() - 1.0 / 3.0) < 0.05
