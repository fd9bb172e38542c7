import numpy as np
import pytest

from amff.errors import NumericError, ShapeError
from amff.losses import mse_loss
from amff.tensor import affine_forward, as_vector, finite_diff_check, make_rng, softmax


class TestAffineForward:
    def test_identity(self):
        w = np.eye(3)
        b = np.zeros(3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(affine_forward(w, b, x), x)

    def test_bias_only(self):
        w = np.zeros((2, 3))
        b = np.array([5.0, 7.0])
        out = affine_forward(w, b, np.array([9.0, -2.0, 4.0]))
        assert np.array_equal(out, b)

    def test_matches_double_loop_oracle(self):
        rng = make_rng(42)
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        x = rng.standard_normal(7)
        expected = np.array(
            [sum(w[i, j] * x[j] for j in range(7)) + b[i] for i in range(5)]
        )
        assert np.allclose(affine_forward(w, b, x), expected, atol=1e-12)

    def test_linearity(self):
        rng = make_rng(1)
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        alpha, beta = 0.7, -1.3
        lhs = affine_forward(w, b, alpha * x + beta * y)
        rhs = (
            alpha * affine_forward(w, np.zeros(4), x)
            + beta * affine_forward(w, np.zeros(4), y)
            + b
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            affine_forward(np.eye(3), np.zeros(3), np.zeros(4))
        with pytest.raises(ShapeError):
            affine_forward(np.eye(3), np.zeros(2), np.zeros(3))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(np.zeros(3))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_saturation(self):
        out = softmax(np.array([1000.0, 0.0, 0.0]))
        assert abs(out[0] - 1.0) < 1e-12
        assert out[1] < 1e-12 and out[2] < 1e-12

    def test_matches_exp_normalize_oracle(self):
        v = np.array([1.0, 2.0, 3.0])
        e = np.exp(v)  # small values: direct exp is safe as the oracle
        assert np.allclose(softmax(v), e / e.sum(), atol=1e-15)

    def test_simplex_property(self):
        rng = make_rng(9)
        for _ in range(200):
            v = rng.standard_normal(5) * rng.uniform(0.1, 50)
            out = softmax(v)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) <= 1e-12


class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        x = np.array([1.0, 2.0])
        err = finite_diff_check(lambda v: float(v @ v), x, 2 * x)
        assert err < 1e-8

    def test_constant_zero(self):
        x = np.array([0.3, -0.7, 1.1])
        err = finite_diff_check(lambda v: 4.2, x, np.zeros(3))
        assert err == 0.0

    def test_against_mse_loss(self):
        rng = make_rng(3)
        gts = rng.standard_normal(6)
        preds = rng.standard_normal(6)
        _, grad = mse_loss(preds, gts)
        err = finite_diff_check(lambda p: mse_loss(p, gts)[0], preds, grad)
        assert err < 1e-4

    def test_nonfinite_function(self):
        with pytest.raises(NumericError):
            finite_diff_check(
                lambda v: float("nan"), np.ones(2), np.zeros(2)
            )


class TestRng:
    def test_bit_reproducible_streams(self):
        a = make_rng(123).standard_normal(100)
        b = make_rng(123).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(make_rng(1).standard_normal(8), make_rng(2).standard_normal(8))

    def test_tuple_seeds_derive_substreams(self):
        a = make_rng((5, 1)).standard_normal(4)
        b = make_rng((5, 2)).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, make_rng((5, 1)).standard_normal(4))


def test_as_vector_rejects_nonfinite():
    with pytest.raises(NumericError):
        as_vector(np.array([1.0, np.inf]))
    with pytest.raises(ShapeError):
        as_vector(np.zeros((2, 2)))
