import math

import numpy as np
import pytest
from scipy.special import erf, ndtr

from amff.errors import DataError, NumericError
from amff.losses import fidelity_loss, mse_loss, total_loss
from amff.tensor import finite_diff_check, make_rng


def _fidelity_oracle(preds, gts):
    """Direct double-loop evaluation of the pairwise objective."""
    n = len(preds)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            p = 1.0 if gts[i] >= gts[j] else 0.0
            p_hat = 0.5 * (1.0 + erf((preds[i] - preds[j]) / 2.0))
            total += 1.0 - math.sqrt(p * p_hat) - math.sqrt((1.0 - p) * (1.0 - p_hat))
    return total / (n * n)


def _preference(s_i, s_j):
    """The probability that item i beats item j which ``fidelity_loss`` predicts on a two-row batch.

    With i ranked over j, both ordered pairs score that probability P, so
    the loss is 2 (1 - sqrt(P)) / 4 and P = (1 - 2 loss)^2.
    """
    loss, _ = fidelity_loss(np.array([s_i, s_j]), np.array([1.0, 0.0]))
    return (1.0 - 2.0 * loss) ** 2


def _thurstone(s_i, s_j):
    """Thurstone Case V: Phi((s_i - s_j) / sqrt(2))."""
    return ndtr((s_i - s_j) / math.sqrt(2.0))


class TestThurstoneProb:
    def test_equal_scores(self):
        loss, _ = fidelity_loss(np.array([1.3, 1.3]), np.array([1.0, 0.0]))
        assert _thurstone(1.3, 1.3) == 0.5
        assert loss == (1.0 - math.sqrt(_thurstone(1.3, 1.3))) / 2.0

    def test_saturation_and_monotonicity(self):
        assert _preference(1e6, 0.0) == pytest.approx(1.0, abs=1e-12)
        values = [_preference(s, 0.0) for s in (-2.0, -0.5, 0.0, 0.5, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_normal_cdf_value(self):
        # difference sqrt(2) maps to Phi(1)
        assert _preference(math.sqrt(2.0), 0.0) == pytest.approx(0.841345, abs=1e-6)
        assert _preference(math.sqrt(2.0), 0.0) == pytest.approx(_thurstone(math.sqrt(2.0), 0.0), abs=1e-12)

    def test_complement_sums_to_one(self):
        rng = make_rng(7)
        for _ in range(100):
            a, b = rng.standard_normal(2) * 5
            assert abs(_preference(a, b) + _preference(b, a) - 1.0) <= 1e-12
            assert _preference(a, b) == pytest.approx(_thurstone(a, b), abs=1e-12)


class TestFidelityLoss:
    def test_perfectly_ordered_huge_margins(self):
        preds = np.array([300.0, 200.0, 100.0])
        gts = np.array([3.0, 2.0, 1.0])
        loss, _ = fidelity_loss(preds, gts)
        assert loss < 1e-12

    def test_two_sample_equal_preds_value(self):
        loss, _ = fidelity_loss(np.array([0.7, 0.7]), np.array([2.0, 1.0]))
        expected = 2.0 * (1.0 - math.sqrt(0.5)) / 4.0
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.146447, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force_oracle(self, n):
        rng = make_rng(100 + n)
        preds = rng.standard_normal(n)
        gts = rng.standard_normal(n)
        loss, _ = fidelity_loss(preds, gts)
        assert loss == pytest.approx(_fidelity_oracle(preds, gts), abs=1e-12)

    def test_translation_invariance(self):
        rng = make_rng(8)
        preds = rng.standard_normal(6)
        gts = rng.standard_normal(6)
        a, _ = fidelity_loss(preds, gts)
        b, _ = fidelity_loss(preds + 5.0, gts)
        assert abs(a - b) < 1e-12

    def test_margin_growth_decreases_loss(self):
        gts = np.array([2.0, 1.0])
        small, _ = fidelity_loss(np.array([0.1, 0.0]), gts)
        large, _ = fidelity_loss(np.array([1.0, 0.0]), gts)
        assert large < small

    def test_pair_terms_bounded(self):
        rng = make_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            preds = rng.standard_normal(n) * 10
            gts = rng.standard_normal(n)
            loss, _ = fidelity_loss(preds, gts)
            assert 0.0 <= loss <= (n * n - n) / (n * n) + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(10)
        preds = rng.standard_normal(5)
        gts = rng.standard_normal(5)
        _, grad = fidelity_loss(preds, gts)
        err = finite_diff_check(
            lambda p: fidelity_loss(p, gts)[0], preds, grad
        )
        assert err < 1e-4

    def test_gradient_finite_at_extreme_margins(self):
        preds = np.array([500.0, -500.0])
        gts = np.array([1.0, 2.0])  # badly mis-ordered, saturated probabilities
        loss, grad = fidelity_loss(preds, gts)
        assert np.all(np.isfinite(grad))
        assert np.isfinite(loss)

    def test_needs_two_samples(self):
        with pytest.raises(DataError):
            fidelity_loss(np.array([1.0]), np.array([1.0]))

    def test_ties_pull_both_orientations(self):
        # tied ground truths set both preferences to 1
        gts = np.array([1.0, 1.0])
        loss_eq, _ = fidelity_loss(np.array([0.0, 0.0]), gts)
        loss_apart, _ = fidelity_loss(np.array([3.0, -3.0]), gts)
        assert loss_eq < loss_apart

    def test_complement_is_the_transposed_preference_bit_for_bit(self):
        # fidelity_loss takes 1 - p_hat as p_hat.T instead of a second erfc pass
        erfc = np.vectorize(math.erfc, otypes=[np.float64])
        preds = np.concatenate([10.0 * make_rng(40).standard_normal(30), [0.0, -0.0, 1e-300, 38.0, -38.0]])
        diff = preds[:, None] - preds[None, :]
        assert np.array_equal(0.5 * erfc(diff / 2.0), (0.5 * erfc(-diff / 2.0)).T)


class TestMseLoss:
    def test_zero_at_match(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(2))

    def test_hand_value(self):
        loss, _ = mse_loss(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(0.5, abs=1e-15)

    def test_matches_loop_oracle_and_fd(self):
        rng = make_rng(11)
        preds = rng.standard_normal(8)
        gts = rng.standard_normal(8)
        loss, grad = mse_loss(preds, gts)
        oracle = sum((g - p) ** 2 for p, g in zip(preds, gts)) / 8
        assert loss == pytest.approx(oracle, abs=1e-10)
        err = finite_diff_check(lambda p: mse_loss(p, gts)[0], preds, grad)
        assert err < 1e-6


class TestTotalLoss:
    def _blocks(self, rng, n=4):
        """(n, 3) scores and targets, drawn task by task as one batch each."""
        draws = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(3)]
        return np.column_stack([p for p, _ in draws]), np.column_stack([g for _, g in draws])

    def test_all_zero(self):
        z = np.zeros((3, 3))
        bundle = total_loss(z, z, (False, True, True))
        assert bundle.total == 0.0

    def test_mask_semantics(self):
        rng = make_rng(12)
        scores, targets = self._blocks(rng)
        targets[:, 2] = np.nan  # an inactive task's targets are not read
        bundle = total_loss(scores, targets, (True, True, False))
        assert bundle.losses[2] == 0.0
        assert np.array_equal(bundle.grad[:, 2], np.zeros(4))
        assert bundle.total == pytest.approx(bundle.losses[0] + bundle.losses[1], abs=1e-12)

    def test_equals_component_sum(self):
        rng = make_rng(13)
        scores, targets = self._blocks(rng)
        cons, qual, auth = ((scores[:, k], targets[:, k]) for k in range(3))
        bundle = total_loss(scores, targets, (True, True, True))
        assert bundle.total == pytest.approx(
            fidelity_loss(*cons)[0] + mse_loss(*qual)[0] + mse_loss(*auth)[0], abs=1e-12
        )

    def test_all_masked_errors(self):
        with pytest.raises(DataError):
            total_loss(np.zeros((3, 3)), np.zeros((3, 3)), (False, False, False))

    def test_mismatched_sizes_error(self):
        rng = make_rng(14)
        with pytest.raises(DataError):
            total_loss(self._blocks(rng, 4)[0], self._blocks(rng, 5)[1], (False, True, True))

    def test_empty_batch_errors(self):
        with pytest.raises(DataError):
            total_loss(np.zeros((0, 3)), np.zeros((0, 3)), (True, True, True))

    # An infinite score or a NaN target in the consistency column of a
    # two-row batch leaves the pairwise loss finite.
    @pytest.mark.parametrize(
        "block, k, value",
        [("scores", 0, np.inf), ("scores", 1, np.nan), ("targets", 0, np.nan), ("targets", 2, -np.inf)],
    )
    def test_non_finite_entry_of_an_active_column_errors(self, block, k, value):
        scores, targets = self._blocks(make_rng(15), 2)
        {"scores": scores, "targets": targets}[block][1, k] = value
        with pytest.raises(NumericError):
            total_loss(scores, targets, (True, True, True))
