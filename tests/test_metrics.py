import math

import numpy as np
import pytest
import scipy.stats

from amff.errors import DataError, NumericError
from amff.metrics import (
    EvalResult,
    LogisticParams,
    TaskMetrics,
    _ranks,
    format_scatter,
    format_table,
    krcc,
    logistic_fit,
    logistic_fit_trace,
    median_of_trials,
    pearson,
    plcc,
    srcc,
    to_jsonl,
)
from amff.tensor import make_rng


def _srcc_rank_formula(x, y):
    """1 - 6*sum(d^2) / (n(n^2-1)); valid only without ties."""
    rx, ry = _ranks(np.asarray(x, float)), _ranks(np.asarray(y, float))
    d = rx - ry
    n = len(x)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def _krcc_oracle(x, y):
    """Independent O(n^2) tau-b: explicit pair counting."""
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tx += 1
            if dy == 0:
                ty += 1
            if dx != 0 and dy != 0:
                if dx * dy > 0:
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))


class TestSrcc:
    def test_identity_order(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert srcc(x, x) == 1.0

    def test_reversed_order(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert srcc(x, -x) == -1.0

    def test_worked_example(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        # rank-difference formula with d^2 = (0, 1, 1, 1, 1) gives 0.8
        assert abs(srcc(x, y) - 0.8) < 1e-15

    def test_matches_rank_formula_no_ties(self):
        rng = make_rng(11)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        assert abs(srcc(x, y) - _srcc_rank_formula(x, y)) < 1e-12

    def test_matches_scipy_with_ties(self):
        rng = make_rng(12)
        x = rng.integers(0, 10, size=100).astype(float)
        y = rng.integers(0, 10, size=100).astype(float)
        ref = scipy.stats.spearmanr(x, y).statistic
        assert abs(srcc(x, y) - ref) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = make_rng(13)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        base = srcc(x, y)
        assert abs(srcc(np.exp(x), y) - base) <= 1e-12
        assert abs(srcc(x, y**3) - base) <= 1e-12

    def test_symmetry(self):
        rng = make_rng(14)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert srcc(x, y) == srcc(y, x)

    def test_constant_input_errors(self):
        with pytest.raises(NumericError):
            srcc(np.ones(5), np.arange(5.0))


class TestKrcc:
    def test_identical_order(self):
        x = np.array([0.1, 0.5, 0.9, 2.0])
        assert krcc(x, 2 * x + 1) == 1.0

    def test_worked_example(self):
        # pairs: (1,2) discordant, (1,3) and (2,3) concordant -> 1/3
        assert krcc(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0])) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_brute_force_no_ties(self):
        rng = make_rng(21)
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        assert abs(krcc(x, y) - _krcc_oracle(x, y)) < 1e-12

    def test_matches_brute_force_and_scipy_with_ties(self):
        rng = make_rng(22)
        x = rng.integers(0, 8, size=100).astype(float)
        y = rng.integers(0, 8, size=100).astype(float)
        assert abs(krcc(x, y) - _krcc_oracle(x, y)) < 1e-12
        ref = scipy.stats.kendalltau(x, y, variant="b").statistic
        assert abs(krcc(x, y) - ref) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = make_rng(23)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        assert abs(krcc(np.exp(x), y**3) - krcc(x, y)) <= 1e-12

    def test_constant_input_errors(self):
        with pytest.raises(NumericError):
            krcc(np.full(4, 2.0), np.arange(4.0))


class TestLogisticFit:
    def test_recovers_known_curve(self):
        rng = make_rng(31)
        preds = rng.uniform(-3, 3, size=200)
        true = LogisticParams(5.0, 1.0, 0.0, -2.0)
        gts = true.apply(preds)
        fitted = logistic_fit(preds, gts)
        assert not fitted.fallback
        rmse = float(np.sqrt(np.mean((fitted.apply(preds) - gts) ** 2)))
        assert rmse < 1e-6

    def test_midpoint_symmetry(self):
        p = LogisticParams(5.0, 1.0, 0.7, -2.0)
        assert p.apply(np.array([0.7]))[0] == pytest.approx((5.0 + 1.0) / 2, abs=1e-12)

    def test_monotone_cost_trace(self):
        rng = make_rng(32)
        preds = rng.standard_normal(80)
        gts = np.tanh(preds) + 0.05 * rng.standard_normal(80)
        _, trace = logistic_fit_trace(preds, gts)
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_nests_near_linear_map(self):
        rng = make_rng(33)
        preds = rng.uniform(0, 1, size=60)
        gts = 3.0 * preds + 1.0 + 0.01 * rng.standard_normal(60)
        mapped = logistic_fit(preds, gts).apply(preds)
        assert pearson(mapped, gts) >= pearson(preds, gts) - 1e-9

    def test_requires_five_points(self):
        with pytest.raises(DataError):
            logistic_fit(np.arange(4.0), np.arange(4.0))

    def test_constant_preds_error(self):
        with pytest.raises(NumericError):
            logistic_fit(np.ones(8), np.arange(8.0))


# Quality (pred, gt) pairs of a checkpoint trained one epoch on 32 planted
# rows and evaluated on 64 (synth --n 64/32 --dim 16 --seed 3, train
# --epochs 1 --patience 1): the predictions carry almost no signal and
# the logistic fit runs to a step (k4 ~ 463) that maps all of them to one
# value.
_COLLAPSE_PREDS = [
    2.4485655733566998, 2.6167663307109326, 2.0991667281585515, 2.5520211943206714,
    2.438465960385412, 2.6307990286998915, 2.5785238046339227, 2.437733913764491,
    2.353530904896673, 2.161157040300355, 2.4083174480421965, 2.7849235770694065,
    2.1309383242586115, 2.158786676866192, 2.1395683730554724, 2.705380290777727,
    2.4392910633953697, 2.484258485646727, 2.179169719241548, 2.6025493489467344,
    2.1570750322863104, 2.5249630055536727, 2.826495157725369, 2.7492687559064697,
    2.399881889003841, 2.1200822291894688, 2.607307543814124, 2.5811426982554306,
    2.116972132574944, 2.4321792335788937, 2.300426434811879, 2.3002223416213785,
    2.7802830051486023, 3.2351227010846912, 2.1600790862004464, 2.179674925808658,
    2.4230214568891806, 2.442797364163875, 2.2681156912809746, 3.0024667400163905,
    2.2854798579507745, 2.7489424300855334, 2.17845344918469, 2.29253965828612,
    2.520606870258338, 2.247570425534281, 2.605985223117846, 3.0986902872009576,
    2.107885558541759, 2.28056692388796, 2.3616660564574263, 2.595914367138598,
    2.3387129983866553, 2.629988173348925, 2.2539158969530906, 2.4643716048978743,
    2.402957940178773, 2.5890055638964746, 2.461992283034488, 2.0969997951648893,
    2.4246071837242402, 2.2693431319060964, 3.163438764152897, 3.248339498352763,
]
_COLLAPSE_GTS = [
    2.413795232772827, 3.697377920150757, 3.247666597366333, 2.160675048828125,
    2.232402801513672, 2.8316712379455566, 3.305997848510742, 2.8198585510253906,
    2.3568203449249268, 2.9454965591430664, 3.7655439376831055, 2.940582036972046,
    3.2481114864349365, 2.968242883682251, 2.890805959701538, 2.649707078933716,
    3.5895957946777344, 2.82112455368042, 2.6890857219696045, 2.790390729904175,
    2.220998764038086, 2.747582197189331, 2.962616443634033, 2.635918617248535,
    2.468315839767456, 2.7852094173431396, 3.2942864894866943, 2.9365105628967285,
    3.259186029434204, 2.7883524894714355, 2.894256591796875, 3.459383010864258,
    2.8556792736053467, 3.463566303253174, 2.3969109058380127, 2.423588514328003,
    2.60223126411438, 2.861814260482788, 2.6803925037384033, 2.737887144088745,
    3.022082805633545, 3.3169147968292236, 2.797333002090454, 2.6403112411499023,
    3.108715772628784, 2.497464656829834, 3.4247889518737793, 2.2500100135803223,
    2.5501303672790527, 2.404886484146118, 3.1294357776641846, 3.3579773902893066,
    2.335294008255005, 2.5501363277435303, 2.543052911758423, 2.8522050380706787,
    2.333549737930298, 3.603616237640381, 3.927034616470337, 3.360626697540283,
    3.0578129291534424, 3.2786478996276855, 3.279299259185791, 2.3324077129364014,
]


class TestPlcc:
    def test_collapsed_fit_falls_back_to_identity(self):
        preds, gts = np.array(_COLLAPSE_PREDS), np.array(_COLLAPSE_GTS)
        fitted = logistic_fit(preds, gts)
        mapped = fitted.apply(preds)
        assert not fitted.fallback and np.all(mapped == mapped[0])  # the fit itself collapses
        value, params = plcc(preds, gts)
        assert params.fallback
        assert value == pearson(preds, gts)
        assert abs(value - 0.0714) < 1e-3

    def test_exact_logistic_relation(self):
        rng = make_rng(41)
        preds = rng.uniform(-2, 2, size=100)
        gts = LogisticParams(4.0, 1.0, 0.2, -3.0).apply(preds)
        value, params = plcc(preds, gts)
        assert value == pytest.approx(1.0, abs=1e-6)
        assert not params.fallback

    def test_independent_noise_near_zero(self):
        rng = make_rng(42)
        preds = rng.standard_normal(1000)
        gts = rng.standard_normal(1000)
        value, _ = plcc(preds, gts)
        assert abs(value) < 0.15

    def test_beats_raw_pearson_on_monotone_nonlinear(self):
        rng = make_rng(43)
        preds = rng.uniform(-3, 3, size=300)
        gts = np.tanh(preds)
        value, _ = plcc(preds, gts)
        assert value > pearson(preds, gts)

    def test_inverted_relation_is_oriented(self):
        rng = make_rng(44)
        preds = rng.uniform(-1, 1, size=50)
        gts = -2.0 * preds + 0.01 * rng.standard_normal(50)
        value, _ = plcc(preds, gts)
        assert value > 0.99  # the fitted slope sign follows the data

    def test_bounds(self):
        rng = make_rng(45)
        for _ in range(10):
            preds = rng.standard_normal(30)
            slope = rng.uniform(-2, 2)
            gts = slope * preds + rng.standard_normal(30)
            value, _ = plcc(preds, gts)
            assert -1.0 <= value <= 1.0


class TestMedianOfTrials:
    @staticmethod
    def _result(v):
        return EvalResult({"quality": TaskMetrics(srcc=v, plcc=v / 2, krcc=v / 3, n=10)})

    def test_single_trial_is_identity(self):
        r = self._result(0.5)
        med = median_of_trials([r])
        assert med.tasks["quality"].srcc == 0.5

    def test_odd_count(self):
        med = median_of_trials([self._result(v) for v in (0.1, 0.2, 0.9)])
        assert med.tasks["quality"].srcc == pytest.approx(0.2)

    def test_matches_sort_oracle(self):
        rng = make_rng(51)
        values = rng.uniform(-1, 1, size=10)
        med = median_of_trials([self._result(float(v)) for v in values])
        s = np.sort(values)
        assert med.tasks["quality"].srcc == pytest.approx(0.5 * (s[4] + s[5]))

    def test_empty_errors(self):
        with pytest.raises(DataError):
            median_of_trials([])


def test_report_emitters_round():
    result = EvalResult(
        {
            "consistency": TaskMetrics(srcc=0.9, plcc=0.8, krcc=0.7, n=100),
            "quality": TaskMetrics(srcc=0.5, plcc=0.4, krcc=0.3, n=100),
        }
    )
    text = format_table(result)
    assert "consistency" in text and "0.9000" in text
    lines = to_jsonl(result).strip().splitlines()
    assert len(lines) == 2 and '"task": "consistency"' in lines[0]
    scatter = format_scatter(np.array([1.0]), np.array([2.0]), np.array([3.0]))
    assert scatter == "1.0 2.0 3.0\n"
