import json
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amff import metrics
from amff.dataio import TASKS
from amff.errors import DataError, NumericError
from amff.metrics import (
    EvalResult,
    LogisticParams,
    TaskMetrics,
    _logistic_jacobian,
    _ranks,
    format_scatter,
    format_table,
    format_ablation,
    format_jsonl,
    krcc,
    logistic_fit_trace,
    median_of_trials,
    pearson,
    plcc,
    srcc,
    task_rows,
)
from amff.scoring import VARIANTS
from amff.tensor import make_rng
from conftest import krcc_oracle


def _srcc_rank_formula(x, y):
    """1 - 6*sum(d^2) / (n(n^2-1)); valid only without ties."""
    rx, ry = _ranks(np.asarray(x, float)), _ranks(np.asarray(y, float))
    d = rx - ry
    n = len(x)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def _ranks_loop(x):
    """Reference fractional ranks: walk each run of ties in sorted order."""
    n = x.size
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _tie_runs_parent(xs):
    """Boundaries of the runs of equal values in sorted ``xs`` (the run-scanning helper ``np.unique`` replaced)."""
    return np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1], [True])))


def _tied_pairs_parent(xs):
    """Number of pairs of equal values in sorted ``xs``."""
    lengths = np.diff(_tie_runs_parent(xs))
    return int((lengths * (lengths - 1) // 2).sum())


def _ranks_parent(x):
    """Reference fractional ranks from an argsort and the tie runs of the sorted values."""
    order = np.argsort(x, kind="stable")
    bounds = _tie_runs_parent(x[order])
    run_ranks = 0.5 * (bounds[:-1] + bounds[1:] - 1) + 1.0
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(run_ranks, np.diff(bounds))
    return ranks


def _pearson_parent(x, y):
    """Reference Pearson correlation on the unscaled inputs."""
    x, y = metrics._pair(x, y, "pearson", 2)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx <= 0.0 or sy <= 0.0:
        raise NumericError("pearson: correlation undefined for constant input")
    r = float(dx @ dy) / np.sqrt(sx * sy)
    return float(np.clip(r, -1.0, 1.0))


def _srcc_parent(x, y):
    x, y = metrics._pair(x, y, "srcc", 2)
    return _pearson_parent(_ranks_parent(x), _ranks_parent(y))


def _krcc_parent(x, y):
    """Reference Knight tau-b whose tie counts scan the sorted keys, x and y."""
    x, y = metrics._pair(x, y, "krcc", 2)
    n = x.size
    _, rx = np.unique(x, return_inverse=True)
    _, ry = np.unique(y, return_inverse=True)
    key = rx.astype(np.int64) * n + ry
    order = np.argsort(key)
    ties_xy = _tied_pairs_parent(key[order])
    ties_x = _tied_pairs_parent(rx[order])
    ties_y = _tied_pairs_parent(np.sort(ry))
    discordant = metrics._inversions(ry[order])
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom <= 0.0:
        raise NumericError("krcc: correlation undefined for constant input")
    numerator = n0 - ties_x - ties_y + ties_xy - 2 * discordant
    return float(np.clip(numerator / denom, -1.0, 1.0))


def _krcc_enumerated(x, y):
    """Reference tau-b from the signs of all n(n-1)/2 pair differences."""
    n = x.size
    iu = np.triu_indices(n, 1)
    sx = np.sign(x[:, None] - x[None, :])[iu]
    sy = np.sign(y[:, None] - y[None, :])[iu]
    prod = sx * sy
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    ties_x = int(np.count_nonzero(sx == 0))
    ties_y = int(np.count_nonzero(sy == 0))
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom <= 0.0:
        raise NumericError("krcc: correlation undefined for constant input")
    return float(np.clip((concordant - discordant) / denom, -1.0, 1.0))


_POOL = (-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 7.0, 1e-300)


@st.composite
def _tied_vectors(draw, count):
    """``count`` vectors of one length in 2..80 drawn from small value pools, so ties are heavy."""
    n = draw(st.integers(2, 80))
    vectors = []
    for _ in range(count):
        pool = _POOL[: draw(st.integers(1, len(_POOL)))]
        vectors.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
    return vectors


def _logistic_fit_reference(preds, gts):
    """The Levenberg-Marquardt loop that re-solved at an unmoved iterate after each rejected step.

    Returns the fit, its cost trace and the number of iterations run.
    """
    preds, gts = np.asarray(preds, float), np.asarray(gts, float)
    span = float(preds.max() - preds.min())
    cov = float((preds - preds.mean()) @ (gts - gts.mean()))
    k4_init = 4.0 / span if cov < 0 else -4.0 / span
    kappa = np.array([gts.max(), gts.min(), preds.mean(), k4_init])

    def cost_of(k):
        r = gts - LogisticParams(*k).apply(preds)
        return float(r @ r)

    cost = cost_of(kappa)
    trace = [cost]
    lam = 1e-3
    accepted_any = False
    iterations = 0
    for iterations in range(1, 201):
        residual = gts - LogisticParams(*kappa).apply(preds)
        jac = _logistic_jacobian(kappa, preds)
        jtj = jac.T @ jac
        jtr = jac.T @ residual
        diag = np.maximum(np.diag(jtj), 1e-12)
        try:
            delta = np.linalg.solve(jtj + lam * np.diag(diag), jtr)
        except np.linalg.LinAlgError:
            lam *= 10.0
            if lam > 1e12:
                break
            continue
        trial = kappa + delta
        trial_cost = cost_of(trial)
        if np.isfinite(trial_cost) and trial_cost < cost:
            rel = (cost - trial_cost) / max(cost, 1e-300)
            kappa = trial
            cost = trial_cost
            trace.append(cost)
            accepted_any = True
            lam = max(lam / 10.0, 1e-12)
            if rel < 1e-10:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if not accepted_any and cost > 0.0:
        return LogisticParams(0.0, 0.0, 0.0, 0.0, fallback=True), trace, iterations
    return LogisticParams(*(float(v) for v in kappa)), trace, iterations


def _fit_bits(params, trace):
    """A fit's coefficients and cost trace as raw float64 bytes, with its fallback flag."""
    return np.array([params.k1, params.k2, params.k3, params.k4, *trace]).tobytes(), params.fallback


@st.composite
def _fit_inputs(draw):
    """Predictions and labels of 5 to 400 rows: monotone, inverted, constant or unrelated labels, with or without ties."""
    n = draw(st.integers(5, 400))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    preds = rng.standard_normal(n)
    if draw(st.booleans()):
        preds = np.round(preds, 1)
    assume(preds.max() > preds.min())
    slope = draw(st.floats(0.25, 8.0))
    noise = draw(st.sampled_from([0.0, 0.05, 0.5]))
    labels = draw(st.sampled_from(["monotone", "inverted", "constant", "unrelated"]))
    if labels == "constant":
        gts = np.full(n, draw(st.sampled_from([0.0, 1.0, 3.5])))
    elif labels == "unrelated":
        gts = rng.uniform(1.0, 5.0, n)
    else:
        sign = 1.0 if labels == "monotone" else -1.0
        gts = 1.0 + 4.0 / (1.0 + np.exp(-sign * slope * preds)) + noise * rng.standard_normal(n)
    if draw(st.booleans()):
        gts = np.round(gts)
    return preds, gts


# Small integer values, -0.0 and 0.0 among them, so ties are heavy and signed zeros tie.
_INT_POOL = (-0.0, 0.0, 1.0, -1.0, 2.0, 3.0, -4.0, 6.0)


@st.composite
def _int_vectors(draw):
    """Two vectors of one length in 2..500 drawn from the first k values of ``_INT_POOL``."""
    n = draw(st.integers(2, 500))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    pools = [np.array(_INT_POOL[: draw(st.integers(1, len(_INT_POOL)))]) for _ in range(2)]
    return [pool[rng.integers(0, pool.size, n)] for pool in pools]


def _repr_outcome(fn, *args):
    """``repr`` of what ``fn(*args)`` returns (as a list, for an array), or the type and message it raises."""
    try:
        out = fn(*args)
    except (DataError, NumericError) as exc:
        return type(exc), str(exc)
    return repr(out.tolist() if isinstance(out, np.ndarray) else out)


class TestAgainstParent:
    """Ranks and tie counts from ``np.unique`` equal the run-scanning code they replaced, by repr."""

    @settings(max_examples=300, deadline=None)
    @given(_int_vectors())
    @example([np.full(9, 2.0), np.arange(9.0)])
    @example([np.arange(6.0), np.full(6, -0.0)])
    @example([np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, 0.0, 1.0, 1.0])])
    @example([np.full(500, 3.0), np.full(500, 3.0)])
    def test_ranks_srcc_and_krcc(self, vectors):
        x, y = vectors
        assert _repr_outcome(_ranks, x) == _repr_outcome(_ranks_parent, x)
        assert _repr_outcome(_ranks, y) == _repr_outcome(_ranks_parent, y)
        assert _repr_outcome(srcc, x, y) == _repr_outcome(_srcc_parent, x, y)
        assert _repr_outcome(krcc, x, y) == _repr_outcome(_krcc_parent, x, y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 400), st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 2**32 - 1))
    def test_pearson_at_ordinary_scales(self, n, ex, ey, seed):
        # Power-of-two scaling changes no bit while the unscaled sums stay in range.
        rng = make_rng(seed)
        base = rng.standard_normal(n)
        x = base * 10.0**ex
        y = (rng.uniform(-2.0, 2.0) * base + rng.standard_normal(n)) * 10.0**ey
        assert _repr_outcome(pearson, x, y) == _repr_outcome(_pearson_parent, x, y)


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(_tied_vectors(1))
    @example([np.full(7, 3.0)])
    def test_ranks_equal_the_loop(self, vectors):
        (x,) = vectors
        assert np.array_equal(_ranks(x), _ranks_loop(x))

    @settings(max_examples=300, deadline=None)
    @given(_tied_vectors(2))
    @example([np.full(5, 2.0), np.full(5, 2.0)])
    @example([np.full(5, 2.0), np.arange(5.0)])
    @example([np.arange(5.0), np.full(5, -0.0)])
    def test_krcc_equals_pair_enumeration(self, vectors):
        x, y = vectors
        try:
            expected = _krcc_enumerated(x, y)
        except NumericError:
            with pytest.raises(NumericError):
                krcc(x, y)
        else:
            assert krcc(x, y) == expected


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


class TestPearson:
    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e301, 1e307])
    def test_matches_scipy_near_the_float_limits(self, scale):
        # Unscaled, ``dx @ dx`` overflows from about 1e154 and underflows below 1e-162.
        rng = make_rng(41)
        x = rng.standard_normal(60)
        y = x + rng.standard_normal(60)
        ref = scipy.stats.pearsonr(x, y).statistic
        assert abs(pearson(x * scale, y) - ref) <= 1e-12
        assert abs(pearson(x * scale, y * scale) - ref) <= 1e-12

    def test_mean_beyond_the_float_range(self):
        # The sum of these values overflows float64; the scaled values' does not.
        x = np.array([1.7e308, 1.7e308, -1.7e308, 1.0e308, 1.5e308])
        y = np.array([1.0, 2.0, 0.0, 3.0, 4.0])
        ref = scipy.stats.pearsonr(x / 4, y).statistic
        assert abs(pearson(x, y) - ref) <= 1e-12


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
        assert abs(krcc(x, y) - krcc_oracle(x, y)) < 1e-12

    def test_matches_brute_force_and_scipy_with_ties(self):
        rng = make_rng(22)
        x = rng.integers(0, 8, size=100).astype(float)
        y = rng.integers(0, 8, size=100).astype(float)
        assert abs(krcc(x, y) - krcc_oracle(x, y)) < 1e-12
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

    def test_memory_is_linear(self):
        rng = make_rng(24)
        x = rng.standard_normal(3000)
        y = x + rng.standard_normal(3000)
        tracemalloc.start()
        try:
            krcc(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_matches_scipy_at_large_n_with_ties(self):
        rng = make_rng(25)
        x = rng.integers(0, 50, size=100_000).astype(float)
        y = rng.integers(0, 50, size=100_000).astype(float)
        ref = scipy.stats.kendalltau(x, y, variant="b").statistic
        assert abs(krcc(x, y) - ref) <= 1e-12


class TestLogisticFit:
    def test_recovers_known_curve(self):
        rng = make_rng(31)
        preds = rng.uniform(-3, 3, size=200)
        true = LogisticParams(5.0, 1.0, 0.0, -2.0)
        gts = true.apply(preds)
        fitted, _ = logistic_fit_trace(preds, gts)
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
        mapped = logistic_fit_trace(preds, gts)[0].apply(preds)
        assert pearson(mapped, gts) >= pearson(preds, gts) - 1e-9

    def test_requires_five_points(self):
        with pytest.raises(DataError):
            logistic_fit_trace(np.arange(4.0), np.arange(4.0))

    def test_constant_preds_error(self):
        with pytest.raises(NumericError):
            logistic_fit_trace(np.ones(8), np.arange(8.0))


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


class TestLogisticFitAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(_fit_inputs())
    @example((np.array(_COLLAPSE_PREDS), np.array(_COLLAPSE_GTS)))
    def test_equals_the_reference_loop_bit_for_bit(self, inputs):
        fitted, trace = logistic_fit_trace(*inputs)
        expected, expected_trace, _ = _logistic_fit_reference(*inputs)
        assert _fit_bits(fitted, trace) == _fit_bits(expected, expected_trace)

    @pytest.mark.parametrize("case", ["collapse", "inverted", "unrelated", "constant_labels"])
    def test_jacobian_runs_once_per_iterate(self, monkeypatch, case):
        preds = make_rng(34).standard_normal(80)
        inputs = {
            "collapse": (np.array(_COLLAPSE_PREDS), np.array(_COLLAPSE_GTS)),
            "inverted": (preds, -np.tanh(2.0 * preds) + 0.3 * make_rng(36).standard_normal(80)),
            "unrelated": (preds, make_rng(35).uniform(1.0, 5.0, 80)),  # runs all 200 iterations
            "constant_labels": (preds, np.full(80, 2.0)),  # accepts no step
        }[case]
        _, reference_trace, iterations = _logistic_fit_reference(*inputs)
        assert iterations > len(reference_trace)  # the fit rejects some steps
        calls = []
        jacobian = metrics._logistic_jacobian
        monkeypatch.setattr(metrics, "_logistic_jacobian", lambda *args: calls.append(1) or jacobian(*args))
        _, trace = logistic_fit_trace(*inputs)
        # Once for the initial iterate and once per accepted step, none for a rejected one.
        assert len(calls) == len(trace)


class TestPlcc:
    def test_collapsed_fit_falls_back_to_identity(self):
        preds, gts = np.array(_COLLAPSE_PREDS), np.array(_COLLAPSE_GTS)
        fitted, _ = logistic_fit_trace(preds, gts)
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
    lines = format_jsonl(task_rows(result)).strip().splitlines()
    assert len(lines) == 2 and '"task": "consistency"' in lines[0]
    scatter = format_scatter(np.array([1.0]), np.array([2.0]), np.array([3.0]))
    assert scatter == "1.0 2.0 3.0\n"


def _strict_json_rows(jsonl: str) -> list:
    """Every line of ``jsonl`` as JSON, refusing the NaN and Infinity that RFC 8259 leaves out."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return [json.loads(line, parse_constant=refuse) for line in jsonl.splitlines()]


class TestFormatAblation:
    @staticmethod
    def _trained(tasks):
        """One (variant, result) pair per ``VARIANTS`` entry, every SRCC telling its variant and task apart."""
        return [
            (variant, EvalResult({t: TaskMetrics(srcc=0.1 * (i + 1) + 0.01 * k, plcc=0.0, krcc=0.0, n=10)
                                  for k, t in enumerate(tasks)}))
            for i, variant in enumerate(VARIANTS)
        ]

    def test_both_sections_name_each_variant_once(self):
        trained = self._trained(TASKS)
        text, jsonl = format_ablation(trained)
        architecture, similarity = text.split("\n\n")
        assert [line.split()[0] for line in architecture.splitlines()[2:]] == ["full", "no_msi", "no_aff"]
        assert [line.split()[0] for line in similarity.splitlines()[2:]] == ["cosine", "euclidean", "manhattan"]
        index = {name: i for i, (name, *_) in enumerate(VARIANTS)} | {"full": 0}
        rows = _strict_json_rows(jsonl)
        assert [(r["section"], r["variant"], r["task"]) for r in rows] == [
            *(("architecture", v, t) for v in ("full", "no_msi", "no_aff") for t in TASKS),
            *(("similarity", v, "consistency") for v in ("cosine", "euclidean", "manhattan")),
        ]
        for r in rows:
            result = trained[index[r["variant"]]][1]
            assert (r["srcc"], r["mean_srcc"]) == (result.tasks[r["task"]].srcc, result.mean_srcc())

    def test_no_similarity_section_without_consistency_labels(self):
        text, jsonl = format_ablation(self._trained(("quality", "authenticity")))
        assert "similarity" not in text and "nan" not in text
        assert text.splitlines()[2:] == [
            "full                0.1000        0.1100    0.1050",
            "no_msi              0.4000        0.4100    0.4050",
            "no_aff              0.5000        0.5100    0.5050",
        ]
        rows = _strict_json_rows(jsonl)
        assert [(r["section"], r["variant"]) for r in rows] == [
            ("architecture", v) for v in ("full", "no_msi", "no_aff") for _ in range(2)
        ]

    def test_only_the_variants_trained_are_reported(self):
        # ablate trains only the cosine variants on data without any q_c label.
        all_five = self._trained(("quality", "authenticity"))
        cosine = [(variant, result) for variant, result in all_five if variant[1] == "cosine"]
        assert len(cosine) == 3
        assert format_ablation(cosine) == format_ablation(all_five)
