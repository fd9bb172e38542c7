"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; pytest reports FAIL lines
itself.  The end-to-end pipeline (criterion 7) is run once in a
module-scoped fixture and reused; the determinism criterion reruns it
into a second directory and compares bytes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import erf

from amff import cli
from amff.aff import aff_forward, init_aff_params
from amff.dataio import synth_generate, split_per_generator, split_random
from amff.gradcheck import run_gradcheck
from amff.losses import BatchScores, fidelity_loss
from amff.metrics import LogisticParams, krcc, logistic_fit_trace, plcc, srcc, _ranks
from amff.scoring import init_model_params, model_forward
from amff.tensor import make_rng
from conftest import krcc_oracle

SEED = 7


def fidelity_oracle(preds, gts):
    """Independent double-loop evaluation of the pairwise objective."""
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


def _run(argv):
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> eval with defaults at the pinned seed."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data.amff"
    run_dir = root / "runA"
    t0 = time.monotonic()
    _run(["synth", "--out", data, "--n", 512, "--dim", 64, "--noise", 0.01, "--seed", SEED])
    _run(["train", "--data", data, "--out", run_dir, "--seed", SEED, "--split", "random:0.8"])
    _run(["eval", "--data", data, "--ckpt", run_dir / "checkpoints" / "model.ckpt",
          "--out", run_dir, "--seed", SEED, "--split", "random:0.8"])
    elapsed = time.monotonic() - t0
    rows = [json.loads(l) for l in (run_dir / "reports" / "eval.jsonl").read_text().splitlines()]
    return {"root": root, "data": data, "run": run_dir, "elapsed": elapsed,
            "srcc": {r["task"]: r["srcc"] for r in rows}}


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    worst = 0.0
    for seed in (0, 1, 2):
        results = run_gradcheck(seed)
        expected_blocks = {
            "aff.w1", "aff.b1", "aff.w2", "aff.b2", "aff.f05", "aff.f10", "aff.f15",
            "head_v.w1", "head_v.b1", "head_v.w2", "head_v.b2", "head_v.x",
            "head_a.w1", "head_a.b1", "head_a.w2", "head_a.b2", "head_a.x",
            "similarity.cosine", "similarity.euclidean", "similarity.manhattan",
            "loss.fidelity", "loss.mse",
            "model.cosine", "model.euclidean", "model.manhattan", "model.no_msi", "model.no_aff",
        }
        assert expected_blocks <= set(results)
        worst = max(worst, max(results.values()))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 30.0, f"gradcheck took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: gradcheck seeds 0-2 worst rel err {worst:.3e} in {elapsed:.1f}s")


def test_criterion_2_aff_simplex_and_envelope():
    rng = make_rng(202)
    params = init_aff_params(16, 8, rng)
    params.b1[:] = 0.1 * rng.standard_normal(8)
    params.b2[:] = 0.1 * rng.standard_normal(16)
    # 1000 samples, each scale vector drawn at its own magnitude, in one batch
    stacked = np.array(
        [[rng.standard_normal(16) * rng.uniform(0.5, 3.0) for _ in range(3)] for _ in range(1000)]
    )
    fused, cache = aff_forward(stacked, params)
    w = cache.weights
    assert np.all(w >= 0.0)
    worst_sum = float(np.max(np.abs(w.sum(axis=1) - 1.0)))
    assert np.all(fused >= stacked.min(axis=1) - 1e-12)
    assert np.all(fused <= stacked.max(axis=1) + 1e-12)
    assert worst_sum <= 1e-12
    print(f"\nACCEPTANCE 2 PASS: 1000 forwards on the simplex (worst sum dev {worst_sum:.2e})")


def test_criterion_3_aff_identity_and_no_msi_weights():
    rng = make_rng(303)
    params = init_aff_params(24, 12, rng)
    params.b1[:] = 0.2 * rng.standard_normal(12)
    f = rng.standard_normal(24)
    fused, cache = aff_forward(np.tile(f, (1, 3, 1)), params)
    dev = float(np.max(np.abs(fused[0] - f)))
    assert dev <= 1e-12
    assert np.all(cache.weights == 1.0 / 3.0)

    model = init_model_params(24, make_rng(304), hidden_aff=12, hidden_head=12)
    features = rng.standard_normal((1, 4, 24))  # f_text, f_05, f_10, f_15
    _, cache = model_forward(features, model, use_msi=False)
    assert np.all(cache.aff_cache.weights == 1.0 / 3.0)
    print(f"\nACCEPTANCE 3 PASS: identity fusion dev {dev:.2e}, w/o-MSI weights exactly 1/3")


def test_criterion_4_fidelity_loss_oracle():
    for n in (2, 3, 4, 5):
        rng = make_rng((404, n))
        preds = rng.standard_normal(n)
        gts = rng.standard_normal(n)
        loss, _ = fidelity_loss(BatchScores(preds, gts))
        assert abs(loss - fidelity_oracle(preds, gts)) <= 1e-12, f"N={n}"

    rng = make_rng(405)
    preds = rng.standard_normal(6)
    gts = rng.standard_normal(6)
    a, _ = fidelity_loss(BatchScores(preds, gts))
    b, _ = fidelity_loss(BatchScores(preds + 3.14159, gts))
    assert abs(a - b) < 1e-12

    loss, _ = fidelity_loss(BatchScores(np.array([1.0, 1.0]), np.array([2.0, 1.0])))
    expected = 2.0 * (1.0 - math.sqrt(0.5)) / 4.0
    assert abs(loss - expected) <= 1e-12
    assert abs(loss - 0.146447) < 1e-6
    print("\nACCEPTANCE 4 PASS: fidelity loss matches the pairwise oracle at 1e-12")


def test_criterion_5_rank_metric_oracles():
    rng = make_rng(505)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    # no ties: closed-form rank-difference formula
    rx, ry = _ranks(x), _ranks(y)
    d = rx - ry
    formula = 1.0 - 6.0 * float(d @ d) / (100 * (100 * 100 - 1))
    assert abs(srcc(x, y) - formula) <= 1e-12
    assert abs(krcc(x, y) - krcc_oracle(x, y)) <= 1e-12

    xt = rng.integers(0, 9, size=100).astype(float)
    yt = rng.integers(0, 9, size=100).astype(float)
    import scipy.stats

    assert abs(srcc(xt, yt) - scipy.stats.spearmanr(xt, yt).statistic) <= 1e-12
    assert abs(krcc(xt, yt) - krcc_oracle(xt, yt)) <= 1e-12
    assert abs(krcc(xt, yt) - scipy.stats.kendalltau(xt, yt, variant="b").statistic) <= 1e-12

    base_s, base_k = srcc(x, y), krcc(x, y)
    assert abs(srcc(np.exp(x), y**3) - base_s) <= 1e-12
    assert abs(krcc(np.exp(x), y**3) - base_k) <= 1e-12

    sx = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    sy = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    assert abs(srcc(sx, sy) - 0.8) <= 1e-15
    assert abs(krcc(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0])) - 1.0 / 3.0) <= 1e-15
    print("\nACCEPTANCE 5 PASS: SRCC/KRCC match oracles; worked examples 0.8 and 1/3 hold")


def test_criterion_6_logistic_fit():
    t0 = time.monotonic()
    rng = make_rng(606)
    preds = rng.uniform(-3, 3, size=200)
    true = LogisticParams(5.0, 1.0, 0.0, -2.0)
    gts = true.apply(preds)

    fitted, trace = logistic_fit_trace(preds, gts)
    assert not fitted.fallback
    rmse = float(np.sqrt(np.mean((fitted.apply(preds) - gts) ** 2)))
    assert rmse < 1e-6, f"refit RMSE {rmse:.2e}"

    value, _ = plcc(preds, gts)
    assert abs(value - 1.0) <= 1e-6

    assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:])), "cost trace not monotone"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"logistic fit took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 PASS: refit RMSE {rmse:.2e}, PLCC 1.0, monotone trace, {elapsed:.2f}s")


def test_criterion_7_end_to_end_planted_recovery(pipeline):
    s = pipeline["srcc"]
    assert s["quality"] >= 0.9, f"quality SRCC {s['quality']:.4f}"
    assert s["authenticity"] >= 0.9, f"authenticity SRCC {s['authenticity']:.4f}"
    assert s["consistency"] >= 0.8, f"consistency SRCC {s['consistency']:.4f}"
    assert pipeline["elapsed"] < 120.0, f"pipeline took {pipeline['elapsed']:.0f}s"
    print(
        f"\nACCEPTANCE 7 PASS: held-out SRCC q={s['quality']:.4f} a={s['authenticity']:.4f} "
        f"c={s['consistency']:.4f} in {pipeline['elapsed']:.0f}s"
    )


def test_criterion_8_ablation_harness(pipeline):
    out = pipeline["root"] / "ablate"
    _run(["ablate", "--data", pipeline["data"], "--out", out, "--seed", SEED,
          "--epochs", 60, "--patience", 12])
    rows = [json.loads(l) for l in (out / "reports" / "ablate.jsonl").read_text().splitlines()]
    text = (out / "reports" / "ablate.txt").read_text()
    assert "# architecture ablations" in text and "# similarity metrics" in text

    mean_by_variant = {}
    for r in rows:
        mean_by_variant[(r["section"], r["variant"])] = r["mean_srcc"]
    full = mean_by_variant[("architecture", "full")]
    for key in (("architecture", "no_msi"), ("architecture", "no_aff"),
                ("similarity", "euclidean"), ("similarity", "manhattan")):
        assert full >= mean_by_variant[key] - 0.02, f"{key}: full {full:.4f} vs {mean_by_variant[key]:.4f}"
    print(f"\nACCEPTANCE 8 PASS: full mean SRCC {full:.4f} within 0.02 of every ablation")


def test_criterion_9_determinism(pipeline):
    root = pipeline["root"]
    data_b = root / "data_b.amff"
    run_b = root / "runB"
    _run(["synth", "--out", data_b, "--n", 512, "--dim", 64, "--noise", 0.01, "--seed", SEED])
    assert data_b.read_bytes() == pipeline["data"].read_bytes()
    _run(["train", "--data", data_b, "--out", run_b, "--seed", SEED, "--split", "random:0.8"])
    _run(["eval", "--data", data_b, "--ckpt", run_b / "checkpoints" / "model.ckpt",
          "--out", run_b, "--seed", SEED, "--split", "random:0.8"])

    run_a = pipeline["run"]
    compared = []
    for rel in ("reports/train_report.json", "reports/eval.txt", "reports/eval.jsonl",
                "scatter/consistency.txt", "scatter/quality.txt", "scatter/authenticity.txt",
                "checkpoints/model.ckpt"):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), f"{rel} differs"
        compared.append(rel)

    # split counts mirror the real database sizes
    ds_random = synth_generate(2982, 8, 0.0, make_rng(1))
    train_r, test_r = split_random(ds_random, 0.8, make_rng(0))
    assert (len(train_r), len(test_r)) == (2386, 596)

    ds_gen = synth_generate(1600, 8, 0.0, make_rng(2))  # two generators, 800 each
    train_g, test_g = split_per_generator(ds_gen, 0.75, make_rng(0))
    for gen in ("gen-a", "gen-b"):
        assert train_g.generators.count(gen) == 600
        assert test_g.generators.count(gen) == 200
    print(f"\nACCEPTANCE 9 PASS: {len(compared)} report files byte-identical; split counts exact")
