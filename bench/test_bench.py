"""Toy-size smoke run of every workload, untraced and traced, so the harness cannot rot.

Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from spans import metric_names

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = {
    "train_d64": run.TrainD64(n=48, dim=16, epochs=2, floors=None),
    "score_d512": run.ScoreD512(n=64, dim=16, ckpt_rows=64, ckpt_epochs=4),
    "extract_ppm": run.ExtractPpm(images=4, side=40, sampled=2),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_workload(name, trace, tmp_path):
    result, lines = run.run_benchmark(
        TOY[name], seed=3, seconds=0, trace=trace, work_root=tmp_path / "work", out_dir=tmp_path / "out"
    )
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if trace:
        stem = tmp_path / "out" / f"{name}-seed3"
        report = json.loads(stem.with_name(stem.name + "-trace.json").read_text())
        assert not report["missing"]
        # The summed self times equal the top-level span time, recomputed
        # here from the raw spans, and the time outside every span is a
        # small part of the traced round: the spans cover the round.
        spans = np.load(stem.with_name(stem.name + "-spans.npz"))
        top = [
            sum(spans["end"][k] - spans["start"][k] for k in range(lo, hi) if spans["parent"][k] < 0)
            for _, lo, hi in spans["phases"]
        ]
        assert report["round_self_s_sum"] == pytest.approx(np.mean(top), rel=1e-9)
        assert 0 <= report["untraced_remainder_s"] < 0.05 * report["traced_wall_s_mean"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


class ScoreWithMissingInput(run.ScoreD512):
    """The toy score workload plus one operation that must fail: predict on an absent file."""

    def round(self, s):
        phases = super().round(s)
        phases["absent"] = s.run("absent", "predict", "--data", s.path("absent.amff"),
                                 "--ckpt", s.path("ckpt/checkpoints/model.ckpt"), "--out", s.path("x.jsonl"))
        return phases


class ExtractWithoutManifest(run.ExtractPpm):
    """The toy extract workload with its only operation pointed at an absent manifest."""

    def round(self, s):
        return {"extract": s.run("extract", "extract", "--images", s.path("images"),
                                 "--manifest", s.path("absent.csv"), "--out", s.path("features.amff"))}


def test_failed_operations_are_counted(tmp_path):
    # The failed operation is counted and printed; the checks of the phases
    # that succeeded still run, so the run stays correct and reports every metric.
    toy = ScoreWithMissingInput(n=64, dim=16, ckpt_rows=64, ckpt_epochs=4)
    result, lines = run.run_benchmark(toy, seed=3, seconds=0, trace=False, work_root=tmp_path)
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert result["correct"], lines
    assert any(line.startswith("FAILED OPERATION") and "absent.amff" in line for line in lines)
    assert "checks skipped for the failed phases: absent" in lines
    assert len(result["metrics"]) == len(BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_nothing_checked_is_not_correct(tmp_path):
    toy = ExtractWithoutManifest(images=2, side=40, sampled=1)
    result, lines = run.run_benchmark(toy, seed=3, seconds=0, trace=False, work_root=tmp_path)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert not result["correct"]
    assert any("nothing was checked" in line for line in lines)


@pytest.mark.xfail(reason="metrics.plcc raises E_NUMERIC when the logistic fit saturates on "
                          "predictions with little signal", strict=False)
def test_eval_of_a_weak_checkpoint_succeeds(tmp_path):
    weak = run.ScoreD512(n=64, dim=16, ckpt_rows=32, ckpt_epochs=1)
    result, lines = run.run_benchmark(weak, seed=3, seconds=0, trace=False, work_root=tmp_path)
    assert result["failed"] == 0, lines


def test_names_match_benchmark_json():
    assert set(TOY) == set(run.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}
    assert metric_names() == [m["name"] for m in BENCHMARK["per_layer"]]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "train_d64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
