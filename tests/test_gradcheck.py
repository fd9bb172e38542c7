from pathlib import Path

import pytest

from amff import cli, gradcheck, scoring, trainer
from amff.scoring import VARIANTS

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_equals_the_golden_bytes(tmp_path, seed):
    # tests/data/gradcheck_parent holds `amff gradcheck --seed S --out` reports
    # written before the finite differences ran the forward half alone.
    assert cli.main(["gradcheck", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    report = (tmp_path / "reports" / "gradcheck.txt").read_bytes()
    assert report == (DATA / "gradcheck_parent" / f"seed{seed}.txt").read_bytes()


def test_model_check_runs_one_backward_per_variant(monkeypatch):
    # The finite differences need only the loss; the one backward per variant
    # is the analytic gradient they are checked against.
    calls = []
    backward = scoring.model_backward
    monkeypatch.setattr(trainer, "model_backward", lambda *args: calls.append(1) or backward(*args))
    results = gradcheck._check_model(0)
    assert len(calls) == len(VARIANTS) == len(results)
