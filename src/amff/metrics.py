"""Evaluation protocol: rank correlations and the logistic pre-mapping.

SRCC uses fractional (average) ranks for ties, KRCC is tau-b with tie
corrections, and PLCC is the Pearson correlation after mapping
predictions through a four-parameter logistic curve fitted by
least squares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, NumericError
from .tensor import Array, as_vector

def _ranks(x: Array) -> Array:
    """Fractional ranks (1-based); tied values share the average rank."""
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


def pearson(x, y) -> float:
    """Pearson linear correlation; errors on constant input."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.size != y.size:
        raise DataError(f"pearson: length mismatch {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError("pearson: need at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx <= 0.0 or sy <= 0.0:
        raise NumericError("pearson: correlation undefined for constant input")
    r = float(dx @ dy) / np.sqrt(sx * sy)
    return float(np.clip(r, -1.0, 1.0))


def srcc(x, y) -> float:
    """Spearman rank-order correlation with average ranks for ties."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.size != y.size:
        raise DataError(f"srcc: length mismatch {x.size} vs {y.size}")
    return pearson(_ranks(x), _ranks(y))


def krcc(x, y) -> float:
    """Kendall tau-b via full pair enumeration with tie corrections."""
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    n = x.size
    if n != y.size:
        raise DataError(f"krcc: length mismatch {n} vs {y.size}")
    if n < 2:
        raise DataError("krcc: need at least 2 points")
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


# ---------------------------------------------------------------------------
# Four-parameter logistic mapping fitted by Levenberg-Marquardt.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticParams:
    """Monotone mapping ``s~ = (k1 - k2) / (1 + exp(k4 (s - k3))) + k2``.

    With ``fallback`` set the fit did not converge and the mapping is
    the identity.
    """

    k1: float
    k2: float
    k3: float
    k4: float
    fallback: bool = False

    def apply(self, s) -> Array:
        s = np.asarray(s, dtype=np.float64)
        if self.fallback:
            return s.copy()
        t = self.k4 * (s - self.k3)
        return (self.k1 - self.k2) * _sigmoid(-t) + self.k2


def _sigmoid(t: Array) -> Array:
    """Overflow-safe logistic function."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logistic_jacobian(kappa: Array, s: Array) -> Array:
    """Analytic Jacobian of the mapped value w.r.t. (k1, k2, k3, k4)."""
    k1, k2, k3, k4 = kappa
    t = k4 * (s - k3)
    sig_neg = _sigmoid(-t)
    bump = sig_neg * _sigmoid(t)  # exp(t) / (1 + exp(t))^2, overflow-safe
    jac = np.empty((s.size, 4), dtype=np.float64)
    jac[:, 0] = sig_neg
    jac[:, 1] = 1.0 - sig_neg
    jac[:, 2] = (k1 - k2) * k4 * bump
    jac[:, 3] = -(k1 - k2) * (s - k3) * bump
    return jac


def logistic_fit_trace(preds, gts) -> tuple[LogisticParams, list[float]]:
    """Fit the logistic mapping; also return the accepted-step cost trace.

    Damping: lambda starts at 1e-3, x10 on a rejected step, /10 on an
    accepted one; convergence at relative cost change < 1e-10 or 200
    iterations.  If no step is ever accepted and damping blows up, the
    identity mapping is returned with the fallback flag set.
    """
    preds = as_vector(preds, "preds")
    gts = as_vector(gts, "gts")
    if preds.size != gts.size:
        raise DataError(f"logistic_fit: length mismatch {preds.size} vs {gts.size}")
    if preds.size < 5:
        raise DataError("logistic_fit: need at least 5 points")
    span = float(preds.max() - preds.min())
    if span <= 0.0:
        raise NumericError("logistic_fit: predictions are constant")

    # Orient the initial slope to the sign of the pred/gt covariance.
    cov = float((preds - preds.mean()) @ (gts - gts.mean()))
    k4_init = 4.0 / span if cov < 0 else -4.0 / span
    kappa = np.array([gts.max(), gts.min(), preds.mean(), k4_init])

    def cost_of(k: Array) -> float:
        r = gts - LogisticParams(*k).apply(preds)
        return float(r @ r)

    cost = cost_of(kappa)
    trace = [cost]
    lam = 1e-3
    accepted_any = False
    for _ in range(200):
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
        return LogisticParams(0.0, 0.0, 0.0, 0.0, fallback=True), trace
    return LogisticParams(*(float(v) for v in kappa)), trace


def logistic_fit(preds, gts) -> LogisticParams:
    """Least-squares fit of the four-parameter logistic mapping."""
    params, _ = logistic_fit_trace(preds, gts)
    return params


def plcc(preds, gts) -> tuple[float, LogisticParams]:
    """Pearson correlation after the fitted logistic pre-mapping.

    On predictions that carry little signal the fit can run to a step
    that maps every prediction to one value; the identity mapping
    (``fallback``) is used then, so the result is the raw correlation.
    """
    preds = np.asarray(preds, dtype=np.float64)
    params = logistic_fit(preds, gts)
    mapped = params.apply(preds)
    if np.all(mapped == mapped[0]):
        params = LogisticParams(0.0, 0.0, 0.0, 0.0, fallback=True)
        mapped = params.apply(preds)
    return pearson(mapped, gts), params


# ---------------------------------------------------------------------------
# Result aggregation and report emission.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskMetrics:
    srcc: float
    plcc: float
    krcc: float
    n: int
    logistic: LogisticParams | None = None


@dataclass(frozen=True)
class EvalResult:
    """Per-task metrics, keyed by task name in canonical order."""

    tasks: dict[str, TaskMetrics]

    def mean_srcc(self) -> float:
        return float(np.mean([t.srcc for t in self.tasks.values()]))


def _median(values: Sequence[float]) -> float:
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2 == 1:
        return float(s[mid])
    return 0.5 * (s[mid - 1] + s[mid])


def median_of_trials(results: Sequence[EvalResult]) -> EvalResult:
    """Per-task, per-metric median across repeated trials."""
    if not results:
        raise DataError("median_of_trials: empty result list")
    task_names = list(results[0].tasks)
    for r in results[1:]:
        if list(r.tasks) != task_names:
            raise DataError("median_of_trials: trials cover different tasks")
    tasks = {}
    for name in task_names:
        tasks[name] = TaskMetrics(
            srcc=_median([r.tasks[name].srcc for r in results]),
            plcc=_median([r.tasks[name].plcc for r in results]),
            krcc=_median([r.tasks[name].krcc for r in results]),
            n=int(round(_median([r.tasks[name].n for r in results]))),
            logistic=None,
        )
    return EvalResult(tasks)


def format_table(result: EvalResult, title: str = "evaluation") -> str:
    """Aligned plain-text metrics table, with fitted logistic coefficients."""
    lines = [f"# {title}", f"{'task':<14}{'srcc':>10}{'plcc':>10}{'krcc':>10}{'n':>8}"]
    for name, tm in result.tasks.items():
        lines.append(f"{name:<14}{tm.srcc:>10.4f}{tm.plcc:>10.4f}{tm.krcc:>10.4f}{tm.n:>8d}")
    for name, tm in result.tasks.items():
        if tm.logistic is not None:
            lg = tm.logistic
            lines.append(
                f"# logistic {name}: k1={lg.k1:.6g} k2={lg.k2:.6g} k3={lg.k3:.6g} k4={lg.k4:.6g}"
                + (" (fallback)" if lg.fallback else "")
            )
    return "\n".join(lines) + "\n"


def to_jsonl(result: EvalResult) -> str:
    """One JSON object per task: {task, srcc, plcc, krcc, n}."""
    lines = []
    for name, tm in result.tasks.items():
        lines.append(
            json.dumps(
                {"task": name, "srcc": tm.srcc, "plcc": tm.plcc, "krcc": tm.krcc, "n": tm.n},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def format_scatter(preds: Array, gts: Array, mapped: Array) -> str:
    """Scatter data, one `pred gt mapped_pred` triple per line."""
    rows = [f"{repr(float(p))} {repr(float(g))} {repr(float(m))}" for p, g, m in zip(preds, gts, mapped)]
    return "\n".join(rows) + "\n"
