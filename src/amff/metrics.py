"""Evaluation protocol: rank correlations and the logistic pre-mapping.

SRCC uses fractional (average) ranks for ties, KRCC is tau-b with tie
corrections, and PLCC is the Pearson correlation after mapping
predictions through a four-parameter logistic curve fitted by
least squares.  Both rank correlations sort instead of comparing pairs:
ranks and tie counts come from the counts of equal values that
``np.unique`` returns, and KRCC counts discordant pairs with Knight's
merge-sort algorithm, so all three metrics take O(n log n) time and
O(n) memory.  Pearson scales each input by a power of two before it
sums, which changes no bit of an ordinary result and keeps inputs near
the float64 limits from overflowing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, NumericError
from .tensor import Array, as_vector

# The fewest points the four-parameter logistic fit, and so PLCC, accepts.
LOGISTIC_MIN_POINTS = 5


def _tied_pairs(counts: Array) -> int:
    """Number of pairs of equal values, given how many times each distinct value occurs."""
    return int((counts * (counts - 1) // 2).sum())


def _ranks(x: Array) -> Array:
    """Fractional ranks (1-based); tied values share the average rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _inversions(a: Array) -> int:
    """Number of pairs ``i < j`` with ``a[i] > a[j]``, for integers in ``[0, a.size)``.

    Bottom-up merge sort on a copy padded with ``a.size`` to a power of
    two (padding at the end adds no inversion).  At each level every
    block of ``2 * width`` holds two sorted halves; offsetting each block
    by ``block * (a.size + 1)`` makes all left halves one sorted array,
    so a single ``searchsorted`` counts, for every element of a right
    half, the elements of its left half that are greater.
    """
    n = a.size
    size = 1 << (n - 1).bit_length()
    buf = np.full(size, n, dtype=np.int64)
    buf[:n] = a
    total = 0
    width = 1
    while width < size:
        halves = np.sort(buf.reshape(-1, width), axis=1).reshape(-1, 2, width)
        block = np.arange(halves.shape[0], dtype=np.int64)[:, None]
        left = (halves[:, 0] + block * (n + 1)).ravel()
        right = halves[:, 1] + block * (n + 1)
        not_greater = np.searchsorted(left, right.ravel(), side="right").reshape(right.shape)
        total += int((width - (not_greater - block * width)).sum())
        buf = halves.ravel()
        width *= 2
    return total


def _pair(x, y, who: str, least: int) -> tuple[Array, Array]:
    """``x`` and ``y`` as finite vectors of one length, at least ``least`` long; errors begin ``who:``."""
    x = as_vector(x, f"{who}: x")
    y = as_vector(y, f"{who}: y")
    if x.size != y.size:
        raise DataError(f"{who}: length mismatch {x.size} vs {y.size}")
    if x.size < least:
        raise DataError(f"{who}: need at least {least} points")
    return x, y


def _unit_scaled(v: Array) -> Array:
    """``v`` times the power of two that brings its largest magnitude into [0.5, 1).

    The scaling is exact, so sums and products of the result are those of
    ``v``, scaled, wherever those of ``v`` neither overflow nor turn
    subnormal.
    """
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def pearson(x, y) -> float:
    """Pearson linear correlation; errors on constant input."""
    x, y = _pair(x, y, "pearson", 2)
    # r does not depend on the scale of either input; scaled, no sum below can overflow.
    x, y = _unit_scaled(x), _unit_scaled(y)
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
    x, y = _pair(x, y, "srcc", 2)
    return pearson(_ranks(x), _ranks(y))


def krcc(x, y) -> float:
    """Kendall tau-b with tie corrections, by Knight's O(n log n) algorithm.

    Knight (1966, JASA 61:436), as in ``scipy.stats.kendalltau``: sort the
    pairs by (x, y); the discordant pairs are then the inversions of the
    sorted y, and the tied pairs come from how often each x, y and (x, y)
    key occurs.  The numerator ``concordant - discordant`` is the Python integer
    ``n0 - ties_x - ties_y + ties_xy - 2 * discordant`` and the
    denominator is formed as in full pair enumeration, so the result is
    bit-identical to it while using O(n) memory.
    """
    x, y = _pair(x, y, "krcc", 2)
    n = x.size
    _, rx, counts_x = np.unique(x, return_inverse=True, return_counts=True)
    _, ry, counts_y = np.unique(y, return_inverse=True, return_counts=True)
    key = rx.astype(np.int64) * n + ry
    ties_x, ties_y = _tied_pairs(counts_x), _tied_pairs(counts_y)
    ties_xy = _tied_pairs(np.unique(key, return_counts=True)[1])
    discordant = _inversions(ry[np.argsort(key)])
    n0 = n * (n - 1) // 2
    denom = np.sqrt(float(n0 - ties_x) * float(n0 - ties_y))
    if denom <= 0.0:
        raise NumericError("krcc: correlation undefined for constant input")
    numerator = n0 - ties_x - ties_y + ties_xy - 2 * discordant
    return float(np.clip(numerator / denom, -1.0, 1.0))


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


def _normal_equations(kappa: Array, s: Array, residual: Array) -> tuple[Array, Array, Array]:
    """``J^T J``, ``J^T r`` and the damping matrix ``diag(J^T J)`` of the fit at ``kappa``."""
    jac = _logistic_jacobian(kappa, s)
    jtj = jac.T @ jac
    return jtj, jac.T @ residual, np.diag(np.maximum(np.diag(jtj), 1e-12))


def logistic_fit_trace(preds, gts) -> tuple[LogisticParams, list[float]]:
    """Fit the logistic mapping; also return the accepted-step cost trace.

    Damping: lambda starts at 1e-3, x10 on a rejected step, /10 on an
    accepted one; convergence at relative cost change < 1e-10 or 200
    iterations.  Each iterate's residual and normal equations are
    computed once, when the fit moves to it.  If no step is ever accepted
    and damping blows up, the identity mapping is returned with the
    fallback flag set.
    """
    preds, gts = _pair(preds, gts, "logistic_fit", LOGISTIC_MIN_POINTS)
    span = float(preds.max() - preds.min())
    if span <= 0.0:
        raise NumericError("logistic_fit: predictions are constant")

    # Orient the initial slope to the sign of the pred/gt covariance.
    cov = float((preds - preds.mean()) @ (gts - gts.mean()))
    k4_init = 4.0 / span if cov < 0 else -4.0 / span
    kappa = np.array([gts.max(), gts.min(), preds.mean(), k4_init])
    residual = gts - LogisticParams(*kappa).apply(preds)
    cost = float(residual @ residual)
    trace = [cost]
    jtj, jtr, damping = _normal_equations(kappa, preds, residual)
    lam = 1e-3
    for _ in range(200):
        try:
            trial = kappa + np.linalg.solve(jtj + lam * damping, jtr)
        except np.linalg.LinAlgError:
            trial_cost = np.inf
        else:
            trial_residual = gts - LogisticParams(*trial).apply(preds)
            trial_cost = float(trial_residual @ trial_residual)
        # The one rejection test: a singular system's cost is inf, and NaN compares false.
        if trial_cost < cost:
            rel = (cost - trial_cost) / max(cost, 1e-300)
            kappa, residual, cost = trial, trial_residual, trial_cost
            trace.append(cost)
            jtj, jtr, damping = _normal_equations(kappa, preds, residual)
            lam = max(lam / 10.0, 1e-12)
            if rel < 1e-10:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    if len(trace) == 1 and cost > 0.0:
        return LogisticParams(0.0, 0.0, 0.0, 0.0, fallback=True), trace
    return LogisticParams(*(float(v) for v in kappa)), trace


def plcc(preds, gts) -> tuple[float, LogisticParams]:
    """Pearson correlation after the fitted logistic pre-mapping.

    On predictions that carry little signal the fit can run to a step
    that maps every prediction to one value; the identity mapping
    (``fallback``) is used then, so the result is the raw correlation.
    """
    preds = np.asarray(preds, dtype=np.float64)
    params, _ = logistic_fit_trace(preds, gts)
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
            srcc=float(np.median([r.tasks[name].srcc for r in results])),
            plcc=float(np.median([r.tasks[name].plcc for r in results])),
            krcc=float(np.median([r.tasks[name].krcc for r in results])),
            n=int(round(np.median([r.tasks[name].n for r in results]))),
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


def format_ablation(trained: Sequence[tuple[tuple, EvalResult]]) -> tuple[str, str]:
    """The ablation report as text and as JSONL, from the ``(variant, result)`` pairs trained, in their order.

    A variant is a ``scoring.VARIANTS`` entry.  Fusion variants under cosine similarity come first, the full
    model labelled "full"; then the similarity kinds under full fusion, unless there is no consistency task,
    where a kind shapes only the unread ``s_c``.
    """
    tasks = list(trained[0][1].tasks)
    lines = ["# architecture ablations (SRCC per task)"]
    lines.append(f"{'variant':<12}" + "".join(f"{t:>14}" for t in tasks) + f"{'mean':>10}")
    rows = []
    for (name, kind, _, _), r in trained:
        if kind == "cosine":
            label = "full" if name == "cosine" else name
            srccs = "".join(f"{r.tasks[t].srcc:>14.4f}" for t in tasks)
            lines.append(f"{label:<12}{srccs}{r.mean_srcc():>10.4f}")
            rows += ({"section": "architecture", "variant": label, "task": t, "srcc": r.tasks[t].srcc,
                      "mean_srcc": r.mean_srcc()} for t in tasks)
    if "consistency" in tasks:
        lines += ["", "# similarity metrics (consistency SRCC)", f"{'metric':<12}{'consistency':>14}{'mean':>10}"]
        for (name, _, use_msi, use_aff), r in trained:
            if use_msi and use_aff:
                cons = r.tasks["consistency"].srcc
                lines.append(f"{name:<12}{cons:>14.4f}{r.mean_srcc():>10.4f}")
                rows.append({"section": "similarity", "variant": name, "task": "consistency", "srcc": cons,
                             "mean_srcc": r.mean_srcc()})
    return "\n".join(lines) + "\n", format_jsonl(rows)


def format_jsonl(rows: Iterable[dict]) -> str:
    """One JSON object per row, keys sorted, each line newline-terminated."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def task_rows(result: EvalResult) -> Iterator[dict]:
    """One row per task, {task, srcc, plcc, krcc, n}: ``eval.jsonl``'s lines, and ``trials.jsonl``'s with a seed."""
    for name, tm in result.tasks.items():
        yield {"task": name, "srcc": tm.srcc, "plcc": tm.plcc, "krcc": tm.krcc, "n": tm.n}


def to_jsonl(result: EvalResult) -> str:
    """One JSON object per task: the rows of ``task_rows``."""
    return format_jsonl(task_rows(result))


def format_scatter(preds: Array, gts: Array, mapped: Array) -> str:
    """Scatter data, one `pred gt mapped_pred` triple per line."""
    rows = [f"{repr(float(p))} {repr(float(g))} {repr(float(m))}" for p, g, m in zip(preds, gts, mapped)]
    return "\n".join(rows) + "\n"
