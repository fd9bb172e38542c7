"""Training loop: AdamW, mini-batches, LR drop, early stopping, checkpoints.

Labels for the MSE-trained tasks are normalized to [0, 1] by the
training set's min/max and predictions are denormalized on the way out.
Targets are one block with a column per task in ``TASKS`` order, like
the model's scores; a task mask leaves out the tasks whose labels are
absent, and the pairwise task on a one-row batch.
All randomness is derived from (seed, purpose-tag) seed sequences, so
every epoch is reproducible in isolation and training can resume from a
checkpoint bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .dataio import TASKS, Dataset, split_random
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .losses import LossBundle, total_loss
from .metrics import LOGISTIC_MIN_POINTS, EvalResult, TaskMetrics, krcc, plcc, srcc
from .scoring import (
    SIMILARITY_KINDS,
    ModelCache,
    ModelParams,
    init_model_params,
    model_backward,
    model_forward,
    param_layout,
)
from .tensor import Array, _round_half_up, make_rng

# AdamW moment hyperparameters.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Seed-derivation tags for independent substreams.
_TAG_INIT, _TAG_VALSPLIT, _TAG_EPOCH = 11, 12, 13

_CKPT_MAGIC = b"AMFK"
_CKPT_VERSION = 1

# Rows per forward pass outside training (validation, evaluation,
# prediction).  A chunk's features are a view of the dataset's block, which
# ``model_forward`` widens to float64 a chunk at a time, so this bounds the
# activations and the widened copy a pass holds.  It is one of the forward's
# 64-row blocks, so no chunk is padded but the last.
SCORE_CHUNK = 64

# Elements of the flat buffers ``adamw_step`` updates at once, and the size
# of each of its two scratch buffers (256 KiB each).
_ADAMW_SLICE = 32768


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 120
    lr: float = 5e-4
    lr_drop_epoch: int = 80  # the learning rate is lr / 10 from this epoch on
    weight_decay: float = 1e-2
    early_stop_patience: int = 20
    seed: int = 0
    similarity: str = "cosine"
    use_msi: bool = True
    use_aff: bool = True
    val_fraction: float = 0.1
    hidden_aff: int = 256
    hidden_head: int = 256

    def __post_init__(self):
        # A float field takes any real number; every other field its default's exact type.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float):
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            else:
                ok = type(value) is type(f.default)
            if not ok:
                raise ConfigError(f"TrainConfig: {f.name} must be {type(f.default).__name__}, got {value!r}")
        if min(self.batch_size, self.max_epochs, self.lr_drop_epoch, self.hidden_aff, self.hidden_head) < 1:
            raise ConfigError("TrainConfig: counts and hidden sizes must be positive")
        # lr == 0 is allowed for diagnostics (freezes parameters).
        for name in ("lr", "weight_decay"):
            x = getattr(self, name)
            try:
                ok = math.isfinite(x) and x >= 0
            except OverflowError:  # an int too large for a float, maybe for str() too
                ok, x = False, "an int beyond the float range"
            if not ok:
                raise ConfigError(f"TrainConfig: {name} must be finite and >= 0, got {x}")
        if self.early_stop_patience < 1:
            raise ConfigError("TrainConfig: early_stop_patience must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("TrainConfig: val_fraction must be in (0, 1)")
        if self.similarity not in SIMILARITY_KINDS:
            raise ConfigError(f"TrainConfig: unknown similarity {self.similarity!r}")


@dataclass
class OptimizerState:
    """First/second moment accumulators, laid out like the parameters, plus the step count."""

    m: ModelParams | None  # None, with v, in a checkpoint loaded with best_only
    v: ModelParams | None
    step: int = 0

    @cached_property
    def scratch(self) -> tuple[Array, Array]:
        """Space for the update of one slice, so a step allocates no temporaries."""
        return np.empty(_ADAMW_SLICE), np.empty(_ADAMW_SLICE)

    @staticmethod
    def zeros_like(params: ModelParams) -> "OptimizerState":
        return OptimizerState(m=params.zeros_like(), v=params.zeros_like())


def adamw_step(
    params: ModelParams,
    grads: ModelParams,
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update of the whole buffer, in place.

    The whole gradient is checked before anything is written.  The update
    then runs ``_ADAMW_SLICE`` elements at a time; every operation is
    elementwise, so each element gets the same result as from one pass
    over the whole buffer.
    """
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    if not (g.shape == m.shape == v.shape == p.shape):
        raise ShapeError(f"adamw_step: grad {g.shape} and moments do not match params {p.shape}")
    if not np.all(np.isfinite(g)):
        bad = next(name for name, a in grads.named_arrays() if not np.all(np.isfinite(a)))
        raise NumericError(f"adamw_step: non-finite gradient in {bad}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    decay = 1.0 - lr * weight_decay
    for lo in range(0, p.size, _ADAMW_SLICE):
        part = slice(lo, lo + _ADAMW_SLICE)
        ps, gs, ms, vs = p[part], g[part], m[part], v[part]
        a, b = (s[: ps.size] for s in state.scratch)
        ms *= BETA1
        ms += np.multiply(1.0 - BETA1, gs, out=a)
        vs *= BETA2
        vs += np.multiply(np.multiply(1.0 - BETA2, gs, out=a), gs, out=a)
        # Decay is decoupled: applied to the parameter, not the gradient.
        ps *= decay
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time.
        np.multiply(lr, np.divide(ms, bc1, out=a), out=a)
        np.add(np.sqrt(np.divide(vs, bc2, out=b), out=b), ADAM_EPS, out=b)
        ps -= np.divide(a, b, out=a)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss_total: float
    loss_c: float
    loss_v: float
    loss_a: float
    val_srcc: dict[str, float]
    val_mean: float


def params_checksum(params: ModelParams) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name, a in params.named_arrays():
        h.update(name.encode())
        h.update(np.asarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _normalize(values: Array, lo: float, hi: float) -> Array:
    span = hi - lo
    if span <= 0.0:
        return np.full_like(values, 0.5)
    return (values - lo) / span


def _denormalize(values: Array, lo: float, hi: float) -> Array:
    span = hi - lo
    return lo + values * span if span > 0.0 else np.full_like(values, lo)


def score_dataset(params: ModelParams, dataset: Dataset, *, label_ranges: dict | None = None) -> Array:
    """(N, 3) scores of every row by the model ``params``, columns in ``TASKS`` order.

    Rows are scored ``SCORE_CHUNK`` at a time.  Head scores are
    denormalized through ``label_ranges`` (the training-time label
    min/max) when it is given, so they live on the label scale.  A
    non-finite score raises ``NumericError`` naming its row and task.
    """
    scores = np.empty((len(dataset), len(TASKS)))
    for lo in range(0, len(dataset), SCORE_CHUNK):
        chunk = dataset.features[lo : lo + SCORE_CHUNK]
        scores[lo : lo + len(chunk)] = model_forward(chunk, params)[0]
    for k, task in enumerate(TASKS):
        if task != "consistency" and label_ranges and label_ranges.get(task):
            scores[:, k] = _denormalize(scores[:, k], *label_ranges[task])
    if not np.isfinite(scores).all():
        i, k = np.argwhere(~np.isfinite(scores))[0]
        raise NumericError(f"score_dataset: row {dataset.ids[i]!r}: non-finite {TASKS[k]} score")
    return scores


def _validation_srcc(params: ModelParams, dataset: Dataset, active: Array) -> dict[str, float]:
    scores = score_dataset(params, dataset)
    out: dict[str, float] = {}
    for k, task in enumerate(TASKS):
        if not active[k]:
            continue
        try:
            out[task] = srcc(scores[:, k], dataset.labels[:, k])
        except NumericError:
            continue  # constant predictions or labels; treated as no signal
    return out


def batch_loss(params: ModelParams, features: Array, targets: Array, active) -> tuple[LossBundle, ModelCache]:
    """The mini-batch objective a training step descends, ``total_loss`` of the model's scores, and the forward cache.

    ``features`` is a (B, 4, D) block, ``targets`` its (B, 3) targets and
    ``active`` the task mask, all in ``TASKS`` order.
    """
    scores, cache = model_forward(features, params)
    return total_loss(scores, targets, active), cache


def batch_objective(params: ModelParams, features: Array, targets: Array, active) -> tuple[LossBundle, ModelParams]:
    """``batch_loss`` and its gradient."""
    bundle, cache = batch_loss(params, features, targets, active)
    return bundle, model_backward(cache, params, bundle.grad)


def train(dataset: Dataset, cfg: TrainConfig, resume_from=None) -> Checkpoint:
    """Train on ``dataset`` (internally held-out validation for early stop).

    The run is one ``Checkpoint`` from its first epoch to its last: a fresh
    one at the initial parameters, or the one ``save_checkpoint`` wrote to
    ``resume_from``, which continues under the same schedule.  Each epoch
    extends its history and, when validation improves, its best
    parameters; the same record is returned.
    """
    dim = dataset.dim
    # The task mask, in TASKS order; the pairwise loss ranks S_C against q_c.
    active = ~np.isnan(dataset.labels).any(axis=0)
    if not active.any():
        raise DataError("train: dataset has no fully present label for any task")

    # The validation side's size by the split's own rule, checked before the split refuses an empty side.
    n_val = len(dataset) - _round_half_up((1.0 - cfg.val_fraction) * len(dataset))
    if n_val < 2:
        raise DataError(
            f"train: the validation side holds {n_val} row(s) at val_fraction {cfg.val_fraction}; "
            "the validation SRCC needs at least 2"
        )
    core, val = split_random(dataset, 1.0 - cfg.val_fraction, make_rng((cfg.seed, _TAG_VALSPLIT)))
    ranges = dataset.label_ranges

    if resume_from is not None:
        run = load_checkpoint(resume_from)
        _check_resume_compat(run, cfg, dim, ranges)
        run.config = cfg
    else:
        initial = init_model_params(
            dim,
            make_rng((cfg.seed, _TAG_INIT)),
            hidden_aff=cfg.hidden_aff,
            hidden_head=cfg.hidden_head,
            similarity=cfg.similarity,
            use_msi=cfg.use_msi,
            use_aff=cfg.use_aff,
        )
        run = Checkpoint(
            params=initial.copy(),
            final_params=initial,
            opt_state=OptimizerState.zeros_like(initial),
            config=cfg,
            label_ranges=ranges,
            history=[],
        )
    params, opt = run.final_params, run.opt_state

    # Per-row targets, columns in TASKS order: the raw label ranks the
    # pairwise loss, the MSE tasks regress onto labels normalized to [0, 1];
    # a masked column is never read.
    targets = core.labels.copy()
    for k in (1, 2):
        if active[k]:
            targets[:, k] = _normalize(targets[:, k], *ranges[TASKS[k]])

    for epoch in range(run.last_epoch + 1, cfg.max_epochs + 1):
        lr_e = cfg.lr if epoch < cfg.lr_drop_epoch else cfg.lr / 10.0
        perm = make_rng((cfg.seed, _TAG_EPOCH, epoch)).permutation(len(core))
        sums = np.zeros(4)  # total loss, then the per-task losses
        n_batches = 0
        for b0 in range(0, len(perm), cfg.batch_size):
            rows = perm[b0 : b0 + cfg.batch_size]
            batch_active = active & (rows.size >= 2, True, True)
            if not batch_active.any():
                continue  # singleton tail batch with only the pairwise task, which needs two rows
            try:
                bundle, grads = batch_objective(params, core.features[rows], targets[rows], batch_active)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {n_batches}: {exc}") from exc
            adamw_step(params, grads, opt, lr_e, cfg.weight_decay)
            sums += (bundle.total, *bundle.losses)
            n_batches += 1

        if n_batches == 0:
            raise DataError(
                "train: no trainable batches (pairwise loss needs at least 2 samples per batch)"
            )
        val_srcc = _validation_srcc(params, val, active)
        val_mean = float(np.mean(list(val_srcc.values()))) if val_srcc else -1.0
        run.history.append(EpochStats(epoch, lr_e, *(sums / n_batches).tolist(), val_srcc, val_mean))
        if run.best_epoch == epoch:
            run.params = params.copy()
        if run.stopping_reason == "early_stop":
            break
    return run


# ---------------------------------------------------------------------------
# Evaluation, and the trial protocol of `trials` and `ablate`.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterData:
    preds: Array
    gts: Array
    mapped: Array


def _scored_tasks(dataset: Dataset) -> dict[int, Array]:
    """The ``TASKS`` column of each task ``evaluate_model`` scores on ``dataset``, with its mask of labelled rows.

    A task with no label is left out; one with fewer than
    ``LOGISTIC_MIN_POINTS``, or a dataset with no label at all, is refused.
    """
    scored = {}
    for k, task in enumerate(TASKS):
        labelled = ~np.isnan(dataset.labels[:, k])
        n = int(labelled.sum())
        if n == 0:
            continue
        if n < LOGISTIC_MIN_POINTS:
            raise DataError(
                f"evaluate_model: {task} has {n} labelled row(s); the metrics need at least {LOGISTIC_MIN_POINTS}"
            )
        scored[k] = labelled
    if not scored:
        raise DataError("evaluate_model: dataset carries no labels to score against")
    return scored


def evaluate_model(
    params: ModelParams, dataset: Dataset, *, label_ranges: dict | None
) -> tuple[EvalResult, dict[str, ScatterData]]:
    """Full metric protocol of the model ``params`` on a dataset: SRCC, KRCC, and mapped PLCC.

    Head predictions are denormalized through ``label_ranges``, the
    checkpoint's training-time label min/max, so scatter files live on the
    label scale; ``None`` leaves them on the normalized scale.
    """
    scored = _scored_tasks(dataset)
    scores = score_dataset(params, dataset, label_ranges=label_ranges)
    tasks: dict[str, TaskMetrics] = {}
    scatter: dict[str, ScatterData] = {}
    for k, labelled in scored.items():
        task = TASKS[k]
        preds, gts = scores[labelled, k], dataset.labels[labelled, k]
        plcc_value, logistic = plcc(preds, gts)
        tasks[task] = TaskMetrics(
            srcc=srcc(preds, gts),
            plcc=plcc_value,
            krcc=krcc(preds, gts),
            n=len(gts),
            logistic=logistic,
        )
        scatter[task] = ScatterData(preds, gts, logistic.apply(preds))
    return EvalResult(tasks), scatter


def run_trials(dataset: Dataset, split, seeds: list[int], configs: list[TrainConfig]) -> list[list[EvalResult]]:
    """Test-side metrics of every config under every trial seed, indexed ``[trial][config]``.

    Each trial splits ``dataset`` once, by ``split(dataset, seed) -> (train, test)``; every config trains
    on that train side with its seed replaced by the trial's, and all are scored on that test side.  A test
    side too small to score is refused before any config trains.
    """
    results = []
    for seed in seeds:
        train_set, test_set = split(dataset, seed)
        _scored_tasks(test_set)
        ckpts = (train(train_set, replace(cfg, seed=seed)) for cfg in configs)
        results.append([evaluate_model(c.params, test_set, label_ranges=c.label_ranges)[0] for c in ckpts])
    return results


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """One trained model: what ``train`` returns, ``save_checkpoint`` writes and ``load_checkpoint`` reads."""

    params: ModelParams           # best-validation parameters
    final_params: ModelParams | None  # None, as are the moments, when loaded with best_only
    opt_state: OptimizerState
    config: TrainConfig
    label_ranges: dict[str, tuple[float, float] | None]
    history: list[EpochStats]     # the run's one record of progress, epochs 1..n

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def best_epoch(self) -> int:
        """The first epoch with the highest validation mean; 0 before any epoch."""
        return max(self.history, key=lambda e: e.val_mean).epoch if self.history else 0

    @property
    def best_metric(self) -> float:
        return self.history[self.best_epoch - 1].val_mean if self.history else -math.inf

    @property
    def last_epoch(self) -> int:
        return len(self.history)

    @property
    def stopping_reason(self) -> str:
        # The stop rule: ``train`` ends a run once its best epoch is this far behind.
        early = self.last_epoch - self.best_epoch >= self.config.early_stop_patience
        return "early_stop" if early else "max_epochs"

    def report_json(self) -> str:
        """The training report: per-epoch history, best epoch and metric, stopping reason, checksum."""
        payload = {
            "epochs": [asdict(e) for e in self.history],
            "best_epoch": self.best_epoch,
            "best_metric": self.best_metric,
            "stopping_reason": self.stopping_reason,
            "params_checksum": params_checksum(self.params),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Parameter containers of a checkpoint, in file order; each is written as
# the tensors of ``param_layout`` under its prefix.
_CKPT_CONTAINERS = ("best", "final", "opt_m", "opt_v")


def _header(ckpt: Checkpoint) -> dict:
    """The JSON header ``save_checkpoint`` writes for ``ckpt``, and the one ``load_checkpoint`` accepts."""
    cfg = ckpt.config
    layout = param_layout(ckpt.dim, cfg.hidden_aff, cfg.hidden_head)
    return {
        "dim": ckpt.dim,
        "config": asdict(cfg),
        "label_ranges": {k: list(v) if v else None for k, v in ckpt.label_ranges.items()},
        "best_epoch": ckpt.best_epoch,
        "best_metric": ckpt.best_metric,
        "last_epoch": ckpt.last_epoch,
        "opt_step": ckpt.opt_state.step,
        "history": [asdict(e) for e in ckpt.history],
        "tensors": [{"name": f"{p}.{name}", "shape": list(shape)} for p in _CKPT_CONTAINERS for name, shape in layout],
    }


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Versioned binary checkpoint: JSON header plus little-endian f64 tensors."""
    blob = json.dumps(_header(ckpt), sort_keys=True).encode("utf-8")
    # Each buffer is written as it stands, so no copy of the payload is built.
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<I", _CKPT_VERSION) + struct.pack("<Q", len(blob)))
        fh.write(blob)
        for container in (ckpt.params, ckpt.final_params, ckpt.opt_state.m, ckpt.opt_state.v):
            fh.write(np.ascontiguousarray(container.flat, dtype="<f8"))


# Config fields that earlier files carry with the one value every run used;
# a file that gives them another value describes a run this code cannot repeat.
_RETIRED_CONFIG = {"lr_after_drop": None, "fidelity_label": "consistency"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def load_checkpoint(path, *, best_only: bool = False) -> Checkpoint:
    """Read a checkpoint whose header is exactly the one ``save_checkpoint`` writes for it.

    The header's ``dim`` and config fix the tensor layout.  A short or long
    payload, a non-finite tensor, a mistyped config field, label range or
    history value, or a header key whose JSON text differs from ``_header``
    of the loaded record (a missing or unknown key included) raises
    ``FormatError``.  So a file that loads re-saves byte for byte, less the
    v1 leftovers: the top-level ``rng_state`` and the ``_RETIRED_CONFIG`` fields.

    The file is read once, through one open handle: the prefix and header
    as bytes, then each container's tensors straight into its buffer, so
    no copy of the payload is held beside the containers.

    ``best_only`` keeps only the best parameters, for scoring: the final
    parameters and the optimizer moments are read into one reused buffer
    and checked as in a full load, and the record's ``final_params``,
    ``opt_state.m`` and ``opt_state.v`` are None, so it cannot be saved or
    resumed from.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if len(head) < 16 or head[:4] != _CKPT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        version = struct.unpack("<I", head[4:8])[0]
        if version != _CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        hlen = struct.unpack("<Q", head[8:16])[0]
        if 16 + hlen > file_size:
            raise FormatError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError):
            raise FormatError(f"{path}: corrupt checkpoint header") from None

        def need(ok: bool, what: str) -> None:
            if not ok:
                raise FormatError(f"{path}: {what}")

        try:
            header.pop("rng_state", None)  # v1 wrote it and nothing read it
            for name, only in _RETIRED_CONFIG.items():
                value = header["config"].pop(name, only)
                need(value == only, f"config field {name!r} must be {only!r}, got {value!r}")
            cfg = TrainConfig(**header["config"])
            dim = header["dim"]
            need(_is_int(dim) and dim > 0, f"dim {dim!r} must be a positive integer")
            need(_is_int(header["opt_step"]) and header["opt_step"] >= 0, "opt_step must be an integer >= 0")
            need(header["label_ranges"].keys() == set(TASKS), f"label ranges must be for exactly {', '.join(TASKS)}")
            label_ranges = {}
            for task, v in header["label_ranges"].items():
                need(
                    v is None or (isinstance(v, list) and len(v) == 2 and all(map(_is_real, v)) and v[0] <= v[1]),
                    f"label range of {task!r} is not null or two finite numbers lo <= hi",
                )
                label_ranges[task] = None if v is None else (float(v[0]), float(v[1]))
            history = [EpochStats(**e) for e in header["history"]]
            for k, e in enumerate(history, 1):
                need(_is_int(e.epoch) and e.epoch == k, "history epochs are not 1..n")
                need(e.val_srcc.keys() <= set(TASKS), f"history epoch {k}: val_srcc names a task outside {TASKS}")
                numbers = (e.lr, e.loss_total, e.loss_c, e.loss_v, e.loss_a, e.val_mean, *e.val_srcc.values())
                need(all(map(_is_real, numbers)), f"history epoch {k}: a rate, loss or SRCC is not a finite number")
        except (KeyError, TypeError, AttributeError, OverflowError, ConfigError) as exc:
            raise FormatError(f"{path}: malformed checkpoint header ({exc})") from None

        size = sum(math.prod(shape) for _, shape in param_layout(dim, cfg.hidden_aff, cfg.hidden_head))
        payload = file_size - 16 - hlen
        need(payload >= 8 * size * len(_CKPT_CONTAINERS), "truncated tensor payload")
        need(payload == 8 * size * len(_CKPT_CONTAINERS), "trailing bytes after tensors")

        def container() -> ModelParams:
            return ModelParams(dim, cfg.hidden_aff, cfg.hidden_head, cfg.similarity, cfg.use_msi, cfg.use_aff)

        # Under best_only, final, opt_m and opt_v are read in turn into one buffer.
        later = (container(),) * 3 if best_only else (container(), container(), container())
        containers = (container(), *later)
        for prefix, params in zip(_CKPT_CONTAINERS, containers):
            need(fh.readinto(params.flat.view(np.uint8)) == 8 * size, "truncated tensor payload")
            if sys.byteorder == "big":  # the file holds <f8
                params.flat.byteswap(inplace=True)
            for name, a in params.named_arrays():
                need(bool(np.all(np.isfinite(a))), f"non-finite value in {prefix}.{name}")
        best, final, m, v = containers
        need(bool(np.all(v.flat >= 0.0)), "negative value in the second moment opt_v")
        if best_only:
            final = m = v = None
        ckpt = Checkpoint(best, final, OptimizerState(m, v, header["opt_step"]), cfg, label_ranges, history)
        difference = _first_difference(header, _header(ckpt), "")
        if difference is not None:
            key, got, want = difference
            raise FormatError(f"{path}: header {key}: the file has {got[:80]}, the loaded record saves {want[:80]}")
        return ckpt


def _first_difference(got, want, key: str) -> tuple[str, str, str] | None:
    """The first key path, in sorted key order, at which two JSON values differ, with the JSON text of each side.

    Dicts are compared key by key, so the path names the innermost key that
    differs; anything else is compared as JSON text, so an int stays an int.
    A missing key reads as "nothing".
    """
    if isinstance(got, dict) and isinstance(want, dict):
        for name in sorted(got.keys() | want.keys()):
            path = f"{key}.{name}" if key else name
            if name not in got or name not in want:
                texts = [json.dumps(d[name], sort_keys=True) if name in d else "nothing" for d in (got, want)]
                return (path, *texts)
            difference = _first_difference(got[name], want[name], path)
            if difference is not None:
                return difference
        return None
    texts = [json.dumps(v, sort_keys=True) for v in (got, want)]
    return None if texts[0] == texts[1] else (key, *texts)


def _check_resume_compat(ckpt: Checkpoint, cfg: TrainConfig, dim: int, label_ranges: dict) -> None:
    if ckpt.dim != dim:
        raise ConfigError(f"resume: checkpoint dim {ckpt.dim} vs dataset dim {dim}")
    # The heads were trained on labels normalized by the checkpoint's ranges.
    if label_ranges != ckpt.label_ranges:
        raise ConfigError(f"resume: dataset label ranges {label_ranges} vs checkpoint's {ckpt.label_ranges}")
    # Every field but the stopping rule shapes the run, so it must not change on resume.
    frozen = [f.name for f in fields(TrainConfig) if f.name not in ("max_epochs", "early_stop_patience")]
    for name in frozen:
        if getattr(ckpt.config, name) != getattr(cfg, name):
            raise ConfigError(
                f"resume: config field {name!r} differs from checkpoint "
                f"({getattr(cfg, name)!r} vs {getattr(ckpt.config, name)!r})"
            )
