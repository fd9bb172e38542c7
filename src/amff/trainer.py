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
import struct
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataio import TASKS, Dataset, split_random
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .losses import total_loss
from .metrics import EvalResult, TaskMetrics, krcc, plcc, srcc
from .scoring import (
    SIMILARITY_KINDS,
    ModelParams,
    init_model_params,
    model_backward,
    model_forward,
    param_layout,
)
from .tensor import Array, make_rng

# AdamW moment hyperparameters.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Seed-derivation tags for independent substreams.
_TAG_INIT, _TAG_VALSPLIT, _TAG_EPOCH = 11, 12, 13

_CKPT_MAGIC = b"AMFK"
_CKPT_VERSION = 1

# Rows per forward pass outside training (validation, evaluation,
# prediction).  A chunk's features are a view of the dataset's block, so
# this bounds the activations a pass holds, not a copy of the features.
SCORE_CHUNK = 256


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
        if min(self.batch_size, self.max_epochs, self.lr_drop_epoch, self.hidden_aff, self.hidden_head) < 1:
            raise ConfigError("TrainConfig: counts and hidden sizes must be positive")
        # lr == 0 is allowed for diagnostics (freezes parameters).
        for name in ("lr", "weight_decay"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x >= 0):
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

    m: ModelParams
    v: ModelParams
    step: int = 0

    @cached_property
    def scratch(self) -> tuple[Array, Array]:
        """Space for the update, so a step allocates no full-size temporaries."""
        return np.empty_like(self.m.flat), np.empty_like(self.m.flat)

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
    """One decoupled-weight-decay Adam update of the whole buffer, in place."""
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
    a, b = state.scratch
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=a)
    v *= BETA2
    v += np.multiply(np.multiply(1.0 - BETA2, g, out=a), g, out=a)
    # Decay is decoupled: applied to the parameter, not the gradient.
    p *= 1.0 - lr * weight_decay
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time.
    np.multiply(lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    p -= np.divide(a, b, out=a)


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
    min/max) when it is given, so they live on the label scale.
    """
    scores = np.empty((len(dataset), len(TASKS)))
    for lo in range(0, len(dataset), SCORE_CHUNK):
        chunk = dataset.features[lo : lo + SCORE_CHUNK]
        scores[lo : lo + len(chunk)] = model_forward(chunk, params)[0]
    for k, task in enumerate(TASKS):
        if task != "consistency" and label_ranges and label_ranges.get(task):
            scores[:, k] = _denormalize(scores[:, k], *label_ranges[task])
    return scores


def _validation_srcc(params: ModelParams, dataset: Dataset, gts: dict[str, Array]) -> dict[str, float]:
    scores = score_dataset(params, dataset)
    out: dict[str, float] = {}
    for k, task in enumerate(TASKS):
        if task not in gts:
            continue
        try:
            out[task] = srcc(scores[:, k], gts[task])
        except NumericError:
            continue  # constant predictions or labels; treated as no signal
    return out


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
    active = np.array([dataset.has_label(task) for task in TASKS])
    if not active.any():
        raise DataError("train: dataset has no fully present label for any task")

    core, val = split_random(dataset, 1.0 - cfg.val_fraction, make_rng((cfg.seed, _TAG_VALSPLIT)))
    ranges = {task: dataset.label_ranges.get(task) for task in TASKS}

    if resume_from is not None:
        run = load_checkpoint(resume_from)
        _check_resume_compat(run, cfg, dim)
        run.config, run.label_ranges = cfg, ranges
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
            best_epoch=0,
            best_metric=-np.inf,
            last_epoch=0,
            history=[],
        )
    params, opt = run.final_params, run.opt_state

    # Per-row targets, columns in TASKS order and NaN where masked: the raw
    # label ranks the pairwise loss, the MSE tasks regress onto labels
    # normalized to [0, 1].
    targets = np.full((len(core), len(TASKS)), np.nan)
    targets[:, 0] = core.label("consistency")
    for k in (1, 2):
        if active[k]:
            targets[:, k] = _normalize(core.label(TASKS[k]), *ranges[TASKS[k]])
    val_gts = {task: val.label(task) for task, present in zip(TASKS, active) if present}

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
            scores, cache = model_forward(core.features[rows], params)
            try:
                bundle = total_loss(scores, targets[rows], batch_active)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {n_batches}: {exc}") from exc
            grads = model_backward(cache, params, bundle.grad)
            adamw_step(params, grads, opt, lr_e, cfg.weight_decay)
            sums += (bundle.total, *bundle.losses)
            n_batches += 1

        if n_batches == 0:
            raise DataError(
                "train: no trainable batches (pairwise loss needs at least 2 samples per batch)"
            )
        val_srcc = _validation_srcc(params, val, val_gts)
        val_mean = float(np.mean(list(val_srcc.values()))) if val_srcc else -1.0
        run.history.append(EpochStats(epoch, lr_e, *(sums / n_batches).tolist(), val_srcc, val_mean))
        run.last_epoch = epoch
        if val_mean > run.best_metric:
            run.best_metric, run.best_epoch, run.params = val_mean, epoch, params.copy()
        if epoch - run.best_epoch >= cfg.early_stop_patience:
            break
    return run


# ---------------------------------------------------------------------------
# Evaluation glue shared by the CLI eval/ablate paths.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterData:
    preds: Array
    gts: Array
    mapped: Array


def evaluate_model(
    params: ModelParams, dataset: Dataset, *, label_ranges: dict | None = None
) -> tuple[EvalResult, dict[str, ScatterData]]:
    """Full metric protocol of the model ``params`` on a dataset: SRCC, KRCC, and mapped PLCC.

    Head predictions are denormalized through ``label_ranges`` (the
    training-time label min/max) so scatter files live on the label scale.
    """
    scores = score_dataset(params, dataset, label_ranges=label_ranges)
    tasks: dict[str, TaskMetrics] = {}
    scatter: dict[str, ScatterData] = {}
    for k, task in enumerate(TASKS):
        gts = dataset.label(task)
        labelled = ~np.isnan(gts)
        if not labelled.any():
            continue
        preds, gts = scores[labelled, k], gts[labelled]
        plcc_value, logistic = plcc(preds, gts)
        tasks[task] = TaskMetrics(
            srcc=srcc(preds, gts),
            plcc=plcc_value,
            krcc=krcc(preds, gts),
            n=preds.size,
            logistic=logistic,
        )
        scatter[task] = ScatterData(preds, gts, logistic.apply(preds))
    if not tasks:
        raise DataError("evaluate_model: dataset carries no labels to score against")
    return EvalResult(tasks), scatter


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """One trained model: what ``train`` returns, ``save_checkpoint`` writes and ``load_checkpoint`` reads."""

    params: ModelParams           # best-validation parameters
    final_params: ModelParams
    opt_state: OptimizerState
    config: TrainConfig
    label_ranges: dict[str, tuple[float, float] | None]
    best_epoch: int
    best_metric: float
    last_epoch: int
    history: list[EpochStats]

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def stopping_reason(self) -> str:
        # Training stops early exactly when the best epoch is this far behind.
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


def _tensor_table(dim: int, hidden_aff: int, hidden_head: int) -> list[dict]:
    layout = param_layout(dim, hidden_aff, hidden_head)
    return [{"name": f"{p}.{name}", "shape": list(shape)} for p in _CKPT_CONTAINERS for name, shape in layout]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Versioned binary checkpoint: JSON header plus little-endian f64 tensors."""
    cfg, opt = ckpt.config, ckpt.opt_state
    header = {
        "dim": ckpt.dim,
        "config": asdict(cfg),
        "label_ranges": {k: list(v) if v else None for k, v in ckpt.label_ranges.items()},
        "best_epoch": ckpt.best_epoch,
        "best_metric": ckpt.best_metric,
        "last_epoch": ckpt.last_epoch,
        "opt_step": opt.step,
        "history": [asdict(e) for e in ckpt.history],
        "tensors": _tensor_table(ckpt.dim, cfg.hidden_aff, cfg.hidden_head),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    # Each buffer is written as it stands, so no copy of the payload is built.
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<I", _CKPT_VERSION) + struct.pack("<Q", len(blob)))
        fh.write(blob)
        for container in (ckpt.params, ckpt.final_params, opt.m, opt.v):
            fh.write(np.ascontiguousarray(container.flat, dtype="<f8"))


# Config fields that earlier files carry with the one value every run used;
# a file that gives them another value describes a run this code cannot repeat.
_RETIRED_CONFIG = {"lr_after_drop": None, "fidelity_label": "consistency"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _mistyped_config_field(cfg: TrainConfig) -> str | None:
    """The first config field whose type differs from its default's, or None."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(f.default, float):  # any finite number
            ok = _is_real(value)
        else:
            ok = type(value) is type(f.default)
        if not ok:
            return f.name
    return None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and check every field against the layout it declares.

    The header's ``dim`` and the config's hidden sizes fix the expected
    tensor table; a missing, misshapen or non-finite tensor, a mistyped
    config field, a malformed label range or counter raises ``FormatError``.
    """
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", data[4:8])[0]
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    hlen = struct.unpack("<Q", data[8:16])[0]
    if 16 + hlen > len(data):
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        raise FormatError(f"{path}: corrupt checkpoint header") from None

    def need(ok: bool, what: str) -> None:
        if not ok:
            raise FormatError(f"{path}: {what}")

    try:
        for name, only in _RETIRED_CONFIG.items():
            value = header["config"].pop(name, only)
            need(value == only, f"config field {name!r} must be {only!r}, got {value!r}")
        cfg = TrainConfig(**header["config"])
        bad_field = _mistyped_config_field(cfg)
        need(bad_field is None, f"config field {bad_field!r} has the wrong type")
        dim = header["dim"]
        need(_is_int(dim) and dim > 0, f"dim {dim!r} must be a positive integer")
        for name in ("opt_step", "best_epoch", "last_epoch"):
            need(_is_int(header[name]) and header[name] >= 0, f"{name} must be an integer >= 0")
        need(_is_real(header["best_metric"]), "best_metric is not a finite number")
        label_ranges = {}
        for task, v in header["label_ranges"].items():
            need(
                v is None or (isinstance(v, list) and len(v) == 2 and all(map(_is_real, v)) and v[0] <= v[1]),
                f"label range of {task!r} is not null or two finite numbers lo <= hi",
            )
            label_ranges[task] = None if v is None else (float(v[0]), float(v[1]))
        history = [EpochStats(**e) for e in header["history"]]
        table = header["tensors"]
    except (KeyError, TypeError, AttributeError, OverflowError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed checkpoint header ({exc})") from None

    expected = _tensor_table(dim, cfg.hidden_aff, cfg.hidden_head)
    need(isinstance(table, list), "tensor table is not a list")
    for k, want in enumerate(expected):
        got = table[k] if k < len(table) else "nothing"
        need(got == want, f"expected tensor {want['name']} of shape {want['shape']}, found {got}")
    need(len(table) == len(expected), f"{len(table) - len(expected)} tensors beyond the layout")

    size = sum(math.prod(shape) for _, shape in param_layout(dim, cfg.hidden_aff, cfg.hidden_head))
    payload = len(data) - 16 - hlen
    need(payload >= 8 * size * len(_CKPT_CONTAINERS), "truncated tensor payload")
    need(payload == 8 * size * len(_CKPT_CONTAINERS), "trailing bytes after tensors")
    containers = []
    for k, prefix in enumerate(_CKPT_CONTAINERS):
        container = ModelParams(dim, cfg.hidden_aff, cfg.hidden_head, cfg.similarity, cfg.use_msi, cfg.use_aff)
        container.flat[:] = np.frombuffer(data, dtype="<f8", count=size, offset=16 + hlen + 8 * size * k)
        for name, a in container.named_arrays():
            need(bool(np.all(np.isfinite(a))), f"non-finite value in {prefix}.{name}")
        containers.append(container)
    best, final, m, v = containers
    need(bool(np.all(v.flat >= 0.0)), "negative value in the second moment opt_v")
    return Checkpoint(
        params=best,
        final_params=final,
        opt_state=OptimizerState(m, v, header["opt_step"]),
        config=cfg,
        label_ranges=label_ranges,
        best_epoch=header["best_epoch"],
        best_metric=header["best_metric"],
        last_epoch=header["last_epoch"],
        history=history,
    )


def _check_resume_compat(ckpt: Checkpoint, cfg: TrainConfig, dim: int) -> None:
    if ckpt.dim != dim:
        raise ConfigError(f"resume: checkpoint dim {ckpt.dim} vs dataset dim {dim}")
    # Every field but the stopping rule shapes the run, so it must not change on resume.
    frozen = [f.name for f in fields(TrainConfig) if f.name not in ("max_epochs", "early_stop_patience")]
    for name in frozen:
        if getattr(ckpt.config, name) != getattr(cfg, name):
            raise ConfigError(
                f"resume: config field {name!r} differs from checkpoint "
                f"({getattr(cfg, name)!r} vs {getattr(ckpt.config, name)!r})"
            )
