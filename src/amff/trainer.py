"""Training loop: AdamW, mini-batches, LR drop, early stopping, checkpoints.

Labels for the MSE-trained tasks are normalized to [0, 1] by the
training set's min/max and predictions are denormalized on the way out.
All randomness is derived from (seed, purpose-tag) seed sequences, so
every epoch is reproducible in isolation and training can resume from a
checkpoint bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataio import TASKS, Dataset, split_random
from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .losses import BatchScores, total_loss
from .metrics import EvalResult, TaskMetrics, krcc, plcc, srcc
from .scoring import (
    SIMILARITY_KINDS,
    MlpParams,
    ModelGrads,
    ModelParams,
    init_model_params,
    model_backward,
    model_forward,
)
from .aff import AffParams
from .tensor import Array, make_rng

# AdamW moment hyperparameters.
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# Seed-derivation tags for independent substreams.
_TAG_INIT, _TAG_VALSPLIT, _TAG_EPOCH = 11, 12, 13

_CKPT_MAGIC = b"AMFK"
_CKPT_VERSION = 1

# Rows per forward pass outside training (validation, evaluation,
# prediction): bounds the stacked copy of the features that a pass holds.
SCORE_CHUNK = 256


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 120
    lr: float = 5e-4
    lr_drop_epoch: int = 80
    lr_after_drop: float | None = None  # defaults to lr / 10
    weight_decay: float = 1e-2
    early_stop_patience: int = 20
    seed: int = 0
    similarity: str = "cosine"
    use_msi: bool = True
    use_aff: bool = True
    fidelity_label: str = "consistency"
    val_fraction: float = 0.1
    hidden_aff: int = 256
    hidden_head: int = 256

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.lr_drop_epoch < 1:
            raise ConfigError("TrainConfig: counts must be positive")
        # lr == 0 is allowed for diagnostics (freezes parameters).
        if self.lr < 0 or (self.lr_after_drop is not None and self.lr_after_drop < 0):
            raise ConfigError("TrainConfig: learning rates must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("TrainConfig: weight_decay must be >= 0")
        if self.early_stop_patience < 1:
            raise ConfigError("TrainConfig: early_stop_patience must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("TrainConfig: val_fraction must be in (0, 1)")
        if self.similarity not in SIMILARITY_KINDS:
            raise ConfigError(f"TrainConfig: unknown similarity {self.similarity!r}")
        if self.fidelity_label not in TASKS:
            raise ConfigError(f"TrainConfig: unknown fidelity_label {self.fidelity_label!r}")

    @property
    def dropped_lr(self) -> float:
        return self.lr / 10.0 if self.lr_after_drop is None else self.lr_after_drop


@dataclass
class OptimizerState:
    """Per-tensor first/second moment accumulators plus the step count."""

    m: dict[str, Array]
    v: dict[str, Array]
    step: int = 0

    @staticmethod
    def zeros_like(params: ModelParams) -> "OptimizerState":
        return OptimizerState(
            m={name: np.zeros_like(a) for name, a in params.named_arrays()},
            v={name: np.zeros_like(a) for name, a in params.named_arrays()},
        )


def adamw_step(
    params: ModelParams,
    grads: ModelGrads,
    state: OptimizerState,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update, in place."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    grad_map = dict(grads.named_arrays())
    for name, p in params.named_arrays():
        g = grad_map[name]
        if g.shape != p.shape:
            raise ShapeError(f"adamw_step: grad/param shape mismatch for {name}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adamw_step: non-finite gradient in {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        # Decay is decoupled: applied to the parameter, not the gradient.
        p *= 1.0 - lr * weight_decay
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


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


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    best_epoch: int
    best_metric: float
    stopping_reason: str
    params_checksum: str

    def to_json(self) -> str:
        payload = {
            "epochs": [asdict(e) for e in self.epochs],
            "best_epoch": self.best_epoch,
            "best_metric": self.best_metric,
            "stopping_reason": self.stopping_reason,
            "params_checksum": self.params_checksum,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@dataclass
class TrainOutcome:
    params: ModelParams          # best-validation snapshot
    report: TrainReport
    final_params: ModelParams
    opt_state: OptimizerState
    label_ranges: dict[str, tuple[float, float] | None]
    dim: int
    config: TrainConfig
    best_epoch: int
    best_metric: float
    last_epoch: int


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


def score_dataset(
    params: ModelParams,
    dataset: Dataset,
    *,
    use_msi: bool = True,
    use_aff: bool = True,
    label_ranges: dict | None = None,
) -> Array:
    """(N, 3) scores of every row, columns in ``TASKS`` order.

    Rows are scored ``SCORE_CHUNK`` at a time.  Head scores are
    denormalized through ``label_ranges`` (the training-time label
    min/max) when it is given, so they live on the label scale.
    """
    scores = np.empty((len(dataset), len(TASKS)))
    for lo in range(0, len(dataset), SCORE_CHUNK):
        rows = range(lo, min(lo + SCORE_CHUNK, len(dataset)))
        out, _ = model_forward(dataset.features(rows), params, use_msi=use_msi, use_aff=use_aff)
        scores[lo : rows.stop] = np.stack((out.s_c, out.s_v, out.s_a), axis=1)
    for k, task in enumerate(TASKS):
        if task != "consistency" and label_ranges and label_ranges.get(task):
            scores[:, k] = _denormalize(scores[:, k], *label_ranges[task])
    return scores


def _validation_srcc(
    params: ModelParams, dataset: Dataset, gts: dict[str, Array], use_msi: bool, use_aff: bool
) -> dict[str, float]:
    scores = score_dataset(params, dataset, use_msi=use_msi, use_aff=use_aff)
    out: dict[str, float] = {}
    for k, task in enumerate(TASKS):
        if task not in gts:
            continue
        try:
            out[task] = srcc(scores[:, k], gts[task])
        except NumericError:
            continue  # constant predictions or labels; treated as no signal
    return out


def train(dataset: Dataset, cfg: TrainConfig, resume_from=None) -> TrainOutcome:
    """Train on ``dataset`` (internally held-out validation for early stop).

    Returns the best-validation parameters along with the per-epoch
    report.  ``resume_from`` restores a checkpoint written by
    ``save_checkpoint`` and continues under the same schedule.
    """
    dim = dataset.dim
    present = {task: dataset.has_label(task) for task in TASKS}
    if not any(present.values()):
        raise DataError("train: dataset has no fully present label for any task")
    # The pairwise loss ranks S_C against the configured comparison label,
    # so it is enabled by that label's presence (q_c by default).
    fidelity_present = present[cfg.fidelity_label]

    core, val = split_random(dataset, 1.0 - cfg.val_fraction, make_rng((cfg.seed, _TAG_VALSPLIT)))
    ranges = {task: dataset.label_ranges.get(task) for task in TASKS}

    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        _check_resume_compat(ckpt, cfg, dim)
        params = ckpt.final_params
        opt = ckpt.opt_state
        best_params = ckpt.params
        best_epoch = ckpt.best_epoch
        best_metric = ckpt.best_metric
        history = [EpochStats(**e) for e in ckpt.history]
        start_epoch = ckpt.last_epoch + 1
    else:
        params = init_model_params(
            dim,
            make_rng((cfg.seed, _TAG_INIT)),
            hidden_aff=cfg.hidden_aff,
            hidden_head=cfg.hidden_head,
            similarity=cfg.similarity,
        )
        opt = OptimizerState.zeros_like(params)
        best_params = params.copy()
        best_epoch = 0
        best_metric = -np.inf
        history: list[EpochStats] = []
        start_epoch = 1

    # Per-row targets: the raw label ranks the pairwise loss, the MSE
    # tasks regress onto labels normalized to [0, 1].
    targets = {"consistency": core.labels(cfg.fidelity_label)}
    for task in ("quality", "authenticity"):
        if present[task]:
            targets[task] = _normalize(core.labels(task), *ranges[task])
    val_gts = {task: val.labels(task) for task in TASKS if present[task]}

    stopping_reason = "max_epochs"
    epoch = start_epoch - 1
    for epoch in range(start_epoch, cfg.max_epochs + 1):
        lr_e = cfg.lr if epoch < cfg.lr_drop_epoch else cfg.dropped_lr
        perm = make_rng((cfg.seed, _TAG_EPOCH, epoch)).permutation(len(core))
        sums = {"total": 0.0, "c": 0.0, "v": 0.0, "a": 0.0}
        n_batches = 0
        for b0 in range(0, len(perm), cfg.batch_size):
            rows = perm[b0 : b0 + cfg.batch_size]
            scores, cache = model_forward(
                core.features(rows), params, use_msi=cfg.use_msi, use_aff=cfg.use_aff
            )
            cons = qual = auth = None
            if fidelity_present and rows.size >= 2:
                cons = BatchScores(scores.s_c, targets["consistency"][rows])
            if present["quality"]:
                qual = BatchScores(scores.s_v, targets["quality"][rows])
            if present["authenticity"]:
                auth = BatchScores(scores.s_a, targets["authenticity"][rows])
            if cons is None and qual is None and auth is None:
                continue  # singleton tail batch with only the pairwise task
            try:
                bundle = total_loss(cons, qual, auth)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch} batch {n_batches}: {exc}") from exc

            no_grad = np.zeros(rows.size)  # upstream of a masked task
            upstream = (bundle.d_consistency, bundle.d_quality, bundle.d_authenticity)
            grads = model_backward(cache, params, *(no_grad if d is None else d for d in upstream))
            adamw_step(params, grads, opt, lr_e, cfg.weight_decay)
            sums["total"] += bundle.total
            sums["c"] += bundle.l_c
            sums["v"] += bundle.l_v
            sums["a"] += bundle.l_a
            n_batches += 1

        if n_batches == 0:
            raise DataError(
                "train: no trainable batches (pairwise loss needs at least 2 samples per batch)"
            )
        val_srcc = _validation_srcc(params, val, val_gts, cfg.use_msi, cfg.use_aff)
        val_mean = float(np.mean(list(val_srcc.values()))) if val_srcc else -1.0
        history.append(
            EpochStats(
                epoch=epoch,
                lr=lr_e,
                loss_total=sums["total"] / n_batches,
                loss_c=sums["c"] / n_batches,
                loss_v=sums["v"] / n_batches,
                loss_a=sums["a"] / n_batches,
                val_srcc=val_srcc,
                val_mean=val_mean,
            )
        )
        if val_mean > best_metric:
            best_metric = val_mean
            best_epoch = epoch
            best_params = params.copy()
        if epoch - best_epoch >= cfg.early_stop_patience:
            stopping_reason = "early_stop"
            break

    report = TrainReport(
        epochs=history,
        best_epoch=best_epoch,
        best_metric=best_metric,
        stopping_reason=stopping_reason,
        params_checksum=params_checksum(best_params),
    )
    return TrainOutcome(
        params=best_params,
        report=report,
        final_params=params,
        opt_state=opt,
        label_ranges=ranges,
        dim=dim,
        config=cfg,
        best_epoch=best_epoch,
        best_metric=best_metric,
        last_epoch=epoch,
    )


# ---------------------------------------------------------------------------
# Evaluation glue shared by the CLI eval/ablate paths.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScatterData:
    preds: Array
    gts: Array
    mapped: Array


def evaluate_model(
    params: ModelParams,
    dataset: Dataset,
    *,
    use_msi: bool = True,
    use_aff: bool = True,
    label_ranges: dict | None = None,
) -> tuple[EvalResult, dict[str, ScatterData]]:
    """Full metric protocol on a dataset: SRCC, KRCC, and mapped PLCC.

    Head predictions are denormalized through ``label_ranges`` (the
    training-time label min/max) so scatter files live on the label scale.
    """
    scores = score_dataset(
        params, dataset, use_msi=use_msi, use_aff=use_aff, label_ranges=label_ranges
    )
    tasks: dict[str, TaskMetrics] = {}
    scatter: dict[str, ScatterData] = {}
    for k, task in enumerate(TASKS):
        gts = dataset.labels(task)
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
    params: ModelParams           # best-validation parameters
    final_params: ModelParams
    opt_state: OptimizerState
    config: TrainConfig
    label_ranges: dict[str, tuple[float, float] | None]
    dim: int
    best_epoch: int
    best_metric: float
    last_epoch: int
    history: list[dict]


def _params_tensor_list(prefix: str, params: ModelParams) -> list[tuple[str, Array]]:
    return [(f"{prefix}.{name}", a) for name, a in params.named_arrays()]


def save_checkpoint(path, outcome: TrainOutcome) -> None:
    """Versioned binary checkpoint: JSON header plus little-endian f64 tensors."""
    tensors: list[tuple[str, Array]] = []
    tensors += _params_tensor_list("best", outcome.params)
    tensors += _params_tensor_list("final", outcome.final_params)
    tensors += [(f"opt_m.{k}", a) for k, a in outcome.opt_state.m.items()]
    tensors += [(f"opt_v.{k}", a) for k, a in outcome.opt_state.v.items()]

    header = {
        "dim": outcome.dim,
        "config": asdict(outcome.config),
        "label_ranges": {k: list(v) if v else None for k, v in outcome.label_ranges.items()},
        "best_epoch": outcome.best_epoch,
        "best_metric": outcome.best_metric,
        "last_epoch": outcome.last_epoch,
        "opt_step": outcome.opt_state.step,
        "history": [asdict(e) for e in outcome.report.epochs],
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += _CKPT_MAGIC
    out += struct.pack("<I", _CKPT_VERSION)
    out += struct.pack("<Q", len(blob))
    out += blob
    for _, a in tensors:
        out += np.asarray(a, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def _rebuild_params(arrays: dict[str, Array], prefix: str, similarity: str) -> ModelParams:
    def block(name, cls):
        return cls(
            w1=arrays[f"{prefix}.{name}.w1"],
            b1=arrays[f"{prefix}.{name}.b1"],
            w2=arrays[f"{prefix}.{name}.w2"],
            b2=arrays[f"{prefix}.{name}.b2"],
        )

    return ModelParams(
        aff=block("aff", AffParams),
        head_v=block("head_v", MlpParams),
        head_a=block("head_a", MlpParams),
        similarity=similarity,
    )


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if data[:4] != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version = struct.unpack("<I", data[4:8])[0]
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    hlen = struct.unpack("<Q", data[8:16])[0]
    if 16 + hlen > len(data):
        raise FormatError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise FormatError(f"{path}: corrupt checkpoint header") from None

    try:
        arrays: dict[str, Array] = {}
        pos = 16 + hlen
        for spec in header["tensors"]:
            size = int(np.prod(spec["shape"])) if spec["shape"] else 1
            nbytes = 8 * size
            if pos + nbytes > len(data):
                raise FormatError(f"{path}: truncated tensor {spec['name']}")
            arrays[spec["name"]] = (
                np.frombuffer(data[pos : pos + nbytes], dtype="<f8")
                .astype(np.float64)
                .reshape(spec["shape"])
            )
            pos += nbytes
        if pos != len(data):
            raise FormatError(f"{path}: trailing bytes after tensors")

        cfg = TrainConfig(**header["config"])
        opt = OptimizerState(
            m={k[len("opt_m."):]: a for k, a in arrays.items() if k.startswith("opt_m.")},
            v={k[len("opt_v."):]: a for k, a in arrays.items() if k.startswith("opt_v.")},
            step=header["opt_step"],
        )
        return Checkpoint(
            params=_rebuild_params(arrays, "best", cfg.similarity),
            final_params=_rebuild_params(arrays, "final", cfg.similarity),
            opt_state=opt,
            config=cfg,
            label_ranges={k: tuple(v) if v else None for k, v in header["label_ranges"].items()},
            dim=header["dim"],
            best_epoch=header["best_epoch"],
            best_metric=header["best_metric"],
            last_epoch=header["last_epoch"],
            history=header["history"],
        )
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed checkpoint header ({exc})") from None


def _check_resume_compat(ckpt: Checkpoint, cfg: TrainConfig, dim: int) -> None:
    if ckpt.dim != dim:
        raise ConfigError(f"resume: checkpoint dim {ckpt.dim} vs dataset dim {dim}")
    frozen = (
        "batch_size", "lr", "lr_drop_epoch", "lr_after_drop", "weight_decay",
        "seed", "similarity", "use_msi", "use_aff", "fidelity_label",
        "val_fraction", "hidden_aff", "hidden_head",
    )
    for name in frozen:
        if getattr(ckpt.config, name) != getattr(cfg, name):
            raise ConfigError(
                f"resume: config field {name!r} differs from checkpoint "
                f"({getattr(cfg, name)!r} vs {getattr(ckpt.config, name)!r})"
            )
