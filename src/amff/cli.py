"""Command-line surface wiring the library into reproducible workflows.

Subcommands: synth, extract, train, eval, trials, predict, ablate, gradcheck.
Each command parses only the flags it reads.
Every command is deterministic given its flags and input bytes; all
report files are written with full-precision floats and no timestamps.
Failures print one machine-parsable ``ERROR <CODE>: <message>`` line on
stderr and exit nonzero.  Commands run with numpy's floating-point
warnings off: an overflow or invalid value surfaces as the non-finite
result the library's own checks refuse, in that one line.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from . import dataio, encoder, metrics, trainer
from .errors import (
    AmffError,
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    ShapeError,
)
from .gradcheck import format_gradcheck, run_gradcheck
from .scoring import SIMILARITY_KINDS, VARIANTS
from .tensor import make_rng

_TAG_OUTER_SPLIT = 21

# glibc's malloc_trim, or None on other C libraries.  Heap pages a command
# frees stay resident below any small allocation that outlives it, and how
# many do depends on where such allocations landed; trimming after every
# command keeps the peak RSS of a process that runs several commands from
# varying with heap layout.
#
# glibc also raises its mmap threshold to the size of the largest mapped
# block freed so far (and its trim threshold to twice that), so whether a
# buffer of a few MiB reuses heap pages or takes fresh zeroed ones depends on
# what the process freed before.  The thresholds are pinned, once, at the
# ceiling of that rule on 64-bit glibc and twice it, the values a long run
# reaches, so every command sees the same allocator whatever ran before it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
try:
    _libc = ctypes.CDLL(None)
    _malloc_trim = _libc.malloc_trim
    _libc.mallopt.argtypes, _libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    _libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

_ERROR_CODES = {
    ConfigError: "E_CONFIG",
    DataError: "E_DATA",
    FormatError: "E_FORMAT",
    NumericError: "E_NUMERIC",
    ShapeError: "E_SHAPE",
    OSError: "E_IO",
}


def _load_checkpoint(path, dataset: dataio.Dataset) -> trainer.Checkpoint:
    """The best parameters of the checkpoint at ``path``, which must score features of ``dataset``'s dim."""
    ckpt = trainer.load_checkpoint(path, best_only=True)
    if ckpt.dim != dataset.dim:
        raise ShapeError(f"dimension mismatch: checkpoint dim {ckpt.dim} vs data dim {dataset.dim}")
    return ckpt


def _splitter(spec: str):
    """The split ``--split spec`` names, as a function of (dataset, seed) -> (train, test).

    Called before the data is read, so a bad spec is refused first.
    """
    if spec == "all":
        return lambda dataset, seed: (dataset, dataset)
    # Looked up per command, so a wrapper installed over a split function is the one called.
    splits = {"random": dataio.split_random, "per-generator": dataio.split_per_generator}
    kind, sep, frac = spec.partition(":")
    if not sep or kind not in splits:
        raise ConfigError(f"--split must be 'random:F', 'per-generator:F', or 'all', got {spec!r}")
    try:
        fraction = float(frac)
    except ValueError:
        raise ConfigError(f"--split fraction {frac!r} is not a number") from None
    if not 0.0 < fraction < 1.0:  # NaN too
        raise ConfigError(f"--split fraction must be in (0, 1), got {frac!r}")
    return lambda dataset, seed: splits[kind](dataset, fraction, make_rng((seed, _TAG_OUTER_SPLIT)))


def _output(*parts) -> Path:
    """The path ``parts`` join to, its directory created: an output tree holds only what is written."""
    path = Path(*parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# Training flag -> the TrainConfig field that gives its type and default and
# takes its value (read back under argparse's dest for the flag).
_TRAIN_FLAGS = {
    "--batch-size": "batch_size",
    "--epochs": "max_epochs",
    "--lr": "lr",
    "--lr-drop-epoch": "lr_drop_epoch",
    "--patience": "early_stop_patience",
    "--weight-decay": "weight_decay",
}


def _train_config(args, **variant) -> trainer.TrainConfig:
    """The config the flags give, as the model ``variant`` if given, else as the variant flags name."""
    return trainer.TrainConfig(
        **{field: getattr(args, flag[2:].replace("-", "_")) for flag, field in _TRAIN_FLAGS.items()},
        seed=args.seed,
        **(variant or {"similarity": args.similarity, "use_msi": not args.no_msi, "use_aff": not args.no_aff}),
    )


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every command that splits the data: train, eval, trials and ablate."""
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="random:0.8")


def _add_train_flags(p: argparse.ArgumentParser, variant_flags: bool = True) -> None:
    """The flags of every command that trains: train, trials and ablate (no variant flags)."""
    defaults = trainer.TrainConfig()
    _add_split_flags(p)
    for flag, field in _TRAIN_FLAGS.items():
        default = getattr(defaults, field)
        p.add_argument(flag, type=type(default), default=default)
    if not variant_flags:
        return
    p.add_argument("--similarity", choices=SIMILARITY_KINDS, default=defaults.similarity)
    p.add_argument("--no-msi", action="store_true", help="feed the original scale into all fusion slots")
    p.add_argument("--no-aff", action="store_true", help="replace learned fusion with the plain mean")


def _write_eval_reports(out: str, result: metrics.EvalResult, scatter, title: str) -> None:
    _output(out, "reports", "eval.txt").write_text(metrics.format_table(result, title))
    _output(out, "reports", "eval.jsonl").write_text(metrics.format_jsonl(metrics.task_rows(result)))
    for task, sd in scatter.items():
        _output(out, "scatter", f"{task}.txt").write_text(metrics.format_scatter(sd.preds, sd.gts, sd.mapped))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    dataset = dataio.synth_generate(args.n, args.dim, args.noise, make_rng(args.seed))
    out = _output(args.out)
    dataio.write_feature_records(dataset, out)
    print(f"wrote {len(dataset)} samples (dim {dataset.dim}) to {out}")
    return 0


def _cmd_extract(args) -> int:
    images_dir = Path(args.images)
    rows, labels = dataio.read_manifest(args.manifest)  # every row checked before any image is read
    features = []
    for row in rows:
        f_text = encoder.toy_encode_text(row["prompt"], args.dim)
        path = images_dir / row["image"]
        img = encoder.read_image(path)  # its errors name the file
        try:
            f_05, f_10, f_15 = encoder.toy_encode(img, args.dim)
        except AmffError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        features.append((f_text, f_05, f_10, f_15))
    dataset = dataio.Dataset(
        [row["id"] for row in rows],
        [row["generator"] for row in rows],
        [row["prompt"] for row in rows],
        np.array(features),
        labels,
    )
    out = _output(args.out)
    dataio.write_feature_records(dataset, out)
    print(f"encoded {len(dataset)} images to {out}")
    return 0


def _cmd_train(args) -> int:
    split = _splitter(args.split)
    dataset = dataio.read_dataset(args.data)
    train_set, _ = split(dataset, args.seed)
    ckpt = trainer.train(train_set, _train_config(args))
    ckpt_path = _output(args.out, "checkpoints", "model.ckpt")
    trainer.save_checkpoint(ckpt_path, ckpt)
    _output(args.out, "reports", "train_report.json").write_text(ckpt.report_json())
    print(
        f"trained {ckpt.last_epoch} epochs ({ckpt.stopping_reason}), "
        f"best epoch {ckpt.best_epoch} val mean SRCC {ckpt.best_metric:.4f}"
    )
    print(f"checkpoint: {ckpt_path}")
    return 0


def _cmd_eval(args) -> int:
    split = _splitter(args.split)
    dataset = dataio.read_dataset(args.data)
    ckpt = _load_checkpoint(args.ckpt, dataset)
    _, test_set = split(dataset, args.seed)
    result, scatter = trainer.evaluate_model(ckpt.params, test_set, label_ranges=ckpt.label_ranges)
    _write_eval_reports(args.out, result, scatter, "evaluation")
    print(metrics.format_table(result, "evaluation"), end="")
    return 0


def _cmd_trials(args) -> int:
    """The N-trial protocol: one train+eval per trial seed, median reported."""
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    split = _splitter(args.split)
    dataset = dataio.read_dataset(args.data)
    seeds = list(range(args.seed, args.seed + args.trials))
    results = [row[0] for row in trainer.run_trials(dataset, split, seeds, [_train_config(args)])]
    median = metrics.median_of_trials(results)

    trial_rows = ({"seed": seed, **row} for seed, result in zip(seeds, results) for row in metrics.task_rows(result))
    _output(args.out, "reports", "trials.jsonl").write_text(metrics.format_jsonl(trial_rows))
    title = f"median of {len(seeds)} trials"
    _write_eval_reports(args.out, median, {}, title)
    print(metrics.format_table(median, title), end="")
    return 0


def _cmd_predict(args) -> int:
    dataset = dataio.read_dataset(args.data)
    ckpt = _load_checkpoint(args.ckpt, dataset)
    scores = trainer.score_dataset(ckpt.params, dataset, label_ranges=ckpt.label_ranges)
    out = _output(args.out)
    out.write_text(
        metrics.format_jsonl(
            {"id": sid, "s_c": s_c, "s_v": s_v, "s_a": s_a}
            for sid, (s_c, s_v, s_a) in zip(dataset.ids, scores.tolist())
        )
    )
    print(f"wrote {len(dataset)} predictions to {out}")
    return 0


def _cmd_ablate(args) -> int:
    split = _splitter(args.split)
    dataset = dataio.read_dataset(args.data)
    # Without any q_c label the similarity kind shapes only s_c, which no loss
    # trains and no test side scores, so the kinds would all train the cosine model.
    variants = [v for v in VARIANTS if v[1] == "cosine" or dataset.label_ranges["consistency"] is not None]
    configs = [_train_config(args, similarity=kind, use_msi=msi, use_aff=aff) for _, kind, msi, aff in variants]
    (results,) = trainer.run_trials(dataset, split, [args.seed], configs)
    text, jsonl = metrics.format_ablation(list(zip(variants, results)))
    _output(args.out, "reports", "ablate.txt").write_text(text)
    _output(args.out, "reports", "ablate.jsonl").write_text(jsonl)
    print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.seed)
    text = format_gradcheck(results)
    print(text, end="")
    if args.out:
        _output(args.out, "reports", "gradcheck.txt").write_text(text)
    worst = max(results.values())
    if worst >= 1e-4:
        raise NumericError(f"gradient check failed: worst relative error {worst:.3e} >= 1e-4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="amff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a planted synthetic feature-record file")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="encode PGM/PPM images + prompt manifest into feature records")
    p.add_argument("--images", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train on the train side of the split, write a checkpoint")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test side of the split")
    p.add_argument("--ckpt", required=True)
    _add_split_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("trials", help="train and score once per trial seed, report the median")
    p.add_argument("--trials", type=int, default=1)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("predict", help="emit per-sample score triples for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ablate", help="paired comparison of fusion and similarity variants")
    _add_train_flags(p, variant_flags=False)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (AmffError, OSError) as exc:
        code = next((code for cls, code in _ERROR_CODES.items() if isinstance(exc, cls)), "E_INTERNAL")
        print(f"ERROR {code}: {exc}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
