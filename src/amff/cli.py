"""Command-line surface wiring the library into reproducible workflows.

Subcommands: synth, extract, train, eval, predict, ablate, gradcheck.
Every command is deterministic given its flags and input bytes; all
report files are written with full-precision floats and no timestamps.
Failures print one machine-parsable ``ERROR <CODE>: <message>`` line on
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
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
from .scoring import SIMILARITY_KINDS
from .tensor import make_rng

_TAG_OUTER_SPLIT = 21

# glibc's malloc_trim, or None on other C libraries.  Heap pages a command
# frees stay resident below any small allocation that outlives it, and how
# many do depends on where such allocations landed; trimming after every
# command keeps the peak RSS of a process that runs several commands from
# varying with heap layout.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

_ERROR_CODES = {
    ConfigError: "E_CONFIG",
    DataError: "E_DATA",
    FormatError: "E_FORMAT",
    NumericError: "E_NUMERIC",
    ShapeError: "E_SHAPE",
}


def _error_code(exc: Exception) -> str:
    for cls, code in _ERROR_CODES.items():
        if isinstance(exc, cls):
            return code
    if isinstance(exc, OSError):
        return "E_IO"
    return "E_INTERNAL"


def _parse_split(spec: str) -> tuple[str, float | None]:
    if spec == "all":
        return "all", None
    kind, sep, frac = spec.partition(":")
    if not sep or kind not in ("random", "per-generator"):
        raise ConfigError(f"--split must be 'random:F', 'per-generator:F', or 'all', got {spec!r}")
    try:
        fraction = float(frac)
    except ValueError:
        raise ConfigError(f"--split fraction {frac!r} is not a number") from None
    return kind, fraction


def _load_dataset(path) -> dataio.Dataset:
    p = Path(path)
    if not p.exists():
        raise DataError(f"data file not found: {p}")
    with open(p, "rb") as fh:
        head = fh.read(4)
    if head == b"AMFF":
        return dataio.read_feature_records(p)
    return dataio.read_feature_records_csv(p)


def _apply_split(dataset: dataio.Dataset, spec: str, seed: int):
    kind, fraction = _parse_split(spec)
    if kind == "all":
        return dataset, dataset
    rng = make_rng((seed, _TAG_OUTER_SPLIT))
    if kind == "random":
        return dataio.split_random(dataset, fraction, rng)
    return dataio.split_per_generator(dataset, fraction, rng)


def _out_dirs(out: str) -> dict[str, Path]:
    root = Path(out)
    dirs = {
        "root": root,
        "checkpoints": root / "checkpoints",
        "reports": root / "reports",
        "scatter": root / "scatter",
    }
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)
    return dirs


def _train_config(args) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        lr=args.lr,
        lr_drop_epoch=args.lr_drop_epoch,
        weight_decay=args.weight_decay,
        early_stop_patience=args.patience,
        seed=args.seed,
        similarity=args.similarity,
        use_msi=not args.no_msi,
        use_aff=not args.no_aff,
    )


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--lr-drop-epoch", type=int, default=80)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--weight-decay", type=float, default=1e-2)
    p.add_argument("--similarity", choices=SIMILARITY_KINDS, default="cosine")
    p.add_argument("--no-msi", action="store_true", help="feed the original scale into all fusion slots")
    p.add_argument("--no-aff", action="store_true", help="replace learned fusion with the plain mean")


def _write_eval_reports(dirs, result: metrics.EvalResult, scatter, title: str) -> None:
    (dirs["reports"] / "eval.txt").write_text(metrics.format_table(result, title))
    (dirs["reports"] / "eval.jsonl").write_text(metrics.to_jsonl(result))
    for task, sd in scatter.items():
        (dirs["scatter"] / f"{task}.txt").write_text(
            metrics.format_scatter(sd.preds, sd.gts, sd.mapped)
        )


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    dataset = dataio.synth_generate(args.n, args.dim, args.noise, make_rng(args.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_feature_records(dataset, out)
    print(f"wrote {len(dataset)} samples (dim {dataset.dim}) to {out}")
    return 0


def _cmd_extract(args) -> int:
    images_dir = Path(args.images)
    manifest = Path(args.manifest)
    if not manifest.exists():
        raise DataError(f"manifest not found: {manifest}")
    required = ("id", "generator", "prompt", "image")
    try:
        with open(manifest, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
                raise FormatError(f"manifest must have columns {sorted(required)}")
            rows = list(reader)
    except UnicodeDecodeError:
        raise FormatError(f"manifest {manifest} is not UTF-8 text") from None
    except csv.Error as exc:
        raise FormatError(f"manifest {manifest}: malformed CSV at line {reader.reader.line_num} ({exc})") from None
    # Every row's cells and labels are checked before any image is encoded.
    labels = []
    for k, row in enumerate(rows, start=1):
        if any(row[name] is None for name in required):
            raise FormatError(f"manifest row {k} has no cell for one of {', '.join(required)}")
        where = f"manifest row {row['id']!r}"
        labels.append(
            [dataio.parse_label_cell((row.get(name) or "").strip(), name, where) for name in ("q_v", "q_a", "q_c")]
        )
    features = []
    for row in rows:
        f_text = encoder.toy_encode_text(row["prompt"], args.dim)
        path = images_dir / row["image"]
        img = encoder.read_image(path)  # its errors name the file
        try:
            # Named so it lives until the next row's is built: freeing each
            # row's scales at once made extract_ppm about 20% slower (fresh
            # pages for every rescale).
            msi = encoder.make_multiscale(img)
            f_05, f_10, f_15 = encoder.toy_encode(msi, args.dim)
        except AmffError as exc:
            raise type(exc)(f"{path}: {exc}") from None
        features.append((f_text, f_05, f_10, f_15))
    dataset = dataio.Dataset(
        [row["id"] for row in rows],
        [row["generator"] for row in rows],
        [row["prompt"] for row in rows],
        np.array(features),
        np.array(labels),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_feature_records(dataset, out)
    print(f"encoded {len(dataset)} images to {out}")
    return 0


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data)
    train_set, _ = _apply_split(dataset, args.split, args.seed)
    ckpt = trainer.train(train_set, _train_config(args))
    dirs = _out_dirs(args.out)
    ckpt_path = dirs["checkpoints"] / "model.ckpt"
    trainer.save_checkpoint(ckpt_path, ckpt)
    (dirs["reports"] / "train_report.json").write_text(ckpt.report_json())
    print(
        f"trained {ckpt.last_epoch} epochs ({ckpt.stopping_reason}), "
        f"best epoch {ckpt.best_epoch} val mean SRCC {ckpt.best_metric:.4f}"
    )
    print(f"checkpoint: {ckpt_path}")
    return 0


def _run_trial(dataset, args, seed: int) -> metrics.EvalResult:
    train_set, test_set = _apply_split(dataset, args.split, seed)
    ckpt = trainer.train(train_set, dataclasses.replace(_train_config(args), seed=seed))
    result, _ = trainer.evaluate_model(ckpt.params, test_set, label_ranges=ckpt.label_ranges)
    return result


def _cmd_eval(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    dataset = _load_dataset(args.data)
    dirs = _out_dirs(args.out)

    if args.ckpt is not None:
        if args.trials != 1:
            raise ConfigError("--trials requires training per trial; do not pass --ckpt")
        ckpt = trainer.load_checkpoint(args.ckpt)
        if ckpt.dim != dataset.dim:
            raise ShapeError(
                f"dimension mismatch: checkpoint dim {ckpt.dim} vs data dim {dataset.dim}"
            )
        _, test_set = _apply_split(dataset, args.split, args.seed)
        result, scatter = trainer.evaluate_model(ckpt.params, test_set, label_ranges=ckpt.label_ranges)
        _write_eval_reports(dirs, result, scatter, "evaluation")
        print(metrics.format_table(result, "evaluation"), end="")
        return 0

    # Full protocol: one train+eval per trial seed, median reported.
    seeds = list(range(args.seed, args.seed + args.trials))
    results = [_run_trial(dataset, args, s) for s in seeds]
    median = metrics.median_of_trials(results)

    trial_lines = []
    for seed, result in zip(seeds, results):
        for task, tm in result.tasks.items():
            trial_lines.append(
                json.dumps(
                    {"seed": seed, "task": task, "srcc": tm.srcc, "plcc": tm.plcc,
                     "krcc": tm.krcc, "n": tm.n},
                    sort_keys=True,
                )
            )
    (dirs["reports"] / "trials.jsonl").write_text("\n".join(trial_lines) + "\n")
    title = f"median of {len(seeds)} trials"
    _write_eval_reports(dirs, median, {}, title)
    print(metrics.format_table(median, title), end="")
    return 0


def _cmd_predict(args) -> int:
    dataset = _load_dataset(args.data)
    ckpt = trainer.load_checkpoint(args.ckpt)
    if ckpt.dim != dataset.dim:
        raise ShapeError(f"dimension mismatch: checkpoint dim {ckpt.dim} vs data dim {dataset.dim}")
    scores = trainer.score_dataset(ckpt.params, dataset, label_ranges=ckpt.label_ranges)
    lines = [
        json.dumps({"id": sid, "s_c": s_c, "s_v": s_v, "s_a": s_a}, sort_keys=True)
        for sid, (s_c, s_v, s_a) in zip(dataset.ids, scores.tolist())
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} predictions to {out}")
    return 0


_ABLATION_VARIANTS = (
    ("full", {"similarity": "cosine", "use_msi": True, "use_aff": True}),
    ("no_msi", {"similarity": "cosine", "use_msi": False, "use_aff": True}),
    ("no_aff", {"similarity": "cosine", "use_msi": True, "use_aff": False}),
    ("euclidean", {"similarity": "euclidean", "use_msi": True, "use_aff": True}),
    ("manhattan", {"similarity": "manhattan", "use_msi": True, "use_aff": True}),
)


def _cmd_ablate(args) -> int:
    dataset = _load_dataset(args.data)
    # One shared split so every variant is compared on identical samples.
    train_set, test_set = _apply_split(dataset, args.split, args.seed)
    dirs = _out_dirs(args.out)

    results: dict[str, metrics.EvalResult] = {}
    for name, overrides in _ABLATION_VARIANTS:
        ckpt = trainer.train(train_set, dataclasses.replace(_train_config(args), **overrides))
        results[name], _ = trainer.evaluate_model(ckpt.params, test_set, label_ranges=ckpt.label_ranges)

    tasks = list(results["full"].tasks)
    lines = ["# architecture ablations (SRCC per task)"]
    header = f"{'variant':<12}" + "".join(f"{t:>14}" for t in tasks) + f"{'mean':>10}"
    lines.append(header)
    jsonl = []
    for name in ("full", "no_msi", "no_aff"):
        r = results[name]
        row = f"{name:<12}" + "".join(f"{r.tasks[t].srcc:>14.4f}" for t in tasks)
        lines.append(row + f"{r.mean_srcc():>10.4f}")
        for t in tasks:
            jsonl.append(
                json.dumps(
                    {"section": "architecture", "variant": name, "task": t,
                     "srcc": r.tasks[t].srcc, "mean_srcc": r.mean_srcc()},
                    sort_keys=True,
                )
            )
    lines.append("")
    lines.append("# similarity metrics (consistency SRCC)")
    lines.append(f"{'metric':<12}{'consistency':>14}{'mean':>10}")
    for name, variant in (("cosine", "full"), ("euclidean", "euclidean"), ("manhattan", "manhattan")):
        r = results[variant]
        cons = r.tasks["consistency"].srcc if "consistency" in r.tasks else float("nan")
        lines.append(f"{name:<12}{cons:>14.4f}{r.mean_srcc():>10.4f}")
        jsonl.append(
            json.dumps(
                {"section": "similarity", "variant": name, "task": "consistency",
                 "srcc": cons, "mean_srcc": r.mean_srcc()},
                sort_keys=True,
            )
        )
    text = "\n".join(lines) + "\n"
    (dirs["reports"] / "ablate.txt").write_text(text)
    (dirs["reports"] / "ablate.jsonl").write_text("\n".join(jsonl) + "\n")
    print(text, end="")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.seed)
    text = format_gradcheck(results)
    print(text, end="")
    if args.out:
        dirs = _out_dirs(args.out)
        (dirs["reports"] / "gradcheck.txt").write_text(text)
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
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="random:0.8")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, or run the N-trial median protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ckpt")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="random:0.8")
    p.add_argument("--trials", type=int, default=1)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="emit per-sample score triples for a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ablate", help="paired comparison of fusion and similarity variants")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="random:0.8")
    _add_train_flags(p)
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
        return args.func(args)
    except AmffError as exc:
        print(f"ERROR {_error_code(exc)}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR E_IO: {exc}", file=sys.stderr)
        return 1
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
