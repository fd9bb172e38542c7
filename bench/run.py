"""Benchmark harness for the amff toolkit: three workloads, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload train_d64 --seed 7 --seconds 30 --trace 0

One invocation is one fresh process.  It imports the program from the
checkout's ``src/``, then repeats whole rounds until ``--seconds`` have
passed.  A round is the workload's set-up, which builds its inputs from
``--seed``, followed by its ``amff`` commands, driven in-process through
``amff.cli.main``; both are timed.  Afterwards it checks the outputs
against computations made apart from the program (``reference.py``) and
prints one JSON object as the last line of standard output.  With
``--trace 1`` the rounds alternate untraced and traced, and the JSON
holds the per-layer metrics instead of the end-to-end ones; the
per-layer table and the spans also go to ``bench/_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads: on a small shared machine a
# second BLAS thread competes with the interpreter for the same cores,
# which adds spread without changing what the workloads exercise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from spans import TARGETS, SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
_TAG_IMAGES = 0xB3  # seed-sequence tag for the generated images


class SetupError(Exception):
    """The program is missing or a set-up command failed; no result is printed."""


def load_program(root: Path = ROOT):
    """Import ``amff.cli`` from ``<root>/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "amff" / "cli.py").is_file():
        raise SetupError(f"no amff sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import amff.cli

    if Path(amff.cli.__file__).resolve().parent != src / "amff":
        raise SetupError(f"imported amff from {amff.cli.__file__}, not from {src}")
    return amff.cli


class Session:
    """Drives ``amff`` commands in-process in one work directory and counts them."""

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failed_phases: set[str] = set()  # phases that failed in the current round
        self.state: dict = {}

    def path(self, name: str) -> Path:
        return self.work / name

    def _invoke(self, argv) -> tuple[float, str | None]:
        """Run one command; return its wall time and, if it failed, why."""
        argv = [str(a) for a in argv]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception:  # a traceback from the program is a failed operation
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        return elapsed, None if rc == 0 else f"amff {' '.join(argv)} -> {rc}: {err.getvalue().strip()}"

    def run(self, phase: str, *argv) -> float:
        """A measured operation, named by its phase: its failure is counted, not raised."""
        elapsed, error = self._invoke(argv)
        self.attempted += 1
        if error:
            self.failed += 1
            self.failed_phases.add(phase)
            self.errors.append(error)
        return elapsed

    def setup_run(self, *argv) -> None:
        """A set-up command: its failure aborts the run."""
        _, error = self._invoke(argv)
        if error:
            raise SetupError(error)


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Workloads.  Each has a set-up, a round of commands whose phases are timed,
# the work one round does in its main phase, and checks on the last round.
# ---------------------------------------------------------------------------


@dataclass
class TrainD64:
    """Acceptance criterion 7's configuration: train, then evaluate the held-out split."""

    n: int = 512
    dim: int = 64
    noise: float = 0.01
    epochs: int = 40
    floors: dict | None = field(
        default_factory=lambda: {"quality": 0.9, "authenticity": 0.9, "consistency": 0.8}
    )
    name = "train_d64"
    main_phase = "train"
    setup_repeats = 12  # one synth takes ~0.09 s; a run samples about 50 of them
    outputs = ("run/reports/eval.jsonl", "run/reports/train_report.json", "run/checkpoints/model.ckpt")

    def setup(self, s: Session) -> None:
        s.setup_run("synth", "--out", s.path("data.amff"), "--n", self.n, "--dim", self.dim,
                    "--noise", self.noise, "--seed", s.seed)

    def round(self, s: Session) -> dict[str, float]:
        data, run = s.path("data.amff"), s.path("run")
        split = ("--seed", s.seed, "--split", "random:0.8")
        # Patience equal to the epoch count: every round trains exactly `epochs` epochs.
        train = s.run("train", "train", "--data", data, "--out", run, *split,
                      "--epochs", self.epochs, "--patience", self.epochs)
        evaluate = s.run("eval", "eval", "--data", data, "--ckpt", run / "checkpoints" / "model.ckpt",
                         "--out", run, *split)
        return {"train": train, "eval": evaluate}

    @property
    def items(self) -> int:
        """Training samples per round: epochs times the rows of the train side (0.8 n, rounded half up)."""
        return self.epochs * int(np.floor(0.8 * self.n + 0.5))

    def check(self, s: Session, ok: set[str]) -> list[str]:
        run = s.path("run")
        problems = []
        if "train" in ok:
            report = json.loads((run / "reports" / "train_report.json").read_text())
            epochs = [e["epoch"] for e in report["epochs"]]
            if epochs != list(range(1, self.epochs + 1)) or report["stopping_reason"] != "max_epochs":
                problems.append(f"train_report: epochs {epochs[:1]}..{epochs[-1:]}, "
                                f"stopping reason {report['stopping_reason']!r}, expected {self.epochs}")
        if {"train", "eval"} <= ok:
            rows, mismatches = reference.metric_mismatches(run / "reports", run / "scatter")
            problems += mismatches
            for task, floor in (self.floors or {}).items():
                if rows.get(task, {}).get("srcc", -1.0) < floor:
                    problems.append(f"held-out {task} SRCC {rows.get(task, {}).get('srcc')} below {floor}")
        return problems


@dataclass
class ScoreD512:
    """Forward-only use at the paper's feature dimension: predict and evaluate every row."""

    n: int = 2982  # rows in AGIQA-3K, a database of the size the paper evaluates on
    dim: int = 512
    noise: float = 0.01
    ckpt_rows: int = 160
    ckpt_epochs: int = 2
    name = "score_d512"
    main_phase = "predict"
    setup_repeats = 1  # one set-up takes ~1.4 s
    outputs = ("preds.jsonl", "eval/reports/eval.jsonl")

    def setup(self, s: Session) -> None:
        common = ("--dim", self.dim, "--noise", self.noise, "--seed", s.seed)
        s.setup_run("synth", "--out", s.path("data.amff"), "--n", self.n, *common)
        # The planted generator draws its model before the rows, so the small
        # file holds the first rows of the large one: the checkpoint is
        # trained on the same planted model it then scores.
        s.setup_run("synth", "--out", s.path("small.amff"), "--n", self.ckpt_rows, *common)
        s.setup_run("train", "--data", s.path("small.amff"), "--out", s.path("ckpt"), "--seed", s.seed,
                    "--epochs", self.ckpt_epochs, "--patience", self.ckpt_epochs)

    def round(self, s: Session) -> dict[str, float]:
        data, ckpt = s.path("data.amff"), s.path("ckpt/checkpoints/model.ckpt")
        predict = s.run("predict", "predict", "--data", data, "--ckpt", ckpt, "--out", s.path("preds.jsonl"))
        evaluate = s.run("eval", "eval", "--data", data, "--ckpt", ckpt, "--out", s.path("eval"),
                         "--seed", s.seed, "--split", "all")
        return {"predict": predict, "eval": evaluate}

    @property
    def items(self) -> int:
        return self.n

    def check(self, s: Session, ok: set[str]) -> list[str]:
        problems = []
        if "predict" in ok:
            problems += self._check_predict(s)
        if "eval" in ok:
            problems += reference.metric_mismatches(s.path("eval/reports"), s.path("eval/scatter"))[1]
        return problems

    def _check_predict(self, s: Session) -> list[str]:
        records = reference.read_records(s.path("data.amff"))
        header, tensors = reference.read_checkpoint(s.path("ckpt/checkpoints/model.ckpt"))
        want = reference.model_forward(header, tensors, records.feats)
        rows = [json.loads(line) for line in s.path("preds.jsonl").read_text().splitlines()]
        if [r["id"] for r in rows] != records.ids:
            return [f"predict wrote {len(rows)} rows, not the {len(records.ids)} input ids in order"]
        problems = []
        for key, ref in want.items():
            got = np.array([r[key] for r in rows])
            err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
            if not err <= 1e-9:
                problems.append(f"predict {key}: max relative error {err:.3e} vs batched reference")
        return problems


_WORDS = ("red", "quiet", "harbour", "glass", "tower", "forest", "neon", "river", "old", "portrait",
          "storm", "market", "golden", "winter", "robot", "garden")


# Image heights relative to the nominal side; the width keeps the area at
# side**2.  At side 256 these give 256x256 plus seven shapes from 226x290
# to 290x226, none of whose sides is a multiple of 16.
_ASPECT = (1.0, 1.035, 0.965, 1.07, 0.93, 1.133, 0.883, 1.016)


@dataclass
class ExtractPpm:
    """Raw binary PGM/PPM images of about side x side pixels, encoded by ``extract``.

    The nominal 256 x 256 RGB image is the size at which the toolkit's
    reference encoding rate (22 images/s) was measured, so per-image cost
    splits between fixed per-call overhead and pixel work as it does at
    that size.  Every fourth image is grey, so the P5 path and one-channel
    statistics run too.
    """

    images: int = 48
    side: int = 256
    dim: int = 64
    sampled: int = 4
    name = "extract_ppm"
    main_phase = "extract"
    setup_repeats = 3  # one set-up writes the images in ~0.3 s
    outputs = ("features.amff",)

    def shape(self, i: int) -> tuple[int, int, int]:
        """Height, width and channels of image i; they do not depend on the seed."""
        h = round(self.side * _ASPECT[i % len(_ASPECT)])
        return h, round(self.side * self.side / h), 1 if i % 4 == 3 else 3

    def setup(self, s: Session) -> None:
        rng = np.random.default_rng((s.seed, _TAG_IMAGES))
        img_dir = s.path("images")
        img_dir.mkdir(exist_ok=True)
        rows, pixels = [], {}
        keep = set(rng.choice(self.images, size=min(self.sampled, self.images), replace=False).tolist())
        for i in range(self.images):
            # Every seed encodes the same pixels' worth of images; the seed
            # sets the content, the prompts and the labels.
            h, w, channels = self.shape(i)
            px = reference.make_image(rng, h, w, channels)
            name = f"img{i:04d}.{'ppm' if channels == 3 else 'pgm'}"
            reference.write_pnm(img_dir / name, px)
            if i in keep:
                pixels[i] = px
            labels = [f"{v:.4f}" if rng.random() < 0.8 else "" for v in rng.uniform(1.0, 5.0, size=3)]
            prompt = " ".join(rng.choice(_WORDS, size=int(rng.integers(3, 9))))
            rows.append([f"img-{i:04d}", f"gen-{i % 4}", prompt, name, *labels])
        with open(s.path("manifest.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "generator", "prompt", "image", "q_v", "q_a", "q_c"])
            writer.writerows(rows)
        s.state.update(rows=rows, pixels=pixels)

    def round(self, s: Session) -> dict[str, float]:
        extract = s.run("extract", "extract", "--images", s.path("images"), "--manifest", s.path("manifest.csv"),
                        "--out", s.path("features.amff"), "--dim", self.dim)
        return {"extract": extract}

    @property
    def items(self) -> int:
        return self.images

    def check(self, s: Session, ok: set[str]) -> list[str]:
        if "extract" not in ok:
            return []
        rec = reference.read_records(s.path("features.amff"))
        rows = s.state["rows"]
        if [rec.ids, rec.generators, rec.prompts] != [[r[k] for r in rows] for k in range(3)]:
            return [f"extract wrote {len(rec.ids)} records for {len(rows)} manifest rows"]
        problems = []
        norms = np.linalg.norm(rec.feats, axis=2)
        if not np.all(np.abs(norms - 1.0) <= 1e-5):
            problems.append(f"feature norms range {norms.min():.7f}..{norms.max():.7f}, expected 1")
        labels = np.array([[float(c) if c else np.nan for c in r[4:]] for r in rows], dtype=np.float32)
        if not np.array_equal(rec.labels.astype(np.float32), labels, equal_nan=True):
            problems.append("record labels differ from the manifest")
        for i, px in s.state["pixels"].items():
            err = float(np.max(np.abs(rec.feats[i, 1:] - reference.encode_image(px, self.dim))))
            if not err <= 1e-6:
                problems.append(f"{rows[i][3]}: scale features differ from the reference by {err:.2e}")
        return problems


WORKLOADS = {w.name: w for w in (TrainD64(), ScoreD512(), ExtractPpm())}


# ---------------------------------------------------------------------------
# The measuring loop.
# ---------------------------------------------------------------------------


def _digest(s: Session, names) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in names:
        h.update(s.path(name).read_bytes())
    return h.hexdigest()


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  work_root: Path = BENCH_DIR / "_work", out_dir: Path = BENCH_DIR / "_out") -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; return the result and report lines."""
    cli = load_program()
    work = work_root / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(cli, workload, seed, seconds, trace, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(cli, workload, seed, seconds, trace, work, out_dir):
    s = Session(cli, work, seed)
    recorder = SpanRecorder() if trace else None

    def timed(step, traced):
        gc.collect()
        if traced:
            recorder.install()
            lo = recorder.mark()
        t0 = time.perf_counter()
        out = step(s)
        wall = time.perf_counter() - t0
        marks = None
        if traced:
            marks = (lo, recorder.mark())
            recorder.uninstall()
        return out, wall, marks

    # Every round is preceded by its own set-ups (``setup_repeats`` of them,
    # one when traced), so set-up times are sampled across the whole run,
    # as round times are, and ``setup_s`` is the median of many of them.
    rounds = []
    digests = set()
    start = time.perf_counter()
    while True:
        for traced in (False, True) if trace else (False,):
            setups = [timed(workload.setup, traced) for _ in range(1 if traced else workload.setup_repeats)]
            s.failed_phases = set()
            phases, wall, marks = timed(workload.round, traced)
            ok = set(phases) - s.failed_phases
            rounds.append({"phases": phases, "wall": wall, "traced": traced, "marks": marks,
                           "setup_walls": [w for _, w, _ in setups], "setup_marks": setups[-1][2], "ok": ok})
            if ok == set(phases):
                digests.add(_digest(s, workload.outputs))
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks speak of the operations that succeeded: they read the last
    # round's outputs of the phases that did not fail.  A run in which no
    # phase of the last round succeeded has nothing checked and is not correct.
    ok = rounds[-1]["ok"]
    problems = workload.check(s, ok) if ok else ["no operation of the last round succeeded; nothing was checked"]
    if len(digests) > 1:
        problems.append(f"outputs differ between rounds ({len(digests)} distinct digests)")
    untraced = [r for r in rounds if not r["traced"]]
    lines = [
        f"# {workload.name} seed={seed} rounds={len(untraced)} "
        f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} nproc={os.cpu_count()}"
    ]
    lines += [f"FAILED OPERATION: {e}" for e in dict.fromkeys(s.errors)]
    if rounds[-1]["ok"] != set(rounds[-1]["phases"]):
        lines.append(f"checks skipped for the failed phases: {', '.join(sorted(set(rounds[-1]['phases']) - ok))}")
    lines += [f"CHECK FAILED: {p}" for p in problems]

    if trace:
        metrics, table = _per_layer(workload, seed, recorder, rounds, out_dir)
        lines += table
    else:
        main = [r["phases"][workload.main_phase] for r in untraced]
        setup_walls = [w for r in untraced for w in r["setup_walls"]]
        metrics = {
            "wall_s": (_median([r["wall"] for r in untraced]), "s"),
            "setup_s": (_median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "items_per_s": (workload.items / _median(main), "1/s"),
        }
        lines.append("round wall_s: " + " ".join(f"{r['wall']:.3f}" for r in untraced))
        lines.append(f"setup_s:      {len(setup_walls)} set-ups, {min(setup_walls):.3f}..{max(setup_walls):.3f} s")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<14}{value:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def _per_layer(workload, seed, recorder, rounds, out_dir):
    """Per-layer metrics (mean traced set-up plus mean traced round) and the report table."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    k = len(traced)
    setups = [recorder.summarize(*r["setup_marks"]) for r in traced]
    per_round = [recorder.summarize(*r["marks"]) for r in traced]

    def mean(parts, name, i):
        v = sum(p["layers"][name][i] for p in parts) / k
        return int(v) if i == 0 and v == int(v) else v

    metrics, rows = {}, []
    for module, attr, timed in TARGETS:
        name = f"{module}.{attr}"
        s_calls, r_calls = mean(setups, name, 0), mean(per_round, name, 0)
        metrics[f"{name}.calls"] = (s_calls + r_calls, "count")
        s_self = r_self = None
        if timed:
            s_self, r_self = mean(setups, name, 1), mean(per_round, name, 1)
            metrics[f"{name}.self_s"] = (s_self + r_self, "s")
        rows.append((name, s_calls, s_self, r_calls, r_self))

    traced_wall = statistics.fmean(r["wall"] for r in traced)
    self_sum = sum(r[4] for r in rows if r[4] is not None)
    remainder = traced_wall - statistics.fmean(p["top_level_s"] for p in per_round)
    wall_untraced = _median([r["wall"] for r in untraced])
    wall_traced = _median([r["wall"] for r in traced])
    fmt = lambda v: "-" if v is None else f"{v:.4f}"
    table = [f"{'layer':<32}{'setup calls':>12}{'setup self_s':>14}{'round calls':>13}{'round self_s':>14}"]
    table += [f"{n:<32}{sc:>12}{fmt(ss):>14}{rc:>13}{fmt(rs):>14}" for n, sc, ss, rc, rs in rows]
    table += [
        f"traced round wall (mean of {k}) {traced_wall:.4f} s = self times {self_sum:.4f} s "
        f"+ untraced remainder {remainder:.4f} s",
        f"round wall_s median: untraced {wall_untraced:.4f} s, traced {wall_traced:.4f} s; "
        f"tracing overhead {wall_traced - wall_untraced:.4f} s",
    ]
    if recorder.missing:
        table.append(f"not found in the program (reported as 0): {', '.join(recorder.missing)}")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{seed}"
    report = {
        "workload": workload.name,
        "seed": seed,
        "per_layer": {n: {"setup_calls": sc, "setup_self_s": ss, "round_calls": rc, "round_self_s": rs}
                      for n, sc, ss, rc, rs in rows},
        "traced_rounds": k,
        "untraced_rounds": len(untraced),
        "traced_wall_s_mean": traced_wall,
        "round_self_s_sum": self_sum,
        "untraced_remainder_s": remainder,
        "wall_s_untraced_median": wall_untraced,
        "wall_s_traced_median": wall_traced,
        "tracing_overhead_s": wall_traced - wall_untraced,
        "missing": recorder.missing,
    }
    Path(f"{stem}-trace.json").write_text(json.dumps(report, indent=2) + "\n")
    phases = [[r["setup_marks"][0][0], r["marks"][0][0], r["marks"][1][0]] for r in traced]
    np.savez_compressed(f"{stem}-spans.npz", names=np.array(recorder.names), **recorder.arrays(),
                        phases=np.array(phases, dtype=np.int64).reshape(-1, 3))
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
