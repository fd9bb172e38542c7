"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports the program.  The readers follow the documented
on-disk formats (feature records v1, checkpoint v1), the model forward
is one batched NumPy pass over all rows, the image path rebuilds the
toy encoder from interpolation matrices and ``np.add.reduceat`` cell
sums, and the rank metrics come from ``scipy.stats``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID = 16
PROJECTION_SEED = 0x5EEDCE11  # fixed seed of the toy encoder's projection


@dataclass
class Records:
    ids: list[str]
    generators: list[str]
    prompts: list[str]
    labels: np.ndarray  # (n, 3): q_v, q_a, q_c; NaN marks an absent label
    feats: np.ndarray   # (n, 4, dim): f_text, f_05, f_10, f_15


def read_records(path) -> Records:
    """Parse a binary feature-record file (magic ``AMFF``, version 1)."""
    data = Path(path).read_bytes()
    magic, version, dim, count = struct.unpack_from("<4sIIQ", data, 0)
    if magic != b"AMFF" or version != 1:
        raise ValueError(f"{path}: not a version-1 feature-record file")
    pos = 20
    ids, gens, prompts = [], [], []
    labels = np.full((count, 3), np.nan)
    feats = np.empty((count, 4, dim))
    for i in range(count):
        for out, fmt in ((ids, "<H"), (gens, "<H"), (prompts, "<I")):
            (length,) = struct.unpack_from(fmt, data, pos)
            pos += struct.calcsize(fmt)
            out.append(data[pos : pos + length].decode("utf-8"))
            pos += length
        mask = data[pos]
        pos += 1
        for bit in range(3):
            if mask & (1 << bit):
                (labels[i, bit],) = struct.unpack_from("<f", data, pos)
                pos += 4
        feats[i] = np.frombuffer(data, dtype="<f4", count=4 * dim, offset=pos).reshape(4, dim)
        pos += 16 * dim
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return Records(ids, gens, prompts, labels, feats)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a checkpoint: JSON header plus little-endian f64 tensors."""
    data = Path(path).read_bytes()
    if data[:4] != b"AMFK":
        raise ValueError(f"{path}: not a checkpoint")
    (hlen,) = struct.unpack_from("<Q", data, 8)
    header = json.loads(data[16 : 16 + hlen])
    pos = 16 + hlen
    tensors = {}
    for spec in header["tensors"]:
        size = int(np.prod(spec["shape"]))
        tensors[spec["name"]] = np.frombuffer(data, dtype="<f8", count=size, offset=pos).reshape(
            spec["shape"]
        )
        pos += 8 * size
    return header, tensors


def model_forward(header: dict, tensors: dict[str, np.ndarray], feats: np.ndarray) -> dict[str, np.ndarray]:
    """Score every row with the checkpoint's best parameters in one batched pass.

    Returns ``s_c``, ``s_v`` and ``s_a`` on the label scale, as ``predict``
    reports them.  Covers the default model: multi-scale input, learned
    fusion, cosine similarity.
    """
    cfg = header["config"]
    if not (cfg["use_msi"] and cfg["use_aff"] and cfg["similarity"] == "cosine"):
        raise ValueError("reference forward covers only the default model configuration")
    p = {k[len("best."):]: v for k, v in tensors.items() if k.startswith("best.")}
    text, scales = feats[:, 0, :], feats[:, 1:, :]          # (n, D), (n, 3, D)
    hidden = np.maximum(scales @ p["aff.w1"].T + p["aff.b1"], 0.0)
    logits = hidden @ p["aff.w2"].T + p["aff.b2"]           # (n, 3, D)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = e / e.sum(axis=1, keepdims=True)              # softmax over the scale axis
    fused = (weights * scales).sum(axis=1)                  # (n, D)

    def head(name):
        h = np.maximum(fused @ p[f"{name}.w1"].T + p[f"{name}.b1"], 0.0)
        return h @ p[f"{name}.w2"][0] + p[f"{name}.b2"][0]

    cos = (fused * text).sum(axis=1) / (np.linalg.norm(fused, axis=1) * np.linalg.norm(text, axis=1))
    out = {"s_c": np.clip(cos, -1.0, 1.0), "s_v": head("head_v"), "s_a": head("head_a")}
    for key, task in (("s_v", "quality"), ("s_a", "authenticity")):
        rng = header["label_ranges"].get(task)
        if rng:
            lo, hi = rng
            out[key] = lo + out[key] * (hi - lo) if hi > lo else np.full_like(out[key], lo)
    return out


# ---------------------------------------------------------------------------
# Images: generation, PGM/PPM writing, and the toy encoder rebuilt apart.
# ---------------------------------------------------------------------------


def make_image(rng: np.random.Generator, height: int, width: int, channels: int) -> np.ndarray:
    """Smooth random pattern plus noise, as uint8 of shape (h, w, c)."""
    yy = np.linspace(0.0, 1.0, height)[:, None, None]
    xx = np.linspace(0.0, 1.0, width)[None, :, None]
    fy, fx, phase = rng.uniform(0.5, 6.0, (3, 1, 1, channels))
    base = 0.5 + 0.35 * np.sin(2 * np.pi * (fy * yy + phase)) * np.cos(2 * np.pi * fx * xx)
    noisy = base + 0.08 * rng.standard_normal((height, width, channels))
    return np.round(255.0 * np.clip(noisy, 0.0, 1.0)).astype(np.uint8)


def write_pnm(path, pixels: np.ndarray) -> None:
    """Binary PGM (P5) for one channel, PPM (P6) for three, maxval 255."""
    h, w, c = pixels.shape
    magic = b"P6" if c == 3 else b"P5"
    Path(path).write_bytes(b"%s\n%d %d\n255\n" % (magic, w, h) + pixels.tobytes())


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) bilinear weights at half-pixel centres, edges clamped."""
    pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    m = np.zeros((n_out, n_in))
    np.add.at(m, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), hi), frac)
    return m


def rescale(img: np.ndarray, factor: float) -> np.ndarray:
    h, w, _ = img.shape
    out_h, out_w = int(np.floor(factor * h + 0.5)), int(np.floor(factor * w + 0.5))
    rows = np.einsum("oh,hwc->owc", _interp_matrix(h, out_h), img)
    return np.einsum("pw,owc->opc", _interp_matrix(w, out_w), rows)


def grid_stats(img: np.ndarray) -> np.ndarray:
    """Per-cell means then population stds over the 16 x 16 partition."""
    h, w, _ = img.shape
    rows = (np.arange(GRID) * h) // GRID
    cols = (np.arange(GRID) * w) // GRID
    sizes = np.outer(np.diff(np.append(rows, h)), np.diff(np.append(cols, w))) * img.shape[2]

    def cell_sums(a):
        return np.add.reduceat(np.add.reduceat(a, rows, axis=0), cols, axis=1).sum(axis=2)

    means = cell_sums(img) / sizes
    spread = np.repeat(np.repeat(means, np.diff(np.append(rows, h)), axis=0), np.diff(np.append(cols, w)), axis=1)
    stds = np.sqrt(cell_sums((img - spread[:, :, None]) ** 2) / sizes)
    return np.concatenate([means.ravel(), stds.ravel()])


def encode_image(pixels: np.ndarray, dim: int) -> np.ndarray:
    """(3, dim) unit features for the 0.5x, 1.0x and 1.5x scales."""
    img = pixels.astype(np.float64) / 255.0
    proj = np.random.Generator(np.random.PCG64(np.random.SeedSequence((PROJECTION_SEED, dim))))
    proj = proj.standard_normal((dim, 2 * GRID * GRID)) / np.sqrt(2 * GRID * GRID)
    out = []
    for scaled in (rescale(img, 0.5), img, rescale(img, 1.5)):
        v = proj @ grid_stats(scaled)
        out.append(v / np.linalg.norm(v))
    return np.stack(out)


# ---------------------------------------------------------------------------
# Evaluation reports against scipy.
# ---------------------------------------------------------------------------


def metric_mismatches(reports_dir, scatter_dir, tol: float = 1e-9) -> tuple[dict, list[str]]:
    """Compare ``eval.jsonl`` with scipy on the scatter files.

    SRCC and KRCC (tau-b) are computed on the raw predictions, PLCC on
    the logistic-mapped ones, each against the ground truth.  Returns the
    report rows by task and a list of mismatches.
    """
    from scipy import stats

    rows = {}
    problems = []
    for line in (Path(reports_dir) / "eval.jsonl").read_text().splitlines():
        row = json.loads(line)
        rows[row["task"]] = row
        pred, gt, mapped = np.loadtxt(Path(scatter_dir) / f"{row['task']}.txt", ndmin=2).T
        expected = {
            "srcc": stats.spearmanr(pred, gt).statistic,
            "krcc": stats.kendalltau(pred, gt, variant="b").statistic,
            "plcc": stats.pearsonr(mapped, gt).statistic,
            "n": pred.size,
        }
        for key, want in expected.items():
            if not abs(row[key] - want) <= tol:
                problems.append(f"{row['task']} {key}: report {row[key]!r} vs scipy {want!r}")
    if not rows:
        problems.append("eval.jsonl has no rows")
    return rows, problems
