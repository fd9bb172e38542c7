"""Dataset model, feature-record codecs, splits, and the planted generator.

Feature records hold one text feature and three scale features per
sample, each a D-dim vector, alongside up to three quality labels.
Two interchangeable on-disk formats are supported: a little-endian
binary layout (magic ``AMFF``) and a CSV layout with one header row.
Vectors are stored as f32 on disk; the synthetic generator emits values
already on the f32 grid so a write/read round trip is the identity.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .tensor import Array, _round_half_up, as_vector

_MAGIC = b"AMFF"
_VERSION = 1

TASKS = ("consistency", "quality", "authenticity")
_LABEL_FIELDS = {"quality": "q_v", "authenticity": "q_a", "consistency": "q_c"}


@dataclass(frozen=True)
class Labels:
    """Ground-truth scores; ``None`` marks an absent label."""

    q_v: float | None = None
    q_a: float | None = None
    q_c: float | None = None

    def __post_init__(self):
        for name in ("q_v", "q_a", "q_c"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise DataError(f"Labels: {name} is non-finite")

    def get(self, task: str) -> float | None:
        return getattr(self, _LABEL_FIELDS[task])

    @property
    def any_present(self) -> bool:
        return any(v is not None for v in (self.q_v, self.q_a, self.q_c))


@dataclass(frozen=True, eq=False)
class FeatureBundle:
    """Per-sample inputs: text feature plus the three scale features."""

    f_text: Array
    f_05: Array
    f_10: Array
    f_15: Array

    def __post_init__(self):
        vecs = {}
        for name in ("f_text", "f_05", "f_10", "f_15"):
            vecs[name] = as_vector(getattr(self, name), name)
            object.__setattr__(self, name, vecs[name])
        dims = {v.shape[0] for v in vecs.values()}
        if len(dims) != 1:
            raise DataError(f"FeatureBundle: inconsistent dims {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.f_text.shape[0]


@dataclass(frozen=True, eq=False)
class Sample:
    id: str
    generator_id: str
    prompt: str
    features: FeatureBundle
    labels: Labels


@dataclass(eq=False)
class Dataset:
    samples: list[Sample]

    def __post_init__(self):
        if not self.samples:
            raise DataError("Dataset: refusing to build an empty dataset")
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise DataError("Dataset: duplicate sample ids")
        dims = {s.features.dim for s in self.samples}
        if len(dims) != 1:
            raise DataError(f"Dataset: inconsistent feature dims {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples[0].features.dim

    def has_label(self, task: str) -> bool:
        """True when every sample carries the task's label."""
        return all(s.labels.get(task) is not None for s in self.samples)

    @cached_property
    def label_ranges(self) -> dict[str, tuple[float, float]]:
        """Per-task (min, max) over present label values."""
        ranges = {}
        for task in TASKS:
            values = [s.labels.get(task) for s in self.samples if s.labels.get(task) is not None]
            if values:
                ranges[task] = (min(values), max(values))
        return ranges

    def features(self, rows) -> Array:
        """(len(rows), 4, D) block of f_text, f_05, f_10, f_15 for the given rows."""
        return np.array([
            (f.f_text, f.f_05, f.f_10, f.f_15) for f in (self.samples[i].features for i in rows)
        ])

    def labels(self, task: str) -> Array:
        """(N,) values of one task's label; NaN marks an absent label."""
        return np.array([
            np.nan if v is None else v for v in (s.labels.get(task) for s in self.samples)
        ])

    def subset(self, indices) -> "Dataset":
        return Dataset([self.samples[i] for i in indices])


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Field-wise equality, exact on floats (used by round-trip tests)."""
    if len(a) != len(b):
        return False
    for sa, sb in zip(a.samples, b.samples):
        if (sa.id, sa.generator_id, sa.prompt) != (sb.id, sb.generator_id, sb.prompt):
            return False
        if (sa.labels.q_v, sa.labels.q_a, sa.labels.q_c) != (sb.labels.q_v, sb.labels.q_a, sb.labels.q_c):
            return False
        for name in ("f_text", "f_05", "f_10", "f_15"):
            if not np.array_equal(getattr(sa.features, name), getattr(sb.features, name)):
                return False
    return True


# ---------------------------------------------------------------------------
# Binary codec.
# ---------------------------------------------------------------------------


def _encode_record(sample: Sample) -> bytes:
    id_b = sample.id.encode("utf-8")
    gen_b = sample.generator_id.encode("utf-8")
    prompt_b = sample.prompt.encode("utf-8")
    if len(id_b) > 0xFFFF or len(gen_b) > 0xFFFF:
        raise FormatError(f"record {sample.id!r}: id/generator too long for u16 length")
    parts = [
        struct.pack("<H", len(id_b)), id_b,
        struct.pack("<H", len(gen_b)), gen_b,
        struct.pack("<I", len(prompt_b)), prompt_b,
    ]
    mask = 0
    labels = []
    for bit, value in enumerate((sample.labels.q_v, sample.labels.q_a, sample.labels.q_c)):
        if value is not None:
            mask |= 1 << bit
            labels.append(value)
    parts.append(struct.pack("<B", mask))
    for value in labels:
        parts.append(struct.pack("<f", value))
    for name in ("f_text", "f_05", "f_10", "f_15"):
        parts.append(np.asarray(getattr(sample.features, name), dtype="<f4").tobytes())
    return b"".join(parts)


def write_feature_records(dataset: Dataset, path) -> None:
    """Serialize a dataset to the binary record format (deterministic)."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    out += struct.pack("<I", dataset.dim)
    out += struct.pack("<Q", len(dataset))
    for sample in dataset.samples:
        out += _encode_record(sample)
    Path(path).write_bytes(bytes(out))


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.record = -1  # -1 while parsing the file header

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            where = "header" if self.record < 0 else f"record {self.record}"
            raise FormatError(f"truncated file in {where} (need {n} bytes at offset {self.pos})")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def take_str(self, n: int, what: str) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"record {self.record}: {what} is not valid UTF-8") from None


def read_feature_records(path) -> Dataset:
    """Parse a binary feature-record file into a Dataset."""
    cur = _Cursor(Path(path).read_bytes())
    if cur.take(4) != _MAGIC:
        raise FormatError(f"{path}: bad magic, not a feature-record file")
    version = cur.unpack("<I")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version} (expected {_VERSION})")
    dim = cur.unpack("<I")
    if dim == 0:
        raise FormatError(f"{path}: zero feature dimension")
    count = cur.unpack("<Q")
    if count == 0:
        raise FormatError(f"{path}: file contains no records")

    samples = []
    for idx in range(count):
        cur.record = idx
        sid = cur.take_str(cur.unpack("<H"), "id")
        gen = cur.take_str(cur.unpack("<H"), "generator_id")
        prompt = cur.take_str(cur.unpack("<I"), "prompt")
        mask = cur.unpack("<B")
        values: dict[str, float | None] = {"q_v": None, "q_a": None, "q_c": None}
        for bit, name in enumerate(("q_v", "q_a", "q_c")):
            if mask & (1 << bit):
                v = float(cur.unpack("<f"))
                if not np.isfinite(v):
                    raise FormatError(f"record {idx}: non-finite label {name}")
                values[name] = v
        vectors = {}
        for name in ("f_text", "f_05", "f_10", "f_15"):
            raw = cur.take(4 * dim)
            vec = np.frombuffer(raw, dtype="<f4").astype(np.float64)
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"record {idx}: non-finite values in {name}")
            vectors[name] = vec
        samples.append(
            Sample(
                id=sid,
                generator_id=gen,
                prompt=prompt,
                features=FeatureBundle(**vectors),
                labels=Labels(**values),
            )
        )
    if cur.pos != len(cur.data):
        raise FormatError(f"{path}: {len(cur.data) - cur.pos} trailing bytes after last record")
    return Dataset(samples)


# ---------------------------------------------------------------------------
# CSV codec (alternative interchange format).
# ---------------------------------------------------------------------------


def _csv_header(dim: int) -> list[str]:
    cols = ["id", "generator", "prompt", "q_v", "q_a", "q_c"]
    for prefix in ("ftext", "f05", "f10", "f15"):
        cols.extend(f"{prefix}_{i}" for i in range(dim))
    return cols


def write_feature_records_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(dataset.dim))
        for s in dataset.samples:
            row = [s.id, s.generator_id, s.prompt]
            for v in (s.labels.q_v, s.labels.q_a, s.labels.q_c):
                row.append("" if v is None else repr(float(v)))
            for name in ("f_text", "f_05", "f_10", "f_15"):
                row.extend(repr(float(v)) for v in getattr(s.features, name))
            writer.writerow(row)


def read_feature_records_csv(path) -> Dataset:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty CSV file") from None
            dim = sum(1 for c in header if c.startswith("ftext_"))
            if dim == 0 or header != _csv_header(dim):
                raise FormatError(f"{path}: unexpected CSV header")
            samples = []
            for idx, row in enumerate(reader):
                if len(row) != len(header):
                    raise FormatError(f"record {idx}: expected {len(header)} cells, got {len(row)}")
                sid, gen, prompt = row[0], row[1], row[2]
                try:
                    labels = {
                        name: (None if cell == "" else float(cell))
                        for name, cell in zip(("q_v", "q_a", "q_c"), row[3:6])
                    }
                    offset = 6
                    vectors = {}
                    for name in ("f_text", "f_05", "f_10", "f_15"):
                        vec = np.array([float(c) for c in row[offset : offset + dim]])
                        if not np.all(np.isfinite(vec)):
                            raise FormatError(f"record {idx}: non-finite values in {name}")
                        vectors[name] = vec
                        offset += dim
                except ValueError:
                    raise FormatError(f"record {idx}: non-numeric cell") from None
                samples.append(Sample(sid, gen, prompt, FeatureBundle(**vectors), Labels(**labels)))
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not a text/CSV file") from None
    if not samples:
        raise FormatError(f"{path}: CSV file contains no records")
    return Dataset(samples)


# ---------------------------------------------------------------------------
# Splits.
# ---------------------------------------------------------------------------


def split_random(dataset: Dataset, train_fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Disjoint random split; train size is round-half-up of fraction*n."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"split_random: train_fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    if n < 2:
        raise DataError("split_random: need at least 2 samples")
    n_train = _round_half_up(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise DataError(f"split_random: fraction {train_fraction} leaves an empty side for n={n}")
    perm = rng.permutation(n)
    train_idx = sorted(int(i) for i in perm[:n_train])
    test_idx = sorted(int(i) for i in perm[n_train:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


def split_per_generator(dataset: Dataset, train_fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Apply the fraction independently inside each generator group."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"split_per_generator: train_fraction must be in (0, 1), got {train_fraction}")
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(dataset.samples):
        groups.setdefault(s.generator_id, []).append(i)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for gen, indices in groups.items():
        m = len(indices)
        if m < 2:
            raise DataError(f"split_per_generator: group {gen!r} has only {m} sample(s)")
        m_train = _round_half_up(train_fraction * m)
        if m_train == 0 or m_train == m:
            raise DataError(f"split_per_generator: group {gen!r} too small for fraction {train_fraction}")
        perm = rng.permutation(m)
        train_idx.extend(indices[int(i)] for i in perm[:m_train])
        test_idx.extend(indices[int(i)] for i in perm[m_train:])
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


# ---------------------------------------------------------------------------
# Planted synthetic data.
# ---------------------------------------------------------------------------

_LATENT_DIM = 8


def _smooth(v: Array) -> Array:
    """Circular [1/4, 1/2, 1/4] moving average along the feature axis."""
    return 0.5 * v + 0.25 * (np.roll(v, 1) + np.roll(v, -1))


def _f32(x):
    return np.asarray(x, dtype=np.float32).astype(np.float64)


@dataclass(frozen=True)
class SynthLatents:
    """Generator internals exposed for oracle tests."""

    z: Array       # (n, 8)
    mix: Array     # (dim, 8)
    w_v: Array
    w_a: Array
    angles: Array  # (n,)


def synth_generate_with_latents(
    n: int, dim: int, noise_sigma: float, rng: np.random.Generator
) -> tuple[Dataset, SynthLatents]:
    """Planted-model dataset plus the latent factors that produced it.

    Per sample: an 8-dim latent drives the original-scale feature through
    a fixed mixing matrix; the half-scale feature is a smoothed copy and
    the 1.5x feature an unsharp-masked copy (their mean recovers the
    original-scale feature exactly when the noise is zero).  The text
    feature is a unit vector planted at a random angle to the
    original-scale feature's direction, and the stored consistency label
    is the exact cosine between the stored (f32-quantized) vectors.
    Quality and authenticity labels are sigmoids of fixed latent
    projections rescaled to [1, 5].
    """
    if n < 4:
        raise DataError(f"synth_generate: need n >= 4, got {n}")
    if dim < 8:
        raise DataError(f"synth_generate: need dim >= 8, got {dim}")
    if noise_sigma < 0:
        raise DataError(f"synth_generate: noise_sigma must be >= 0, got {noise_sigma}")

    # Orthonormal mixing columns keep the latent-to-feature map well
    # conditioned, so planted labels are recoverable from few samples.
    mix, _ = np.linalg.qr(rng.standard_normal((dim, _LATENT_DIM)))
    w_v = rng.standard_normal(_LATENT_DIM)
    w_v *= 0.5 / np.linalg.norm(w_v)
    w_a = rng.standard_normal(_LATENT_DIM)
    w_a *= 0.5 / np.linalg.norm(w_a)

    samples = []
    zs = np.empty((n, _LATENT_DIM))
    angles = np.empty(n)
    for i in range(n):
        z = rng.standard_normal(_LATENT_DIM)
        zs[i] = z
        f_10 = mix @ z + noise_sigma * rng.standard_normal(dim)
        f_05 = _smooth(f_10) + noise_sigma * rng.standard_normal(dim)
        f_15 = (2.0 * f_10 - _smooth(f_10)) + noise_sigma * rng.standard_normal(dim)

        angle = rng.uniform(0.0, np.pi / 2.0)
        angles[i] = angle
        u = f_10 / np.linalg.norm(f_10)
        r = rng.standard_normal(dim)
        ortho = r - (r @ u) * u
        ortho /= np.linalg.norm(ortho)
        f_text = np.cos(angle) * u + np.sin(angle) * ortho

        f_text, f_05, f_10, f_15 = _f32(f_text), _f32(f_05), _f32(f_10), _f32(f_15)
        q_c = float(
            np.float32(float(f_text @ f_10) / (np.linalg.norm(f_text) * np.linalg.norm(f_10)))
        )
        q_v = float(np.float32(1.0 + 4.0 / (1.0 + np.exp(-(w_v @ z)))))
        q_a = float(np.float32(1.0 + 4.0 / (1.0 + np.exp(-(w_a @ z)))))

        samples.append(
            Sample(
                id=f"synth-{i:06d}",
                generator_id="gen-a" if i % 2 == 0 else "gen-b",
                prompt=f"synthetic scene {i}",
                features=FeatureBundle(f_text=f_text, f_05=f_05, f_10=f_10, f_15=f_15),
                labels=Labels(q_v=q_v, q_a=q_a, q_c=q_c),
            )
        )
    return Dataset(samples), SynthLatents(zs, mix, w_v, w_a, angles)


def synth_generate(n: int, dim: int, noise_sigma: float, rng: np.random.Generator) -> Dataset:
    """Planted-model dataset for desk-scale training and evaluation."""
    dataset, _ = synth_generate_with_latents(n, dim, noise_sigma, rng)
    return dataset
