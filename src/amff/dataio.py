"""Columnar dataset, feature-record codecs, splits, and the planted generator.

A ``Dataset`` holds its rows column-wise: lists of ids, generator ids
and prompts, one ``(N, 4, D)`` float64 feature block whose rows are
f_text, f_05, f_10 and f_15, and an ``(N, 3)`` float64 label block whose
columns are in ``TASKS`` order (q_c, q_v, q_a), in which NaN marks an
absent label.  A mini-batch is an index gather of the blocks and a
scoring chunk a slice of them, so no row is ever copied into an object
of its own.

Feature records are written in a little-endian binary layout (magic
``AMFF``) and read from it or from a CSV layout with one header row;
``read_dataset`` tells them apart by the magic.  Both keep the labels in
file order (q_v, q_a, q_c), and ``read_manifest`` reads the same label
columns from the image manifest of ``amff extract``; only the codecs
here know that order.
Vectors are stored as f32 on disk; the synthetic generator emits values
already on the f32 grid so a write/read round trip is the identity.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, FormatError
from .tensor import Array, _round_half_up

_MAGIC = b"AMFF"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")  # magic, version, dim, record count

TASKS = ("consistency", "quality", "authenticity")
_FEATURES = ("f_text", "f_05", "f_10", "f_15")  # rows of a sample's (4, D) block
_LABEL_NAMES = ("q_v", "q_a", "q_c")  # the labels in file order
_COLUMN = [1, 2, 0]  # the TASKS column of each: quality, authenticity, consistency
_MANIFEST_COLUMNS = ("id", "generator", "prompt", "image")  # an image manifest's required columns
_F32_MAX = float(np.finfo(np.float32).max)
# Rows the planted generator computes at once, and records whose vectors
# the writer converts at once.  Larger chunks save little time and raise
# the peak memory above the feature block.
_CHUNK_ROWS = 64


def _first_nonfinite(features: Array) -> str | None:
    """Where the first non-finite feature value of an (N, 4, D) block is, or None."""
    # A finite sum has only finite terms, and it needs no (N, 4, D) temporary;
    # the exact check below runs only when some term is not finite or the sum
    # of finite terms overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(features.sum()):
            return None
    finite = np.isfinite(features).all(axis=2)
    if finite.all():
        return None
    i, k = np.argwhere(~finite)[0]
    return f"record {i}: non-finite values in {_FEATURES[k]}"


@dataclass(eq=False)
class Dataset:
    """Samples held column-wise, validated once when built.

    ``check_finite=False`` skips the pass over the feature block, for a
    builder that has just checked it with ``_first_nonfinite`` itself.
    """

    ids: list[str]
    generators: list[str]
    prompts: list[str]
    features: Array  # (N, 4, D): f_text, f_05, f_10, f_15
    labels: Array  # (N, 3), columns in TASKS order (q_c, q_v, q_a); NaN marks an absent label
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite: bool):
        n = len(self.ids)
        if n == 0:
            raise DataError("Dataset: refusing to build an empty dataset")
        if len(set(self.ids)) != n:
            raise DataError("Dataset: duplicate sample ids")
        if len(self.generators) != n or len(self.prompts) != n:
            raise DataError(
                f"Dataset: {n} ids but {len(self.generators)} generators and {len(self.prompts)} prompts"
            )
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        f, lab = self.features.shape, self.labels.shape
        if len(f) != 3 or f[:2] != (n, 4) or f[2] == 0 or lab != (n, 3):
            raise DataError(
                f"Dataset: feature dims {f} and label dims {lab} for {n} ids, expected (N, 4, D) and (N, 3)"
            )
        bad = check_finite and _first_nonfinite(self.features)
        if bad:
            raise DataError(f"Dataset: {bad}")
        if np.isinf(self.labels).any():
            raise DataError("Dataset: infinite label")

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    @cached_property
    def label_ranges(self) -> dict[str, tuple[float, float] | None]:
        """Per-task (min, max) over present label values, None for a task with none."""
        ranges = {}
        for task, values in zip(TASKS, self.labels.T):
            values = values[~np.isnan(values)]
            ranges[task] = (float(values.min()), float(values.max())) if values.size else None
        return ranges

    def subset(self, indices) -> "Dataset":
        rows = np.asarray(indices, dtype=np.intp)
        pick = rows.tolist()
        return Dataset(
            [self.ids[i] for i in pick],
            [self.generators[i] for i in pick],
            [self.prompts[i] for i in pick],
            self.features[rows],
            self.labels[rows],
            check_finite=False,  # rows of a block validated when this dataset was built
        )


def _parse_labels(cells: Sequence[str], where: str) -> list[float]:
    """The label row, in ``TASKS`` order, of text cells in file order; an empty cell is an absent label (NaN)."""
    row = [math.nan] * len(TASKS)
    for name, column, cell in zip(_LABEL_NAMES, _COLUMN, cells):
        if cell == "":
            continue
        try:
            value = float(cell)
        except ValueError:
            raise FormatError(f"{where}: bad {name} value {cell!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{where}: label {name} is non-finite")
        row[column] = value
    return row


def read_manifest(path) -> tuple[list[dict[str, str]], Array]:
    """The rows of an image manifest and their (N, 3) label block in ``TASKS`` order.

    The manifest is CSV with columns id, generator, prompt and image, and
    optional label columns q_v, q_a and q_c (an empty cell is an absent
    label).  Every row is checked here, before any image is read: it has
    a cell in each of the four columns, an id no earlier row has, a
    non-empty prompt and labels that parse.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(_MANIFEST_COLUMNS).issubset(reader.fieldnames):
                raise FormatError(f"manifest must have columns {sorted(_MANIFEST_COLUMNS)}")
            rows = list(reader)
    except UnicodeDecodeError:
        raise FormatError(f"manifest {path} is not UTF-8 text") from None
    except csv.Error as exc:
        raise FormatError(f"manifest {path}: malformed CSV at line {reader.reader.line_num} ({exc})") from None
    row_of_id: dict[str, int] = {}
    labels = []
    for k, row in enumerate(rows, start=1):
        if any(row[name] is None for name in _MANIFEST_COLUMNS):
            raise FormatError(f"manifest row {k} has no cell for one of {', '.join(_MANIFEST_COLUMNS)}")
        sid = row["id"]
        if sid in row_of_id:
            raise DataError(f"manifest row {k}: id {sid!r} is also the id of row {row_of_id[sid]}")
        row_of_id[sid] = k
        if not row["prompt"]:
            raise DataError(f"manifest row {k}: empty prompt")
        cells = [(row.get(name) or "").strip() for name in _LABEL_NAMES]
        labels.append(_parse_labels(cells, f"manifest row {sid!r}"))
    return rows, np.array(labels)


# ---------------------------------------------------------------------------
# Binary codec.
# ---------------------------------------------------------------------------


def write_feature_records(dataset: Dataset, path) -> None:
    """Serialize a dataset to the binary record format (deterministic).

    The label masks and the f32 bytes of the present labels are computed
    for all records at once, and each record's strings, mask and labels
    are packed into its head with one ``struct.pack`` before the file is
    opened.  The vectors are converted to f32 ``_CHUNK_ROWS`` records at a
    time, and each chunk of records is written with one call, so no f32
    copy of the whole block is held.  A NaN feature, or a value beyond the
    f32 range, raises ``FormatError`` naming its record and vector before
    the file is opened.
    """
    features, labels = dataset.features, dataset.labels[:, _COLUMN]  # labels in file order
    # max and min scan the block without a full-size temporary, and are NaN if
    # any feature is; only a refusal builds one.
    if not max(features.max(), -features.min()) <= _F32_MAX or np.any(np.abs(labels) > _F32_MAX):
        peaks = np.abs(features).max(axis=2)  # NaN for a vector that holds one
        bad = np.concatenate([~(peaks <= _F32_MAX), np.abs(labels) > _F32_MAX], axis=1)
        i, k = np.argwhere(bad)[0]
        what = "holds NaN" if k < len(_FEATURES) and np.isnan(peaks[i, k]) else "is beyond the f32 range"
        raise FormatError(f"record {dataset.ids[i]!r}: {(_FEATURES + _LABEL_NAMES)[k]} {what}")
    present = ~np.isnan(labels)
    label_bytes = labels[present].astype("<f4").tobytes()  # the present labels, record after record
    ends = (4 * np.cumsum(present.sum(axis=1))).tolist()
    heads = []
    for sid, gen, prompt, mask, start, stop in zip(
        dataset.ids, dataset.generators, dataset.prompts, (present @ (1, 2, 4)).tolist(), [0, *ends], ends
    ):
        id_b, gen_b, prompt_b = sid.encode("utf-8"), gen.encode("utf-8"), prompt.encode("utf-8")
        i, g, p = len(id_b), len(gen_b), len(prompt_b)
        if i > 0xFFFF or g > 0xFFFF:
            raise FormatError(f"record {sid!r}: id/generator too long for u16 length")
        heads.append(struct.pack(
            f"<H{i}sH{g}sI{p}sB{stop - start}s", i, id_b, g, gen_b, p, prompt_b, mask, label_bytes[start:stop]
        ))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, dataset.dim, len(dataset)))
        for first in range(0, len(heads), _CHUNK_ROWS):
            vectors = features[first : first + _CHUNK_ROWS].astype("<f4")
            fh.write(b"".join(chain.from_iterable(zip(heads[first : first + _CHUNK_ROWS], vectors))))


def read_feature_records(path) -> Dataset:
    """Parse a binary feature-record file into a Dataset.

    Only the string headers and label masks are walked record by record;
    each record's four vectors go straight into the preallocated feature
    block, which is checked for finite values once.
    """
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise FormatError("bad magic, not a feature-record file")
    if len(data) < _HEADER.size:
        raise FormatError("truncated file in header")
    _, version, dim, count = _HEADER.unpack_from(data)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version} (expected {_VERSION})")
    if dim == 0:
        raise FormatError("zero feature dimension")
    if count == 0:
        raise FormatError("file contains no records")
    # A record holds at least its three string lengths, its label mask and
    # four f32 vectors; checking that here keeps a corrupt count or dim
    # from sizing the feature block.
    end = len(data)
    least = count * (9 + 16 * dim)
    if least > end - _HEADER.size:
        raise FormatError(
            f"truncated file: {count} records of dim {dim} need at least "
            f"{least} bytes after the header, found {end - _HEADER.size}"
        )

    ids: list[str] = []
    generators: list[str] = []
    prompts: list[str] = []
    labels = np.full((count, 3), np.nan)
    features = np.empty((count, 4, dim))
    vector_bytes = 16 * dim
    pos = _HEADER.size

    def truncated(need: int) -> FormatError:
        return FormatError(f"truncated file in record {idx} (need {need} bytes at offset {pos})")

    # A flipped byte can make a signalling NaN, whose cast to f64 raises
    # "invalid"; it lands in the block as a NaN, which the check below reports.
    with np.errstate(invalid="ignore"):
        for idx in range(count):
            for column, width, what in ((ids, 2, "id"), (generators, 2, "generator_id"), (prompts, 4, "prompt")):
                size = int.from_bytes(data[pos : pos + width], "little")
                if pos + width + size > end:
                    raise truncated(width + size)
                pos += width
                try:
                    column.append(data[pos : pos + size].decode("utf-8"))
                except UnicodeDecodeError:
                    raise FormatError(f"record {idx}: {what} is not valid UTF-8") from None
                pos += size
            if pos >= end:
                raise truncated(1)
            mask = data[pos]
            pos += 1
            for bit, (name, column) in enumerate(zip(_LABEL_NAMES, _COLUMN)):
                if mask & (1 << bit):
                    if pos + 4 > end:
                        raise truncated(4)
                    (value,) = struct.unpack_from("<f", data, pos)
                    if not math.isfinite(value):
                        raise FormatError(f"record {idx}: non-finite label {name}")
                    labels[idx, column] = value
                    pos += 4
            if pos + vector_bytes > end:
                raise truncated(vector_bytes)
            features[idx] = np.frombuffer(data, "<f4", 4 * dim, pos).reshape(4, dim)
            pos += vector_bytes
    bad = _first_nonfinite(features)
    if bad:
        raise FormatError(bad)
    if pos != end:
        raise FormatError(f"{end - pos} trailing bytes after last record")
    return Dataset(ids, generators, prompts, features, labels, check_finite=False)


# ---------------------------------------------------------------------------
# CSV reader (alternative interchange format).
# ---------------------------------------------------------------------------


def _csv_header(dim: int) -> list[str]:
    cols = ["id", "generator", "prompt", *_LABEL_NAMES]
    for prefix in ("ftext", "f05", "f10", "f15"):
        cols.extend(f"{prefix}_{i}" for i in range(dim))
    return cols


def read_feature_records_csv(path) -> Dataset:
    ids: list[str] = []
    generators: list[str] = []
    prompts: list[str] = []
    labels: list[list[float]] = []
    features: list[Array] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError("empty CSV file")
            dim = sum(1 for c in header if c.startswith("ftext_"))
            if dim == 0 or header != _csv_header(dim):
                raise FormatError("unexpected CSV header")
            for idx, row in enumerate(reader):
                if len(row) != len(header):
                    raise FormatError(f"record {idx}: expected {len(header)} cells, got {len(row)}")
                ids.append(row[0])
                generators.append(row[1])
                prompts.append(row[2])
                labels.append(_parse_labels(row[3:6], f"record {idx}"))
                try:
                    features.append(np.array([float(c) for c in row[6:]]))
                except ValueError:
                    raise FormatError(f"record {idx}: non-numeric cell") from None
    except UnicodeDecodeError:
        raise FormatError("not a text/CSV file") from None
    except csv.Error as exc:
        raise FormatError(f"malformed CSV at line {reader.line_num} ({exc})") from None
    if not ids:
        raise FormatError("CSV file contains no records")
    block = np.array(features).reshape(len(ids), 4, dim)
    bad = _first_nonfinite(block)
    if bad:
        raise FormatError(bad)
    return Dataset(ids, generators, prompts, block, np.array(labels), check_finite=False)


def read_dataset(path) -> Dataset:
    """Read a feature-record file in either format: binary if it starts with the magic, else CSV.

    Every error the readers raise is prefixed with ``path``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    try:
        return read_feature_records(path) if head == _MAGIC else read_feature_records_csv(path)
    except (DataError, FormatError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Splits.
# ---------------------------------------------------------------------------


def _split_groups(
    dataset: Dataset, groups: dict[str, Sequence[int]], train_fraction: float, rng: np.random.Generator, who: str
) -> tuple[Dataset, Dataset]:
    """Split each group's rows by ``train_fraction``, groups in the order given.

    A group's train size is round-half-up of fraction * size, and its rows
    are shuffled by the next permutation drawn from ``rng``; both sides
    come back in row order.  A group that would leave either side empty
    is an error.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"{who}: train_fraction must be in (0, 1), got {train_fraction}")
    train_idx, test_idx = [], []
    for name, indices in groups.items():
        m = len(indices)
        m_train = _round_half_up(train_fraction * m)
        if m_train == 0 or m_train == m:
            raise DataError(
                f"{who}: group {name!r} of {m} sample(s) leaves an empty side at fraction {train_fraction}"
            )
        perm = np.asarray(indices)[rng.permutation(m)]
        train_idx.append(perm[:m_train])
        test_idx.append(perm[m_train:])
    return dataset.subset(np.sort(np.concatenate(train_idx))), dataset.subset(np.sort(np.concatenate(test_idx)))


def split_random(dataset: Dataset, train_fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Disjoint random split; train size is round-half-up of fraction*n."""
    return _split_groups(dataset, {"all": range(len(dataset))}, train_fraction, rng, "split_random")


def split_per_generator(dataset: Dataset, train_fraction: float, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Apply the fraction independently inside each generator group.

    Groups are split in order of their first row, each with the next
    permutation drawn from ``rng``.
    """
    groups: dict[str, list[int]] = {}
    for i, gen in enumerate(dataset.generators):
        groups.setdefault(gen, []).append(i)
    return _split_groups(dataset, groups, train_fraction, rng, "split_per_generator")


# ---------------------------------------------------------------------------
# Planted synthetic data.
# ---------------------------------------------------------------------------

_LATENT_DIM = 8


def _smooth(v: Array) -> Array:
    """Circular [1/4, 1/2, 1/4] moving average along the last (feature) axis."""
    return 0.5 * v + 0.25 * (np.roll(v, 1, axis=-1) + np.roll(v, -1, axis=-1))


def _rowdot(a: Array, b: Array) -> Array:
    """``a[i] @ b[i]`` for each row of a (c, k) block, computed by one BLAS dot per row as that expression is.

    A (k,) ``b`` is shared by every row.  ``a @ b`` and ``np.einsum`` sum
    in another order and can differ from it in the last bit.
    """
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _rownorm(a: Array) -> Array:
    """``np.linalg.norm(a[i])`` for each row: the square root of the row's dot with itself."""
    return np.sqrt(_rowdot(a, a))


@dataclass(frozen=True)
class SynthLatents:
    """Generator internals exposed for oracle tests."""

    z: Array       # (n, 8)
    mix: Array     # (dim, 8)
    w_v: Array
    w_a: Array
    angles: Array  # (n,)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # each chunk's features are checked instead
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

    The random numbers are drawn row by row, in stream order: a row's
    latent and its three noise vectors, its angle, then the vector its
    text feature is planted with.  Everything else is computed on
    ``_CHUNK_ROWS`` rows at once with the same kernels a single row uses
    (one gemv and one dot per row), so every byte equals that of a
    row-at-a-time computation.
    """
    if n < 4:
        raise DataError(f"synth_generate: need n >= 4, got {n}")
    if dim < 8:
        raise DataError(f"synth_generate: need dim >= 8, got {dim}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise DataError(f"synth_generate: noise_sigma must be finite and >= 0, got {noise_sigma}")
    try:
        features = np.empty((n, 4, dim))
    except MemoryError:
        raise DataError(
            f"synth_generate: {n} samples of dim {dim} need a {n * 4 * dim * 8}-byte feature block, "
            "more than can be allocated"
        ) from None

    # Orthonormal mixing columns keep the latent-to-feature map well
    # conditioned, so planted labels are recoverable from few samples.
    mix, _ = np.linalg.qr(rng.standard_normal((dim, _LATENT_DIM)))
    w_v = rng.standard_normal(_LATENT_DIM)
    w_v *= 0.5 / np.linalg.norm(w_v)
    w_a = rng.standard_normal(_LATENT_DIM)
    w_a *= 0.5 / np.linalg.norm(w_a)

    labels = np.empty((n, 3))
    zs = np.empty((n, _LATENT_DIM))
    angles = np.empty(n)
    # A row of ``draws`` is one call's normals: z, then the noise of f_10, f_05 and f_15.
    draws = np.empty((_CHUNK_ROWS, _LATENT_DIM + 3 * dim))
    planted = np.empty((_CHUNK_ROWS, dim))
    for start in range(0, n, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, n))
        c = rows.stop - start
        for j in range(c):
            rng.standard_normal(out=draws[j])
            angles[start + j] = rng.uniform(0.0, np.pi / 2.0)
            rng.standard_normal(out=planted[j])
        zs[rows] = draws[:c, :_LATENT_DIM]
        z = zs[rows]
        e_10, e_05, e_15 = draws[:c, _LATENT_DIM:].reshape(c, 3, dim).transpose(1, 0, 2)
        r = planted[:c]

        # one gemv per row, as ``mix @ z`` runs; ``z @ mix.T`` sums in another order
        f_10 = np.matmul(mix, z[:, :, None])[:, :, 0] + noise_sigma * e_10
        smooth = _smooth(f_10)
        f_05 = smooth + noise_sigma * e_05
        f_15 = (2.0 * f_10 - smooth) + noise_sigma * e_15

        u = f_10 / _rownorm(f_10)[:, None]
        ortho = r - _rowdot(r, u)[:, None] * u
        ortho /= _rownorm(ortho)[:, None]
        angle = angles[rows, None]
        f_text = np.cos(angle) * u + np.sin(angle) * ortho

        block = features[rows]
        block[...] = np.stack((f_text, f_05, f_10, f_15), axis=1).astype(np.float32)
        # A noise_sigma too large for f32 features overflows on the way to the cast.
        if not np.isfinite(block).all():
            raise DataError(f"synth_generate: noise_sigma {noise_sigma} puts features beyond the f32 range")
        f_text, f_10 = block[:, 0], block[:, 2]
        q_c = _rowdot(f_text, f_10) / (_rownorm(f_text) * _rownorm(f_10))
        q_v = 1.0 + 4.0 / (1.0 + np.exp(-_rowdot(z, w_v)))
        q_a = 1.0 + 4.0 / (1.0 + np.exp(-_rowdot(z, w_a)))
        labels[rows] = np.stack((q_c, q_v, q_a), axis=1).astype(np.float32)
    dataset = Dataset(
        ids=[f"synth-{i:06d}" for i in range(n)],
        generators=["gen-a" if i % 2 == 0 else "gen-b" for i in range(n)],
        prompts=[f"synthetic scene {i}" for i in range(n)],
        features=features,
        labels=labels,
        check_finite=False,  # every chunk checked above
    )
    return dataset, SynthLatents(zs, mix, w_v, w_a, angles)


def synth_generate(n: int, dim: int, noise_sigma: float, rng: np.random.Generator) -> Dataset:
    """Planted-model dataset for desk-scale training and evaluation."""
    dataset, _ = synth_generate_with_latents(n, dim, noise_sigma, rng)
    return dataset
