"""Image preprocessing and a deterministic stand-in feature encoder.

Covers the multi-scale input pipeline (bilinear rescaling with
half-pixel-centered sampling) and toy encoders for images and prompts,
so the end-to-end pipeline runs on raw PGM/PPM files without any
pretrained weights.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, NumericError, ShapeError
from .tensor import Array, _round_half_up, make_rng

_GRID = 16                      # toy encoder cell grid is _GRID x _GRID
_STATS_DIM = 2 * _GRID * _GRID  # per-cell mean and std
_PROJECTION_SEED = 0x5EED_CE11
_projection_cache: dict[int, Array] = {}


@dataclass(frozen=True, eq=False)
class Image:
    """Float64 pixels in [0, 1], shape (height, width, channels)."""

    pixels: Array

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] not in (1, 3):
            raise ShapeError(f"Image: expected (h, w, c) with c in {{1, 3}}, got {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ShapeError(f"Image: degenerate size {px.shape}")
        # NaN propagates through min and max, and an infinity is one of them.
        lo, hi = px.min(), px.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NumericError("Image: non-finite pixels")
        if lo < 0.0 or hi > 1.0:
            raise NumericError("Image: pixels outside [0, 1]")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True, eq=False)
class MultiScaleImage:
    """The 1.5x, 1.0x, and 0.5x renditions of one image."""

    i_15: Image
    i_10: Image
    i_05: Image


def _axis_coords(n_in: int, n_out: int) -> tuple[Array, Array, Array]:
    """Half-pixel-centered source coordinates for bilinear sampling."""
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, float(n_in - 1))
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, frac


def _bilinear_grid(grid: Array, out_h: int, out_w: int) -> Array:
    """Sample an (h, w, c) grid at out_h x out_w half-pixel centers."""
    lo_y, hi_y, fy = _axis_coords(grid.shape[0], out_h)
    lo_x, hi_x, fx = _axis_coords(grid.shape[1], out_w)
    # Separable: blend columns once per input row, then blend rows of that.
    # Each pixel still gets lo + f * (hi - lo) on the same four corners, and
    # IEEE + and * commute, so the result equals the four-corner form bit for
    # bit; the difference form keeps constants (and the factor-1 identity)
    # bit-exact.
    left = np.take(grid, lo_x, axis=1)
    rows = np.take(grid, hi_x, axis=1)
    rows -= left
    rows *= fx[:, None]
    rows += left
    top = np.take(rows, lo_y, axis=0)
    out = np.take(rows, hi_y, axis=0)
    out -= top
    out *= fy[:, None, None]
    out += top
    return out


def rescale_bilinear(img: Image, factor: float) -> Image:
    """Rescale by ``factor``; output dims are round-half-up of the scaled dims."""
    if factor <= 0:
        raise ConfigError(f"rescale_bilinear: factor must be positive, got {factor}")
    out_h = _round_half_up(factor * img.height)
    out_w = _round_half_up(factor * img.width)
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"rescale_bilinear: degenerate output size {out_h}x{out_w}")
    return Image(_bilinear_grid(img.pixels, out_h, out_w))


def make_multiscale(img: Image) -> MultiScaleImage:
    """Build the 1.5x / 1.0x / 0.5x input trio from one image."""
    return MultiScaleImage(
        i_15=rescale_bilinear(img, 1.5),
        i_10=img,
        i_05=rescale_bilinear(img, 0.5),
    )


# ---------------------------------------------------------------------------
# Toy encoders.
# ---------------------------------------------------------------------------


def grid_cell_stats(img: Image) -> tuple[Array, Array]:
    """Per-cell mean and population std over a 16x16 partition."""
    h, w, c = img.pixels.shape
    if h < _GRID or w < _GRID:
        raise DataError(f"grid_cell_stats: image {h}x{w} smaller than the {_GRID}x{_GRID} grid")
    # Cell bounds (i * h) // 16 strictly increase because h >= 16, so no
    # reduceat segment is empty. Rows of the (h, w*c) view hold a row's
    # channels side by side, so a cell's columns are c times its pixels.
    rows = np.arange(_GRID) * h // _GRID
    cols = np.arange(_GRID) * w // _GRID * c
    row_len = np.diff(rows, append=h)
    col_len = np.diff(cols, append=w * c)
    count = np.outer(row_len, col_len)
    flat = img.pixels.reshape(h, w * c)

    def cell_sums(x: Array) -> Array:
        return np.add.reduceat(np.add.reduceat(x, rows, axis=0), cols, axis=1)

    means = cell_sums(flat) / count
    dev = flat - np.repeat(np.repeat(means, row_len, axis=0), col_len, axis=1)
    dev *= dev
    stds = np.sqrt(cell_sums(dev) / count)
    return means.ravel(), stds.ravel()


def _projection(dim: int) -> Array:
    if dim not in _projection_cache:
        rng = make_rng((_PROJECTION_SEED, dim))
        _projection_cache[dim] = rng.standard_normal((dim, _STATS_DIM)) / np.sqrt(_STATS_DIM)
    return _projection_cache[dim]


def _encode_one_scale(img: Image, dim: int) -> Array:
    means, stds = grid_cell_stats(img)
    stats = np.concatenate([means, stds])
    vec = _projection(dim) @ stats
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NumericError("toy_encode: degenerate (all-zero) image statistics")
    return vec / norm


def toy_encode(msi: MultiScaleImage, dim: int) -> tuple[Array, Array, Array]:
    """Deterministic unit-norm features (f_05, f_10, f_15) for one image.

    Each scale is summarized by 16x16 grid cell means and stds, then
    projected through a fixed seeded random matrix and L2-normalized.
    """
    if dim <= 0 or dim % 4 != 0:
        raise ConfigError(f"toy_encode: dim must be a positive multiple of 4, got {dim}")
    return (
        _encode_one_scale(msi.i_05, dim),
        _encode_one_scale(msi.i_10, dim),
        _encode_one_scale(msi.i_15, dim),
    )


def toy_encode_text(prompt: str, dim: int) -> Array:
    """Hashed bag of character trigrams, signed, L2-normalized."""
    if not prompt:
        raise DataError("toy_encode_text: empty prompt")
    if dim <= 0 or dim % 4 != 0:
        raise ConfigError(f"toy_encode_text: dim must be a positive multiple of 4, got {dim}")
    grams = [prompt[i : i + 3] for i in range(len(prompt) - 2)] or [prompt]
    vec = np.zeros(dim)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        # Signed counts cancelled; fall back to a deterministic one-hot.
        digest = hashlib.blake2b(prompt.encode("utf-8"), digest_size=8).digest()
        vec[int.from_bytes(digest, "little") % dim] = 1.0
        norm = 1.0
    return vec / norm


# ---------------------------------------------------------------------------
# PGM / PPM decoding (plain and binary variants).
# ---------------------------------------------------------------------------


def _tokenize_header(path, data: bytes, count: int) -> tuple[list[int], int]:
    """Read ``count`` ASCII integers after the magic, honoring # comments."""
    tokens: list[int] = []
    i = 2
    while len(tokens) < count:
        if i >= len(data):
            raise FormatError(f"{path}: image header truncated")
        ch = data[i : i + 1]
        if ch in b" \t\r\n":
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isdigit():
            j = i
            while j < len(data) and data[j : j + 1].isdigit():
                j += 1
            try:
                tokens.append(int(data[i:j]))
            except ValueError:  # more digits than int() converts
                raise FormatError(f"{path}: image header number too long") from None
            i = j
        else:
            raise FormatError(f"{path}: unexpected byte {ch!r} in image header")
    return tokens, i


def read_image(path) -> Image:
    """Decode a PGM (P2/P5) or PPM (P3/P6) file, normalized to [0, 1]."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported image magic {magic!r}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    (w, h, maxval), pos = _tokenize_header(path, data, 3)
    if w < 1 or h < 1:
        raise FormatError(f"{path}: degenerate image size {w}x{h}")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"{path}: maxval {maxval} outside [1, 65535]")
    n_samples = w * h * channels

    if magic in (b"P2", b"P3"):
        text = data[pos:].split()
        if len(text) < n_samples:
            raise FormatError(f"{path}: expected {n_samples} samples, got {len(text)}")
        samples = text[:n_samples]
        # bytes.isdigit is ASCII-only; int() alone would take "+7", "-5" and "1_0".
        if not all(t.isdigit() for t in samples):
            raise FormatError(f"{path}: non-integer sample in ASCII raster")
        try:
            # Clamped so a token too long for float64 still fails the maxval check.
            values = np.array([min(int(t), maxval + 1) for t in samples], dtype=np.float64)
        except ValueError:  # more digits than int() converts
            raise FormatError(f"{path}: sample exceeds maxval {maxval}") from None
    else:
        pos += 1  # exactly one whitespace byte separates header from raster
        if maxval < 256:
            raw = data[pos : pos + n_samples]
            if len(raw) < n_samples:
                raise FormatError(f"{path}: truncated raster data")
            values = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
        else:
            raw = data[pos : pos + 2 * n_samples]
            if len(raw) < 2 * n_samples:
                raise FormatError(f"{path}: truncated raster data")
            values = np.frombuffer(raw, dtype=">u2").astype(np.float64)
    if values.max() > maxval:
        raise FormatError(f"{path}: sample exceeds maxval {maxval}")
    return Image((values / maxval).reshape(h, w, channels))


def write_image(path, img: Image, maxval: int = 255) -> None:
    """Write a binary PGM/PPM file (test and tooling helper)."""
    magic = b"P6" if img.channels == 3 else b"P5"
    header = b"%s\n%d %d\n%d\n" % (magic, img.width, img.height, maxval)
    samples = np.round(img.pixels * maxval)
    if maxval < 256:
        raster = samples.astype(np.uint8).tobytes()
    else:
        raster = samples.astype(">u2").tobytes()
    Path(path).write_bytes(header + raster)
