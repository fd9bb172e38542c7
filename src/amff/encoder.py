"""Image preprocessing and a deterministic stand-in feature encoder.

Covers the multi-scale input pipeline (bilinear rescaling with
half-pixel-centered sampling) and toy encoders for images and prompts,
so the end-to-end pipeline runs on raw PGM/PPM files without any
pretrained weights.
"""

from __future__ import annotations

import hashlib
import math
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
        _check_pixels(px)
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


def _check_pixels(px: Array) -> None:
    """Raise ``NumericError`` unless every pixel is finite and in [0, 1]."""
    # NaN propagates through min and max, and an infinity is one of them.
    lo, hi = px.min(), px.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("Image: non-finite pixels")
    if lo < 0.0 or hi > 1.0:
        raise NumericError("Image: pixels outside [0, 1]")


def _axis_coords(n_in: int, n_out: int) -> tuple[Array, Array, Array]:
    """Half-pixel-centered source coordinates for bilinear sampling."""
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, float(n_in - 1))
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, frac


def _bilinear_rows(grid: Array, ys: tuple[Array, Array, Array], xs: tuple[Array, Array, Array]) -> Array:
    """Sample an (h, w, c) grid at the output rows and columns whose ``_axis_coords`` are ys and xs."""
    lo_y, hi_y, fy = ys
    lo_x, hi_x, fx = xs
    # Only the source rows these output rows sample are read.
    first = lo_y[0]
    grid = grid[first : hi_y[-1] + 1]
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
    top = np.take(rows, lo_y - first, axis=0)
    out = np.take(rows, hi_y - first, axis=0)
    out -= top
    out *= fy[:, None, None]
    out += top
    return out


def _bilinear_grid(grid: Array, out_h: int, out_w: int) -> Array:
    """Sample an (h, w, c) grid at out_h x out_w half-pixel centers."""
    return _bilinear_rows(grid, _axis_coords(grid.shape[0], out_h), _axis_coords(grid.shape[1], out_w))


def _scaled_size(img: Image, factor: float, who: str) -> tuple[int, int]:
    """Height and width of ``img`` rescaled by ``factor``: round-half-up of the scaled dims."""
    if not (math.isfinite(factor) and factor > 0):
        raise ConfigError(f"{who}: factor must be positive and finite, got {factor}")
    return _round_half_up(factor * img.height), _round_half_up(factor * img.width)


def rescale_bilinear(img: Image, factor: float) -> Image:
    """Rescale by ``factor``; output dims are round-half-up of the scaled dims."""
    out_h, out_w = _scaled_size(img, factor, "rescale_bilinear")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"rescale_bilinear: degenerate output size {out_h}x{out_w}")
    return Image(_bilinear_grid(img.pixels, out_h, out_w))


# ---------------------------------------------------------------------------
# Toy encoders.
# ---------------------------------------------------------------------------


def grid_cell_stats(img: Image, factor: float) -> tuple[Array, Array]:
    """Per-cell mean and population std of ``img`` rescaled by ``factor``, over a 16x16 partition.

    The statistics are those of ``rescale_bilinear(img, factor)``, bit for
    bit, but the rescaled image is built one band of cell rows at a time,
    each band from only the source rows it samples, so no full-size copy
    exists; at factor 1 a band is a view of the image's rows.
    """
    out_h, out_w = _scaled_size(img, factor, "grid_cell_stats")
    h, w, c = img.pixels.shape
    if out_h < _GRID or out_w < _GRID:
        raise DataError(f"grid_cell_stats: image {out_h}x{out_w} smaller than the {_GRID}x{_GRID} grid")
    # Cell bounds (i * out_h) // 16 strictly increase because out_h >= 16, so
    # no band or reduceat segment is empty. Rows of a band's (rows, out_w*c)
    # view hold a row's channels side by side, so a cell's columns are c
    # times its pixels.
    bands = np.arange(_GRID + 1) * out_h // _GRID
    cols = np.arange(_GRID) * out_w // _GRID * c
    col_len = np.diff(cols, append=out_w * c)
    ys, xs = _axis_coords(h, out_h), _axis_coords(w, out_w)
    means, stds = np.empty((_GRID, _GRID)), np.empty((_GRID, _GRID))

    def cell_sums(x: Array) -> Array:
        # Rows summed from the band's first, as a reduceat over the whole image sums them.
        return np.add.reduceat(np.add.reduceat(x, [0], axis=0), cols, axis=1)[0]

    for i, (r0, r1) in enumerate(zip(bands[:-1], bands[1:])):
        if factor == 1.0:
            band = img.pixels[r0:r1]
        else:
            band = _bilinear_rows(img.pixels, tuple(a[r0:r1] for a in ys), xs)
            _check_pixels(band)
        flat = band.reshape(r1 - r0, out_w * c)
        count = (r1 - r0) * col_len
        means[i] = cell_sums(flat) / count
        dev = flat - np.repeat(means[i], col_len)
        dev *= dev
        stds[i] = np.sqrt(cell_sums(dev) / count)
    return means.ravel(), stds.ravel()


def _projection(dim: int) -> Array:
    if dim not in _projection_cache:
        rng = make_rng((_PROJECTION_SEED, dim))
        _projection_cache[dim] = rng.standard_normal((dim, _STATS_DIM)) / np.sqrt(_STATS_DIM)
    return _projection_cache[dim]


def _encode_one_scale(img: Image, factor: float, dim: int) -> Array:
    means, stds = grid_cell_stats(img, factor)
    stats = np.concatenate([means, stds])
    vec = _projection(dim) @ stats
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NumericError("toy_encode: degenerate (all-zero) image statistics")
    return vec / norm


def toy_encode(img: Image, dim: int) -> tuple[Array, Array, Array]:
    """Deterministic unit-norm features (f_05, f_10, f_15) for one image.

    Each scale, ``img`` rescaled by 0.5, 1.0 or 1.5, is summarized by 16x16
    grid cell means and stds, then projected through a fixed seeded random
    matrix and L2-normalized.
    """
    if dim <= 0 or dim % 4 != 0:
        raise ConfigError(f"toy_encode: dim must be a positive multiple of 4, got {dim}")
    f_05, f_10, f_15 = (_encode_one_scale(img, factor, dim) for factor in (0.5, 1.0, 1.5))
    return f_05, f_10, f_15


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
            # Clamped so a token too long for an int64 still fails the maxval check.
            ints = np.array([min(int(t), maxval + 1) for t in samples], dtype=np.int64)
        except ValueError:  # more digits than int() converts
            raise FormatError(f"{path}: sample exceeds maxval {maxval}") from None
    else:
        pos += 1  # exactly one whitespace byte separates header from raster
        if maxval < 256:
            raw = data[pos : pos + n_samples]
            if len(raw) < n_samples:
                raise FormatError(f"{path}: truncated raster data")
            ints = np.frombuffer(raw, dtype=np.uint8)
        else:
            raw = data[pos : pos + 2 * n_samples]
            if len(raw) < 2 * n_samples:
                raise FormatError(f"{path}: truncated raster data")
            ints = np.frombuffer(raw, dtype=">u2")
    if ints.max() > maxval:
        raise FormatError(f"{path}: sample exceeds maxval {maxval}")
    values = ints.astype(np.float64)
    values /= maxval
    return Image(values.reshape(h, w, channels))


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
