import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amff.encoder import (
    Image,
    _axis_coords,
    _bilinear_grid,
    _projection,
    grid_cell_stats,
    read_image,
    rescale_bilinear,
    toy_encode,
    toy_encode_text,
    write_image,
)
from amff.errors import AmffError, ConfigError, DataError, FormatError, NumericError, ShapeError
from amff.tensor import _round_half_up, make_rng


def _image(rng, h=32, w=32, c=1):
    return Image(rng.uniform(0, 1, size=(h, w, c)))


def _four_corner_grid(grid, out_h, out_w):
    """Reference bilinear sampling: blend the four gathered corners of every output pixel."""
    lo_y, hi_y, fy = _axis_coords(grid.shape[0], out_h)
    lo_x, hi_x, fx = _axis_coords(grid.shape[1], out_w)
    a = grid[np.ix_(lo_y, lo_x)]
    b = grid[np.ix_(lo_y, hi_x)]
    c = grid[np.ix_(hi_y, lo_x)]
    d = grid[np.ix_(hi_y, hi_x)]
    fx_col = fx.reshape(1, -1, 1)
    fy_col = fy.reshape(-1, 1, 1)
    top = a + fx_col * (b - a)
    bot = c + fx_col * (d - c)
    return top + fy_col * (bot - top)


def _whole_image_cell_stats(img, factor):
    """Reference grid statistics: the whole image rescaled at once, then every cell summed with reduceat."""
    img = rescale_bilinear(img, factor)
    h, w, c = img.pixels.shape
    if h < 16 or w < 16:
        raise DataError(f"grid_cell_stats: image {h}x{w} smaller than the 16x16 grid")
    rows = np.arange(16) * h // 16
    cols = np.arange(16) * w // 16 * c
    row_len = np.diff(rows, append=h)
    col_len = np.diff(cols, append=w * c)
    count = np.outer(row_len, col_len)
    flat = img.pixels.reshape(h, w * c)

    def cell_sums(x):
        return np.add.reduceat(np.add.reduceat(x, rows, axis=0), cols, axis=1)

    means = cell_sums(flat) / count
    dev = flat - np.repeat(np.repeat(means, row_len, axis=0), col_len, axis=1)
    dev *= dev
    stds = np.sqrt(cell_sums(dev) / count)
    return means.ravel(), stds.ravel()


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of the AmffError it raises."""
    try:
        return fn(*args)
    except AmffError as exc:
        return type(exc), str(exc)


def _cell_stats_loop(img):
    """Reference grid statistics: numpy mean and std of each of the 16x16 cells in turn."""
    h, w = img.height, img.width
    means, stds = np.empty(256), np.empty(256)
    for i in range(16):
        r0, r1 = (i * h) // 16, ((i + 1) * h) // 16
        for j in range(16):
            c0, c1 = (j * w) // 16, ((j + 1) * w) // 16
            cell = img.pixels[r0:r1, c0:c1, :]
            means[i * 16 + j] = cell.mean()
            stds[i * 16 + j] = cell.std()
    return means, stds


class TestRescaleBilinear:
    def test_factor_one_is_bit_exact_identity(self):
        img = _image(make_rng(0), 17, 23, 3)
        out = rescale_bilinear(img, 1.0)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_image_stays_constant(self):
        img = Image(np.full((10, 14, 1), 0.7))
        for factor in (0.5, 1.3, 2.0):
            out = rescale_bilinear(img, factor)
            assert np.all(out.pixels == 0.7)

    def test_224_scale_dims(self):
        img = Image(np.zeros((224, 224, 1)))
        assert rescale_bilinear(img, 1.5).pixels.shape[:2] == (336, 336)
        assert rescale_bilinear(img, 0.5).pixels.shape[:2] == (112, 112)

    def test_2x2_upscale_hand_values(self):
        img = Image(np.array([[0.0, 0.1], [0.2, 0.3]]).reshape(2, 2, 1))
        out = rescale_bilinear(img, 2.0).pixels[:, :, 0]
        # half-pixel centers: source positions are clamp(dst/2 - 0.25, 0, 1),
        # i.e. (0, 0.25, 0.75, 1); the image is linear so out = 0.2 y + 0.1 x
        pos = np.array([0.0, 0.25, 0.75, 1.0])
        expected = 0.2 * pos[:, None] + 0.1 * pos[None, :]
        assert np.allclose(out, expected, atol=1e-12)

    def test_rounding_half_up(self):
        img = Image(np.zeros((5, 5, 1)))
        assert rescale_bilinear(img, 0.5).pixels.shape[:2] == (3, 3)  # 2.5 -> 3

    def test_degenerate_output_errors(self):
        img = Image(np.zeros((3, 3, 1)))
        with pytest.raises(ShapeError):
            rescale_bilinear(img, 0.1)
        with pytest.raises(ConfigError):
            rescale_bilinear(img, -1.0)

    def test_separable_equals_four_corner_form_bit_for_bit(self):
        rng = make_rng(20)
        for shape in ((256, 256, 3), (226, 290, 1), (290, 226, 3), (17, 23, 3), (5, 5, 1)):
            grid = rng.uniform(0, 1, size=shape)
            for factor in (0.5, 1.0, 1.5, 2.0, 0.37):
                out_h, out_w = _round_half_up(factor * shape[0]), _round_half_up(factor * shape[1])
                expected = _four_corner_grid(grid, out_h, out_w)
                assert np.array_equal(_bilinear_grid(grid, out_h, out_w), expected), (shape, factor)

    def test_multiscale_dims(self):
        # toy_encode's scales, which test_scales_are_the_rescaled_images ties it to.
        img = _image(make_rng(1), 20, 30)
        assert rescale_bilinear(img, 1.5).pixels.shape[:2] == (30, 45)
        assert rescale_bilinear(img, 1.0).pixels.shape[:2] == (20, 30)
        assert rescale_bilinear(img, 0.5).pixels.shape[:2] == (10, 15)


class TestBilinearUpsample:
    """Upsampling an (h, w, c) grid, as the 1.5x input scale does."""

    def test_4x4_to_7x7_shape(self):
        out = _bilinear_grid(np.zeros((4, 4, 8)), 7, 7)
        assert out.shape == (7, 7, 8)

    def test_constant_map(self):
        out = _bilinear_grid(np.full((3, 3, 3), 1.25), 6, 5)
        assert out.shape == (6, 5, 3)
        assert np.all(out == 1.25)

    def test_2x2_to_3x3_hand_values(self):
        grid = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(2, 2, 1)
        out = _bilinear_grid(grid, 3, 3)[:, :, 0]
        # source positions clamp((i+0.5)*2/3 - 0.5, 0, 1) = (0, 0.5, 1)
        pos = np.array([0.0, 0.5, 1.0])
        expected = 2.0 * pos[:, None] + pos[None, :]
        assert np.allclose(out, expected, atol=1e-12)


class TestToyEncode:
    def test_deterministic(self):
        img = _image(make_rng(5), 32, 32, 3)
        a = toy_encode(img, 16)
        b = toy_encode(img, 16)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_unit_norm(self):
        for vec in toy_encode(_image(make_rng(6), 40, 40), 32):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_scales_are_the_rescaled_images(self):
        img = _image(make_rng(14), 37, 45, 3)
        for vec, factor in zip(toy_encode(img, 16), (0.5, 1.0, 1.5)):
            expected = _projection(16) @ np.concatenate(_whole_image_cell_stats(img, factor))
            assert np.array_equal(vec, expected / np.linalg.norm(expected)), factor

    def test_peak_memory_is_below_one_image(self):
        img = _image(make_rng(15), 256, 256, 3)
        toy_encode(img, 64)  # the projection matrix is built once per dim
        tracemalloc.start()
        try:
            toy_encode(img, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The whole-image encoder peaked at 11.3 MiB here: one full-size 1.5x copy and its temporaries.
        assert peak < img.pixels.nbytes

    @pytest.mark.parametrize("factor", [0.5, 1.0, 1.5, 2.0, 0.37])
    def test_banded_stats_equal_the_whole_image_ones(self, factor):
        rng = make_rng(16)
        shapes = [(256, 256, 3), (226, 290, 1), (290, 226, 3), (17, 23, 3)]
        shapes += [(h, 29 + h % 5, 1 + 2 * (h % 2)) for h in range(16, 41)]
        for shape in shapes:
            img = _image(rng, *shape)
            got, want = _outcome(grid_cell_stats, img, factor), _outcome(_whole_image_cell_stats, img, factor)
            if isinstance(want[0], type):  # a scale under the grid: the same error
                assert got == want, (shape, factor)
            else:
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (shape, factor)

    def test_small_scale_error_names_its_size(self):
        with pytest.raises(DataError, match=r"^grid_cell_stats: image 9x12 smaller than the 16x16 grid$"):
            grid_cell_stats(_image(make_rng(17), 17, 23, 1), 0.5)

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_factor_must_be_positive(self, factor):
        for scale in (rescale_bilinear, grid_cell_stats):
            with pytest.raises(ConfigError, match=f"^{scale.__name__}: factor must be positive"):
                scale(_image(make_rng(18), 32, 32), factor)

    @pytest.mark.parametrize(
        "bad, message",
        [(1.5, r"pixels outside \[0, 1\]"), (-0.5, r"pixels outside \[0, 1\]"), (np.nan, "non-finite pixels")],
        ids=["above_one", "negative", "nan"],
    )
    def test_rescaled_band_is_checked(self, bad, message):
        img = _image(make_rng(19), 40, 40, 3)
        img.pixels[21, 9, 1] = bad  # past the Image check, as a caller's write would be
        for scale in (rescale_bilinear, grid_cell_stats):
            with pytest.raises(NumericError, match=f"^Image: {message}$"):
                scale(img, 1.5)

    def test_brightness_shift_changes_means_not_stds(self):
        rng = make_rng(7)
        base = rng.uniform(0.2, 0.6, size=(32, 32, 1))
        img_a = Image(base)
        img_b = Image(base + 0.3)
        means_a, stds_a = grid_cell_stats(img_a, 1.0)
        means_b, stds_b = grid_cell_stats(img_b, 1.0)
        assert np.all(np.abs((means_b - means_a) - 0.3) < 1e-12)
        assert np.allclose(stds_a, stds_b, atol=1e-12)

    def test_recompute_cell_stats_directly(self):
        rng = make_rng(8)
        img = _image(rng, 33, 47, 3)  # non-divisible dims
        means, stds = grid_cell_stats(img, 1.0)
        h, w = 33, 47
        for idx in (0, 77, 255):
            i, j = divmod(idx, 16)
            cell = img.pixels[(i * h) // 16 : ((i + 1) * h) // 16, (j * w) // 16 : ((j + 1) * w) // 16]
            assert means[idx] == pytest.approx(cell.mean(), abs=1e-12)
            assert stds[idx] == pytest.approx(cell.std(), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(16, 300), w=st.integers(16, 300), c=st.sampled_from([1, 3]), seed=st.integers(0, 2**32 - 1))
    def test_cell_stats_match_per_cell_loop(self, h, w, c, seed):
        img = _image(make_rng(seed), h, w, c)
        means, stds = grid_cell_stats(img, 1.0)
        ref_means, ref_stds = _cell_stats_loop(img)
        # Cells are summed in another order than numpy's pairwise mean: last-bit differences only.
        assert np.max(np.abs(means - ref_means)) <= 1e-15
        assert np.max(np.abs(stds - ref_stds)) <= 1e-15

    def test_small_image_errors(self):
        with pytest.raises(DataError):  # the 0.5x scale is 10 px < grid
            toy_encode(_image(make_rng(9), 20, 20), 16)

    def test_dim_divisibility(self):
        with pytest.raises(ConfigError):
            toy_encode(_image(make_rng(10), 32, 32), 15)


class TestToyEncodeText:
    def test_deterministic(self):
        assert np.array_equal(toy_encode_text("a cat on a mat", 32), toy_encode_text("a cat on a mat", 32))

    def test_unit_norm(self):
        assert np.linalg.norm(toy_encode_text("prompt", 64)) == pytest.approx(1.0, abs=1e-12)

    def test_different_prompts_differ(self):
        a = toy_encode_text("cat", 64)
        b = toy_encode_text("dog", 64)
        assert float(a @ b) < 1.0 - 1e-6

    def test_short_prompt_ok(self):
        v = toy_encode_text("ab", 16)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_empty_prompt_errors(self):
        with pytest.raises(DataError):
            toy_encode_text("", 16)


class TestImageIO:
    def test_binary_round_trip(self, tmp_path):
        rng = make_rng(11)
        img = Image(np.round(rng.uniform(0, 1, size=(9, 7, 3)) * 255) / 255)
        path = tmp_path / "img.ppm"
        write_image(path, img)
        back = read_image(path)
        assert back.channels == 3
        assert np.allclose(back.pixels, img.pixels, atol=1e-12)

    def test_gray_round_trip_16bit(self, tmp_path):
        rng = make_rng(12)
        img = Image(np.round(rng.uniform(0, 1, size=(5, 4, 1)) * 65535) / 65535)
        path = tmp_path / "img.pgm"
        write_image(path, img, maxval=65535)
        back = read_image(path)
        assert np.allclose(back.pixels, img.pixels, atol=1e-12)

    def test_ascii_pgm_with_comments(self, tmp_path):
        path = tmp_path / "plain.pgm"
        path.write_text("P2\n# a comment\n3 2\n# another\n10\n0 5 10\n10 5 0\n")
        img = read_image(path)
        assert img.pixels.shape == (2, 3, 1)
        assert img.pixels[0, 1, 0] == pytest.approx(0.5)

    def test_ascii_ppm(self, tmp_path):
        path = tmp_path / "plain.ppm"
        path.write_text("P3\n1 1\n255\n255 0 128\n")
        img = read_image(path)
        assert img.pixels[0, 0, 0] == 1.0
        assert img.pixels[0, 0, 2] == pytest.approx(128 / 255)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.img"
        path.write_bytes(b"JUNKDATA")
        with pytest.raises(FormatError, match="magic"):
            read_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(FormatError, match="truncated"):
            read_image(path)

    def test_maxval_bounds(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_text("P2\n1 1\n70000\n0\n")
        with pytest.raises(FormatError, match="maxval"):
            read_image(path)

    def test_non_integer_ascii_sample(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_text("P2\n2 1\n255\n12 oops\n")
        with pytest.raises(FormatError, match="non-integer"):
            read_image(path)

    @pytest.mark.parametrize("token", ["1_0", "+7", "-5", "١٢"])
    def test_only_ascii_digit_samples(self, tmp_path, token):
        path = tmp_path / "signed.pgm"
        path.write_text(f"P2\n2 1\n255\n12 {token}\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"{path}: non-integer sample in ASCII raster"):
            read_image(path)

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_overlong_ascii_sample(self, tmp_path, digits):
        path = tmp_path / "long.pgm"
        path.write_text(f"P2\n2 1\n255\n12 {'9' * digits}\n")
        with pytest.raises(FormatError, match="exceeds maxval"):
            read_image(path)

    def test_overlong_header_number(self, tmp_path):
        path = tmp_path / "wide.pgm"
        path.write_text(f"P2\n{'9' * 5000} 1\n255\n12\n")
        with pytest.raises(FormatError, match="header"):
            read_image(path)


def _valid_images() -> list[bytes]:
    """Small P2, P3, P5 and P6 files at 8 and 16 bits, each decodable as written."""
    rng = make_rng(13)
    files = []
    for channels, (plain, binary) in ((1, (b"P2", b"P5")), (3, (b"P3", b"P6"))):
        for maxval in (255, 65535):
            samples = rng.integers(0, maxval + 1, size=(3, 4, channels))
            header = b"%d %d\n# comment\n%d\n"
            files.append(plain + b"\n" + header % (4, 3, maxval) + " ".join(map(str, samples.ravel())).encode())
            raster = samples.astype(np.uint8 if maxval < 256 else ">u2").tobytes()
            files.append(binary + b"\n" + header % (4, 3, maxval) + raster)
    return files


_VALID_IMAGES = _valid_images()


class TestImageFuzz:
    """Whatever an image file holds, decoding it succeeds or raises an AmffError that names the file."""

    def test_seeds_decode(self, tmp_path):
        for k, blob in enumerate(_VALID_IMAGES):
            path = tmp_path / f"seed{k}.img"
            path.write_bytes(blob)
            assert read_image(path).pixels.shape[:2] == (3, 4)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutations(self, tmp_path_factory, data):
        blob = bytearray(data.draw(st.sampled_from(_VALID_IMAGES)))
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(["flip", "insert", "truncate"]))
            pos = data.draw(st.integers(0, len(blob)))
            if kind == "flip" and pos < len(blob):
                blob[pos] ^= data.draw(st.integers(1, 255))
            elif kind == "insert":
                blob[pos:pos] = data.draw(st.binary(min_size=1, max_size=8))
            else:
                del blob[pos:]
        path = tmp_path_factory.getbasetemp() / "fuzz.img"
        path.write_bytes(bytes(blob))
        try:
            read_image(path)
        except AmffError as exc:
            assert str(exc).count(str(path)) == 1, exc


def test_image_validation():
    with pytest.raises(NumericError):
        Image(np.full((4, 4, 1), 1.5))
    with pytest.raises(ShapeError):
        Image(np.zeros((4, 4, 2)))


@pytest.mark.parametrize(
    "bad, message",
    [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"), (-0.1, r"outside \[0, 1\]")],
    ids=["nan", "pos_inf", "neg_inf", "negative"],
)
def test_image_rejects_pixel(bad, message):
    px = np.full((4, 4, 3), 0.5)
    px[2, 1, 0] = bad
    with pytest.raises(NumericError, match=message):
        Image(px)
