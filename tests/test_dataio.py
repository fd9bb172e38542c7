import csv
import hashlib
import math
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amff import cli, dataio
from amff.dataio import (
    Dataset,
    SynthLatents,
    read_feature_records,
    read_feature_records_csv,
    split_per_generator,
    split_random,
    synth_generate,
    synth_generate_with_latents,
    write_feature_records,
)
from amff.errors import AmffError, DataError, FormatError
from amff.tensor import make_rng
from conftest import datasets_equal, write_feature_records_csv


def _vec(rng, dim):
    # values on the f32 grid so the binary codec round-trips bit-exactly
    return rng.standard_normal(dim).astype(np.float32).astype(np.float64)


def _dataset(rng, n=5, dim=6, generators=("a", "b")):
    features = np.empty((n, 4, dim))
    labels = np.empty((n, 3))
    for i in range(n):
        features[i] = [_vec(rng, dim) for _ in range(4)]
        labels[i] = (
            float(np.float32(rng.uniform(1, 5))),
            np.nan if i == 2 else float(np.float32(rng.uniform(1, 5))),
            float(np.float32(rng.uniform(0, 1))),
        )
    return Dataset(
        ids=[f"s{i}" for i in range(n)],
        generators=[generators[i % len(generators)] for i in range(n)],
        prompts=[f"a prompt, with commas {i}" for i in range(n)],
        features=features,
        labels=labels,
    )


def _poisoned(shape, index, value):
    block = np.ones(shape)
    block[index] = value
    return block


def _rows(ds, rows, **replace):
    """A dataset of the given rows of ``ds``, with whole columns replaced by keyword."""
    columns = {
        "ids": [ds.ids[i] for i in rows],
        "generators": [ds.generators[i] for i in rows],
        "prompts": [ds.prompts[i] for i in rows],
        "features": ds.features[rows],
        "labels": ds.labels[rows],
    }
    return Dataset(**{**columns, **replace})


class TestBinaryCodec:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = _dataset(make_rng(0))
        path = tmp_path / "data.amff"
        write_feature_records(ds, path)
        assert datasets_equal(read_feature_records(path), ds)

    def test_two_writes_identical_bytes(self, tmp_path):
        ds = _dataset(make_rng(1))
        p1, p2 = tmp_path / "a.amff", tmp_path / "b.amff"
        write_feature_records(ds, p1)
        write_feature_records(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_follow_the_record_layout(self, tmp_path):
        # 130 records cross two of the writer's conversion chunks; absent labels and non-ASCII prompts included
        ds = _dataset(make_rng(3), n=130, dim=3)
        ds.prompts[:] = [f"prompt é{'€' * (i % 3)}" for i in range(130)]
        ds.labels[::4, 0] = ds.labels[1::5, 1] = ds.labels[2::7] = np.nan
        path = tmp_path / "d.amff"
        write_feature_records(ds, path)
        expected = [struct.pack("<4sIIQ", b"AMFF", 1, 3, 130)]
        for sid, gen, prompt, labels, vectors in zip(ds.ids, ds.generators, ds.prompts, ds.labels, ds.features):
            for text, width in ((sid, "H"), (gen, "H"), (prompt, "I")):
                expected.append(struct.pack("<" + width, len(text.encode())) + text.encode())
            file_labels = [labels[1], labels[2], labels[0]]  # q_v, q_a, q_c
            present = [not math.isnan(v) for v in file_labels]
            expected.append(struct.pack("<B", sum(1 << bit for bit, p in enumerate(present) if p)))
            expected.append(b"".join(struct.pack("<f", v) for v, p in zip(file_labels, present) if p))
            expected.append(struct.pack(f"<{vectors.size}f", *vectors.ravel()))
        assert path.read_bytes() == b"".join(expected)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.amff"
        write_feature_records(_dataset(make_rng(2)), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord(b"X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_feature_records(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "data.amff"
        write_feature_records(_dataset(make_rng(3)), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_feature_records(path)

    def test_truncation_reports_record_index(self, tmp_path):
        path = tmp_path / "data.amff"
        write_feature_records(_dataset(make_rng(4)), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError, match="record 4"):
            read_feature_records(path)

    def test_nonfinite_feature_rejected(self, tmp_path):
        path = tmp_path / "data.amff"
        ds = _dataset(make_rng(5), n=4, dim=4)
        write_feature_records(ds, path)
        for value in (np.nan, np.inf, -np.inf):
            blob = bytearray(path.read_bytes())
            # last 4 bytes of the final record are the tail of f_15: poison them
            blob[-4:] = struct.pack("<f", value)
            (tmp_path / "bad.amff").write_bytes(bytes(blob))
            with pytest.raises(FormatError, match="record 3: non-finite values in f_15"):
                read_feature_records(tmp_path / "bad.amff")

    def test_signalling_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "data.amff"
        write_feature_records(_dataset(make_rng(5), n=4, dim=4), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<I", 0x7F800001)  # f32 NaN with the quiet bit clear
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="record 3: non-finite values in f_15"):
            read_feature_records(path)

    @pytest.mark.parametrize("write, read", [(write_feature_records, read_feature_records),
                                             (write_feature_records_csv, read_feature_records_csv)],
                             ids=["binary", "csv"])
    def test_one_finiteness_pass_per_read(self, tmp_path, monkeypatch, write, read):
        path = tmp_path / "data"
        write(_dataset(make_rng(5), n=4, dim=4), path)
        calls = []
        checker = dataio._first_nonfinite
        monkeypatch.setattr(dataio, "_first_nonfinite", lambda block: calls.append(1) or checker(block))
        read(path)
        assert len(calls) == 1

    def test_reading_a_finite_block_builds_no_mask_of_it(self, tmp_path):
        import tracemalloc

        path = tmp_path / "data.amff"
        write_feature_records(synth_generate(64, 512, 0.01, make_rng(6)), path)
        tracemalloc.start()
        try:
            ds = read_feature_records(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes and the float64 block, plus far less than a
        # one-byte-per-value finiteness mask of the block.
        assert peak < path.stat().st_size + ds.features.nbytes + ds.features.size // 4

    def test_handcrafted_file(self, tmp_path):
        # build a 3-sample file by hand, byte for byte, per the documented layout
        dim = 2
        blob = b"AMFF" + struct.pack("<I", 1) + struct.pack("<I", dim) + struct.pack("<Q", 3)
        expected_vectors = []
        for k in range(3):
            sid = f"s{k}".encode()
            blob += struct.pack("<H", len(sid)) + sid
            blob += struct.pack("<H", 3) + b"gen"
            blob += struct.pack("<I", 5) + b"hello"
            blob += struct.pack("<B", 0b101)  # q_v and q_c present, q_a absent
            blob += struct.pack("<f", 3.5 + k) + struct.pack("<f", 0.25 * k)
            vectors = {
                name: [8.0 * k + 2 * i, 8.0 * k + 2 * i + 1]
                for i, name in enumerate(("f_text", "f_05", "f_10", "f_15"))
            }
            expected_vectors.append(vectors)
            for name in ("f_text", "f_05", "f_10", "f_15"):
                blob += struct.pack("<2f", *vectors[name])
        path = tmp_path / "hand.amff"
        path.write_bytes(blob)
        ds = read_feature_records(path)
        assert len(ds) == 3
        for k in range(3):
            assert (ds.ids[k], ds.generators[k], ds.prompts[k]) == (f"s{k}", "gen", "hello")
            q_c, q_v, q_a = ds.labels[k]
            assert q_v == 3.5 + k and np.isnan(q_a)
            assert q_c == pytest.approx(0.25 * k, abs=1e-7)
            for row, expected in enumerate(expected_vectors[k].values()):
                assert np.array_equal(ds.features[k, row], np.array(expected))

    def test_invalid_utf8_rejected(self, tmp_path):
        dim = 1
        blob = b"AMFF" + struct.pack("<I", 1) + struct.pack("<I", dim) + struct.pack("<Q", 1)
        blob += struct.pack("<H", 2) + b"\xff\xfe"  # invalid UTF-8 id
        blob += struct.pack("<H", 1) + b"g"
        blob += struct.pack("<I", 1) + b"p"
        blob += struct.pack("<B", 0)
        blob += struct.pack("<4f", 1, 2, 3, 4)
        path = tmp_path / "bad.amff"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="UTF-8"):
            read_feature_records(path)

    @pytest.mark.parametrize("row, column", [(1, "f_10"), (3, "q_v")])
    def test_value_beyond_f32_refused_before_writing(self, tmp_path, row, column):
        ds = _dataset(make_rng(6), n=4, dim=4)
        features, labels = ds.features.copy(), ds.labels.copy()
        if column == "f_10":
            features[row, 2, 1] = -1e39
        else:
            labels[row, 1] = 1e39
        path = tmp_path / "data.amff"
        with pytest.raises(FormatError, match=f"record 's{row}': {column} is beyond the f32 range"):
            write_feature_records(_rows(ds, range(4), features=features, labels=labels), path)
        assert not path.exists()

    @pytest.mark.parametrize("value, refusal", [(np.nan, "holds NaN"), (-np.inf, "is beyond the f32 range")])
    def test_nonfinite_feature_refused_before_writing(self, tmp_path, value, refusal):
        ds = _dataset(make_rng(6), n=4, dim=4)
        ds.features[2, 3, 1] = value  # a built dataset's block can still be edited
        path = tmp_path / "data.amff"
        with pytest.raises(FormatError, match=f"record 's2': f_15 {refusal}"):
            write_feature_records(ds, path)
        assert not path.exists()

    def test_empty_dataset_refused(self):
        with pytest.raises(DataError):
            Dataset([], [], [], np.empty((0, 4, 1)), np.empty((0, 3)))


class TestCsvCodec:
    def test_round_trip(self, tmp_path):
        ds = _dataset(make_rng(6))
        path = tmp_path / "data.csv"
        write_feature_records_csv(ds, path)
        back = read_feature_records_csv(path)
        assert datasets_equal(back, ds)
        # absent label survives as an empty cell
        assert np.isnan(back.labels[2, 1])

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,generator\nx,y\n")
        with pytest.raises(FormatError, match="header"):
            read_feature_records_csv(path)


class TestReadDataset:
    @pytest.mark.parametrize("write", [write_feature_records, write_feature_records_csv], ids=["binary", "csv"])
    def test_reads_either_format(self, tmp_path, write):
        ds = _dataset(make_rng(11))
        path = tmp_path / "data"
        write(ds, path)
        assert datasets_equal(dataio.read_dataset(path), ds)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="data file not found"):
            dataio.read_dataset(tmp_path / "absent.amff")

    @pytest.mark.parametrize("keep", [4, -3], ids=["magic_only", "short_last_record"])
    def test_truncated_binary_file_is_read_as_binary(self, tmp_path, keep):
        path = tmp_path / "data"
        write_feature_records(_dataset(make_rng(12)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FormatError, match="truncated file") as info:
            dataio.read_dataset(path)
        assert "CSV" not in str(info.value)
        assert str(info.value).startswith(f"{path}: ") and str(info.value).count(str(path)) == 1


class TestSplits:
    def test_random_counts_and_disjointness(self):
        ds = _dataset(make_rng(7), n=10)
        train, test = split_random(ds, 0.8, make_rng(0))
        assert len(train) == 8 and len(test) == 2
        assert not set(train.ids) & set(test.ids)
        assert set(train.ids) | set(test.ids) == set(ds.ids)

    def test_random_determinism(self):
        ds = _dataset(make_rng(8), n=12)
        a = split_random(ds, 0.75, make_rng(3))
        b = split_random(ds, 0.75, make_rng(3))
        assert a[0].ids == b[0].ids

    def test_degenerate_fraction_errors(self):
        ds = _dataset(make_rng(9), n=4)
        with pytest.raises(DataError):
            split_random(ds, 0.95, make_rng(0))  # train rounds to n
        with pytest.raises(DataError):
            split_random(ds, 1.5, make_rng(0))

    def test_production_scale_counts(self):
        ds = _dataset(make_rng(10), n=2982, dim=8)
        train, test = split_random(ds, 0.8, make_rng(0))
        assert (len(train), len(test)) == (2386, 596)

    def test_splits_do_not_recheck_finite_features(self, monkeypatch):
        ds = _dataset(make_rng(10), n=20)
        calls = []
        monkeypatch.setattr(dataio, "_first_nonfinite", lambda block: calls.append(block.shape))
        train, test = split_random(ds, 0.8, make_rng(0))
        train.subset([0, 2, 4])
        test.subset(np.arange(len(test)))
        assert calls == []

    def test_per_generator_counts(self):
        ds = _dataset(make_rng(11), n=16, generators=("g1", "g2"))
        train, test = split_per_generator(ds, 0.75, make_rng(0))
        for part, expect in ((train, 6), (test, 2)):
            assert Counter(part.generators) == {"g1": expect, "g2": expect}

    def test_per_generator_brute_force_recount(self):
        rng = make_rng(12)
        ds = _dataset(rng, n=30, generators=("a", "b", "c"))
        train, _ = split_per_generator(ds, 0.7, make_rng(1))
        for gen in ("a", "b", "c"):
            total = ds.generators.count(gen)
            got = train.generators.count(gen)
            assert got == int(np.floor(0.7 * total + 0.5))

    def test_single_generator_matches_split_random(self):
        for n, fraction in ((10, 0.8), (2, 0.5), (7, 0.3), (25, 0.75), (101, 0.5), (64, 0.9)):
            ds = _dataset(make_rng(13), n=n, generators=("only",))
            a = split_per_generator(ds, fraction, make_rng(2))
            b = split_random(ds, fraction, make_rng(2))
            assert (a[0].ids, a[1].ids) == (b[0].ids, b[1].ids), (n, fraction)

    def test_small_group_errors(self):
        full = _dataset(make_rng(14), n=5, generators=("a",))
        ds = _rows(full, [0, 1, 2, 3, 0], ids=full.ids[:4] + ["lone"], generators=["a"] * 4 + ["b"],
                   prompts=full.prompts[:4] + ["p"])
        with pytest.raises(DataError, match="group"):
            split_per_generator(ds, 0.75, make_rng(0))

    @pytest.mark.parametrize(
        "split, generators, fraction, message",
        [
            (split_random, ("a", "b"), 0.95, "split_random: group 'all' of 4 sample(s) leaves an empty side "
                                              "at fraction 0.95"),
            (split_random, ("a", "b"), 0.1, "split_random: group 'all' of 4 sample(s) leaves an empty side "
                                             "at fraction 0.1"),
            (split_per_generator, ("a", "a", "a", "b"), 0.75, "split_per_generator: group 'b' of 1 sample(s) "
                                                              "leaves an empty side at fraction 0.75"),
        ],
        ids=["random_empty_test_side", "random_empty_train_side", "per_generator_lone_row"],
    )
    def test_empty_side_message_names_group_size_and_fraction(self, split, generators, fraction, message):
        ds = _dataset(make_rng(15), n=4, generators=generators)
        with pytest.raises(DataError) as info:
            split(ds, fraction, make_rng(0))
        assert str(info.value) == message


def _synth_reference(n, dim, noise_sigma, rng):
    """The planted generator computed one row at a time, as it was before rows were chunked."""

    def smooth(v):
        return 0.5 * v + 0.25 * (np.roll(v, 1) + np.roll(v, -1))

    def f32(x):
        return np.asarray(x, dtype=np.float32).astype(np.float64)

    mix, _ = np.linalg.qr(rng.standard_normal((dim, 8)))
    w_v = rng.standard_normal(8)
    w_v *= 0.5 / np.linalg.norm(w_v)
    w_a = rng.standard_normal(8)
    w_a *= 0.5 / np.linalg.norm(w_a)

    features = np.empty((n, 4, dim))
    labels = np.empty((n, 3))
    zs = np.empty((n, 8))
    angles = np.empty(n)
    for i in range(n):
        z = rng.standard_normal(8)
        zs[i] = z
        f_10 = mix @ z + noise_sigma * rng.standard_normal(dim)
        smoothed = smooth(f_10)
        f_05 = smoothed + noise_sigma * rng.standard_normal(dim)
        f_15 = (2.0 * f_10 - smoothed) + noise_sigma * rng.standard_normal(dim)

        angle = rng.uniform(0.0, np.pi / 2.0)
        angles[i] = angle
        u = f_10 / np.linalg.norm(f_10)
        r = rng.standard_normal(dim)
        ortho = r - (r @ u) * u
        ortho /= np.linalg.norm(ortho)
        f_text = np.cos(angle) * u + np.sin(angle) * ortho

        f_text, f_05, f_10, f_15 = f32(f_text), f32(f_05), f32(f_10), f32(f_15)
        q_c = float(np.float32(float(f_text @ f_10) / (np.linalg.norm(f_text) * np.linalg.norm(f_10))))
        q_v = float(np.float32(1.0 + 4.0 / (1.0 + np.exp(-(w_v @ z)))))
        q_a = float(np.float32(1.0 + 4.0 / (1.0 + np.exp(-(w_a @ z)))))

        features[i] = f_text, f_05, f_10, f_15
        labels[i] = q_c, q_v, q_a
    dataset = Dataset(
        ids=[f"synth-{i:06d}" for i in range(n)],
        generators=["gen-a" if i % 2 == 0 else "gen-b" for i in range(n)],
        prompts=[f"synthetic scene {i}" for i in range(n)],
        features=features,
        labels=labels,
    )
    return dataset, SynthLatents(zs, mix, w_v, w_a, angles)


# sha256 of the `amff synth --seed 7 --noise 0.01` files, written by the
# row-at-a-time generator and the record writer that packed field by field.
_SYNTH_DIGESTS = {
    (512, 64): "c37087b92a701b2723ef40dbe0802daac23863b5289ae6e908811505f83bebb0",
    (2982, 512): "f81898dd8e9fd76a4694084073f925dae4536beaaaacdbc71a760fcbc97450a1",
}


class TestSynthGenerate:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([63, 64, 65, 128, 129]) | st.integers(4, 300),
        dim=st.sampled_from([8, 9, 33, 130]) | st.integers(8, 130),
        noise=st.sampled_from([0.0, 1e-3, 0.01, 0.5, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_row_at_a_time_reference_bit_for_bit(self, n, dim, noise, seed):
        ds, lat = synth_generate_with_latents(n, dim, noise, make_rng(seed))
        ref, ref_lat = _synth_reference(n, dim, noise, make_rng(seed))
        assert (ds.ids, ds.generators, ds.prompts) == (ref.ids, ref.generators, ref.prompts)
        assert ds.features.tobytes() == ref.features.tobytes()
        assert ds.labels.tobytes() == ref.labels.tobytes()
        for field in ("z", "mix", "w_v", "w_a", "angles"):
            assert getattr(lat, field).tobytes() == getattr(ref_lat, field).tobytes(), field

    @pytest.mark.parametrize("n, dim", list(_SYNTH_DIGESTS), ids=lambda v: str(v))
    def test_synth_file_digest(self, tmp_path, n, dim):
        out = tmp_path / "synth.amff"
        argv = ["synth", "--out", str(out), "--n", str(n), "--dim", str(dim), "--seed", "7", "--noise", "0.01"]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _SYNTH_DIGESTS[n, dim]

    def test_peak_memory_stays_near_the_feature_block(self):
        tracemalloc.start()
        try:
            ds = synth_generate(2982, 512, 0.01, make_rng(7))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes + 8 * 2**20, (peak, ds.features.nbytes)

    def test_same_seed_identical_bytes(self, tmp_path):
        a = synth_generate(16, 8, 0.05, make_rng(4))
        b = synth_generate(16, 8, 0.05, make_rng(4))
        pa, pb = tmp_path / "a.amff", tmp_path / "b.amff"
        write_feature_records(a, pa)
        write_feature_records(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noise_zero_consistency_label_exact(self):
        ds = synth_generate(12, 16, 0.0, make_rng(5))
        for ft, f10, q_c in zip(ds.features[:, 0], ds.features[:, 2], ds.labels[:, 0]):
            recomputed = float(
                np.float32(float(ft @ f10) / (np.linalg.norm(ft) * np.linalg.norm(f10)))
            )
            assert recomputed == q_c

    def test_labels_are_functions_of_latents(self):
        ds, lat = synth_generate_with_latents(10, 8, 0.0, make_rng(6))
        for i, (label_c, label_v, _) in enumerate(ds.labels):
            q_v = float(np.float32(1.0 + 4.0 / (1.0 + np.exp(-(lat.w_v @ lat.z[i])))))
            assert label_v == q_v
            assert abs(label_c - np.cos(lat.angles[i])) < 1e-5

    def test_linear_probe_recovers_quality(self):
        ds, lat = synth_generate_with_latents(512, 16, 0.0, make_rng(7))
        z = np.hstack([lat.z, np.ones((len(ds), 1))])
        q = ds.labels[:, 1]
        coef, *_ = np.linalg.lstsq(z, q, rcond=None)
        resid = q - z @ coef
        r2 = 1.0 - float(resid @ resid) / float(((q - q.mean()) ** 2).sum())
        assert r2 > 0.99

    def test_text_features_unit_norm(self):
        ds = synth_generate(8, 8, 0.1, make_rng(8))
        for f_text in ds.features[:, 0]:
            assert np.linalg.norm(f_text) == pytest.approx(1.0, abs=1e-6)

    def test_generator_ids_alternate(self):
        ds = synth_generate(8, 8, 0.0, make_rng(9))
        assert set(ds.generators) == {"gen-a", "gen-b"}

    def test_invalid_sizes(self):
        with pytest.raises(DataError):
            synth_generate(3, 8, 0.0, make_rng(0))
        with pytest.raises(DataError):
            synth_generate(8, 4, 0.0, make_rng(0))
        with pytest.raises(DataError):
            synth_generate(8, 8, -0.1, make_rng(0))

    @pytest.mark.parametrize("noise", [1e39, 1e308])
    def test_noise_beyond_the_f32_range(self, noise):
        # Every warning is an error in this suite, so the overflow on the way must raise none.
        with pytest.raises(DataError, match=r"synth_generate: noise_sigma \S+ puts features beyond the f32 range"):
            synth_generate(4, 8, noise, make_rng(1))


class TestDatasetModel:
    def test_duplicate_ids_rejected(self):
        ds = _dataset(make_rng(15), n=2)
        with pytest.raises(DataError, match="duplicate"):
            _rows(ds, [0, 1], ids=[ds.ids[0]] * 2, generators=[ds.generators[0], "g"],
                  prompts=[ds.prompts[0], "p"])

    def test_label_ranges(self):
        ds = _dataset(make_rng(16), n=6)
        ranges = ds.label_ranges
        values = ds.labels[:, 0].tolist()
        assert ranges["consistency"] == (min(values), max(values))
        assert ranges["quality"] is not None  # present for some samples
        labels = ds.labels.copy()
        labels[:, 2] = np.nan
        assert _rows(ds, range(6), labels=labels).label_ranges["authenticity"] is None

    def test_inconsistent_dims_rejected(self):
        rng = make_rng(17)
        a = _dataset(rng, n=2, dim=4)
        b = _dataset(make_rng(18), n=2, dim=6)
        # Two rows of dim 4 and a third row, of dim 6, that cannot join the block.
        with pytest.raises(DataError, match="dims"):
            _rows(a, [0, 1], ids=a.ids + ["x0"], generators=a.generators + ["g"], prompts=a.prompts + ["p"],
                  labels=np.concatenate([a.labels, b.labels[:1]]))

    @pytest.mark.parametrize(
        "replace, match",
        [
            ({"generators": ["a"]}, "generators"),
            ({"features": np.zeros((2, 3, 6))}, "dims"),
            ({"features": np.full((2, 4, 6), np.inf)}, "record 0: non-finite values in f_text"),
            ({"labels": np.array([[1.0, np.nan, 0.5], [1.0, -np.inf, 0.5]])}, "infinite label"),
            *[({"features": _poisoned((2, 4, 6), (1, 1, 3), v)}, "record 1: non-finite values in f_05")
              for v in (np.nan, np.inf, -np.inf)],
        ],
    )
    def test_columns_validated(self, replace, match):
        ds = _dataset(make_rng(19), n=2)
        with pytest.raises(DataError, match=match):
            _rows(ds, [0, 1], **replace)

    def test_finite_block_whose_sum_overflows_is_accepted(self):
        ds = _dataset(make_rng(19), n=2)
        block = np.zeros((2, 4, 6))
        block[0, 1, :3] = 1e308  # finite values whose sum is inf
        assert np.array_equal(_rows(ds, [0, 1], features=block).features, block)


# The dimension each file label scores, labels in file order (mask bits 0, 1, 2):
# q_v visual quality, q_a authenticity, q_c consistency.
_TASK_OF_LABEL = {"q_v": "quality", "q_a": "authenticity", "q_c": "consistency"}


class TestLabelColumns:
    """Each file label has one mask bit and one CSV column, and lands in its task's column of the block.

    A manifest's label column of that name lands there too.
    """

    @pytest.mark.parametrize("bit, name", enumerate(_TASK_OF_LABEL))
    def test_label_lands_in_its_task_column(self, tmp_path, bit, name):
        column = dataio.TASKS.index(_TASK_OF_LABEL[name])
        labels = np.full((2, 3), np.nan)
        labels[:, column] = (0.5, 0.75)
        ds = _rows(_dataset(make_rng(40), n=2), [0, 1], labels=labels)
        binary, text = tmp_path / "d.amff", tmp_path / "d.csv"
        write_feature_records(ds, binary)
        write_feature_records_csv(ds, text)

        blob = binary.read_bytes()
        pos = 20  # past the file header, at the first record's id length
        for width in (2, 2, 4):  # id, generator_id, prompt
            pos += width + int.from_bytes(blob[pos : pos + width], "little")
        assert blob[pos] == 1 << bit
        assert struct.unpack_from("<f", blob, pos + 1) == (0.5,)

        with open(text, newline="", encoding="utf-8") as fh:
            header, first, _ = csv.reader(fh)
        cells = dict(zip(header, first))
        assert {n: cells[n] for n in _TASK_OF_LABEL} == {n: "0.5" if n == name else "" for n in _TASK_OF_LABEL}

        for back in (read_feature_records(binary), read_feature_records_csv(text)):
            assert np.array_equal(back.labels, labels, equal_nan=True)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"id,generator,prompt,image,{name}\na,g,p,a.ppm,0.5\nb,g,p,b.ppm,0.75\n")
        _, back = dataio.read_manifest(manifest)
        assert np.array_equal(back, labels, equal_nan=True)


class TestCsvCells:
    def _write(self, path, ds, edit):
        write_feature_records_csv(ds, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = edit(lines[2])
        path.write_text("".join(lines), encoding="utf-8")

    def test_explicit_nan_label_is_an_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        ds = _dataset(make_rng(20), n=3)
        self._write(path, ds, lambda line: line.replace(f",{float(ds.labels[1, 1])!r},", ",nan,", 1))
        with pytest.raises(DataError, match="record 1: label q_v is non-finite"):
            read_feature_records_csv(path)

    def test_oversized_cell_is_a_format_error(self, tmp_path):
        path = tmp_path / "long.csv"
        self._write(path, _dataset(make_rng(21), n=3), lambda line: line.replace(
            "a prompt, with commas 1", "x" * 200_000, 1))
        with pytest.raises(FormatError, match="malformed CSV"):
            read_feature_records_csv(path)


# ---------------------------------------------------------------------------
# Codec fuzzing.
# ---------------------------------------------------------------------------

_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 5))
    return Dataset(
        ids=draw(st.lists(_TEXT, min_size=n, max_size=n, unique=True)),
        generators=draw(st.lists(_TEXT, min_size=n, max_size=n)),
        prompts=draw(st.lists(_TEXT, min_size=n, max_size=n)),
        features=draw(arrays(np.float64, (n, 4, dim), elements=_F32)),
        labels=draw(arrays(np.float64, (n, 3), elements=st.just(np.nan) | _F32)),
    )


_FUZZ_SET = _dataset(make_rng(22), n=3, dim=2)


def _fuzz_bytes(tmp_path_factory, write):
    path = tmp_path_factory.getbasetemp() / "seed.records"
    write(_FUZZ_SET, path)
    return path.read_bytes()


def _read_or_amff_error(tmp_path_factory, read, data: bytes) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzz.records"
    path.write_bytes(data)
    try:
        read(path)
    except AmffError:
        pass


_CODECS = pytest.mark.parametrize(
    "write, read",
    [(write_feature_records, read_feature_records), (write_feature_records_csv, read_feature_records_csv)],
    ids=["binary", "csv"],
)


class TestCodecFuzz:
    """Round trips are exact; whatever a file holds, reading it succeeds or raises an AmffError."""

    @_CODECS
    @settings(max_examples=150, deadline=None)
    @given(ds=_datasets())
    def test_round_trip(self, tmp_path_factory, write, read, ds):
        path = tmp_path_factory.getbasetemp() / "round.records"
        write(ds, path)
        assert datasets_equal(read(path), ds)

    @_CODECS
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips(self, tmp_path_factory, write, read, data):
        blob = bytearray(_fuzz_bytes(tmp_path_factory, write))
        for pos, mask in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                                            min_size=1, max_size=4)):
            blob[pos] ^= mask
        _read_or_amff_error(tmp_path_factory, read, bytes(blob))

    @_CODECS
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncations(self, tmp_path_factory, write, read, data):
        blob = _fuzz_bytes(tmp_path_factory, write)
        _read_or_amff_error(tmp_path_factory, read, blob[: data.draw(st.integers(0, len(blob) - 1))])

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(0, 2**32 - 1), count=st.integers(0, 2**64 - 1))
    def test_binary_header_edits(self, tmp_path_factory, dim, count):
        blob = _fuzz_bytes(tmp_path_factory, write_feature_records)
        edited = blob[:8] + struct.pack("<IQ", dim, count) + blob[20:]
        _read_or_amff_error(tmp_path_factory, read_feature_records, edited)

    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(0, 10))
    def test_csv_record_count_edits(self, tmp_path_factory, count):
        lines = _fuzz_bytes(tmp_path_factory, write_feature_records_csv).splitlines(keepends=True)
        body = (lines[1:] * 4)[:count]  # fewer records, or repeated ones with duplicate ids
        _read_or_amff_error(tmp_path_factory, read_feature_records_csv, b"".join(lines[:1] + body))

    def test_oversized_count_header(self, tmp_path):
        path = tmp_path / "huge.amff"
        path.write_bytes(b"AMFF" + struct.pack("<IIQ", 1, 2**31, 2**40))
        with pytest.raises(FormatError, match="truncated"):
            read_feature_records(path)
