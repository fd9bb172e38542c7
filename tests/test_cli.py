import argparse
import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from amff import cli
from amff.errors import AmffError
from amff.dataio import read_feature_records, write_feature_records
from amff.encoder import Image, write_image
from amff.tensor import make_rng
from conftest import join_checkpoint, split_checkpoint, write_feature_records_csv


DATA = Path(__file__).parent / "data"


def _run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def data_file(tmp_path, tiny_dataset):
    path = tmp_path / "data.amff"
    write_feature_records(tiny_dataset, path)
    return path


def _fast_train_flags():
    return ["--epochs", "3", "--patience", "5", "--batch-size", "16"]


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.amff", tmp_path / "b.amff"
        assert _run(["synth", "--out", a, "--n", 16, "--dim", 8, "--noise", 0.1, "--seed", 3]) == 0
        assert _run(["synth", "--out", b, "--n", 16, "--dim", 8, "--noise", 0.1, "--seed", 3]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_loads(self, tmp_path):
        out = tmp_path / "d.amff"
        assert _run(["synth", "--out", out, "--n", 12, "--dim", 8, "--seed", 1]) == 0
        ds = read_feature_records(out)
        assert len(ds) == 12 and ds.dim == 8

    def test_invalid_sizes_exit_nonzero(self, tmp_path, capsys):
        rc = _run(["synth", "--out", tmp_path / "x.amff", "--n", 2, "--dim", 8])
        assert rc == 1
        assert "ERROR E_DATA" in capsys.readouterr().err


def _golden_extract(root: Path) -> list:
    """Seeded small PGM/PPM images (8- and 16-bit) and a manifest under ``root``: the golden's extract command."""
    rng = make_rng(17)
    manifest = ["id,generator,prompt,image,q_v,q_a,q_c"]
    for i, (h, w, c, maxval) in enumerate([(33, 47, 3, 255), (40, 40, 1, 255), (101, 37, 3, 255),
                                            (48, 52, 1, 65535), (64, 64, 3, 255)]):
        name = f"img{i}.{'ppm' if c == 3 else 'pgm'}"
        write_image(root / name, Image(rng.uniform(0, 1, size=(h, w, c))), maxval=maxval)
        manifest.append(f"s{i},gen{i % 2},prompt number {i},{name},{1 + i},{'' if i % 2 else 2.5},{0.5 * i}")
    (root / "manifest.csv").write_text("\n".join(manifest) + "\n")
    return ["extract", "--images", root, "--manifest", root / "manifest.csv", "--out", root / "features.amff",
            "--dim", 64]


class TestExtract:
    def test_records_equal_the_golden_bytes(self, tmp_path):
        # The golden was written by the whole-image encoder that the band-wise one replaced.
        assert _run(_golden_extract(tmp_path)) == 0
        assert (tmp_path / "features.amff").read_bytes() == (DATA / "extract_parent.amff").read_bytes()

    def test_images_to_features(self, tmp_path):
        rng = make_rng(0)
        img_dir = tmp_path / "imgs"
        img_dir.mkdir()
        rows = []
        for i in range(4):
            name = f"img{i}.ppm"
            write_image(img_dir / name, Image(rng.uniform(0, 1, size=(36, 36, 3))))
            rows.append(
                {"id": f"s{i}", "generator": "g", "prompt": f"scene number {i}",
                 "image": name, "q_v": str(1.0 + i), "q_a": "", "q_c": str(0.1 * i)}
            )
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "features.amff"
        assert _run(["extract", "--images", img_dir, "--manifest", manifest, "--out", out, "--dim", 16]) == 0
        ds = read_feature_records(out)
        assert len(ds) == 4 and ds.dim == 16
        _, q_v, q_a = ds.labels[1]
        assert q_v == 2.0 and np.isnan(q_a)
        for vector in ds.features[1]:  # f_text, f_05, f_10, f_15
            assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-5)

    def test_bad_label_stops_before_any_image_is_encoded(self, tmp_path, capsys, tiny_dataset, monkeypatch):
        from amff import encoder

        reads = []
        read_image = encoder.read_image
        monkeypatch.setattr(encoder, "read_image", lambda path: reads.append(path) or read_image(path))
        command = _manifest(b"a,g,p,x.ppm,1\nb,g,p,x.ppm,2\nc,g,p,x.ppm,nan\n")(tmp_path, tiny_dataset)
        assert _run(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_DATA: ") and err.count("\n") == 1 and "label q_v" in err, err
        assert reads == []

    @pytest.mark.parametrize(
        "body",
        [b"a,g,p,x.ppm,1\nb,g,p,x.ppm,2\na,g,p,x.ppm,3\n", b"a,g,p,x.ppm,1\nb,g,p,x.ppm,2\nc,g,,x.ppm,3\n"],
        ids=["repeated_id", "empty_prompt"],
    )
    def test_bad_row_stops_before_any_image_is_read(self, tmp_path, capsys, tiny_dataset, monkeypatch, body):
        from amff import encoder

        reads = []
        read_image = encoder.read_image
        monkeypatch.setattr(encoder, "read_image", lambda path: reads.append(path) or read_image(path))
        assert _run(_manifest(body)(tmp_path, tiny_dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_DATA: manifest row 3: ") and err.count("\n") == 1, err
        assert reads == []

    @pytest.mark.parametrize(
        "write, code",
        [
            (lambda path: path.write_bytes(b"P5\n4 "), "E_FORMAT"),
            # The 0.5x scale of a 20x20 image is 10x10, smaller than the encoder's grid.
            (lambda path: write_image(path, Image(np.full((20, 20, 1), 0.5))), "E_DATA"),
        ],
        ids=["truncated_header", "smaller_than_grid"],
    )
    def test_image_error_names_the_image_once(self, tmp_path, capsys, write, code):
        write(tmp_path / "a.pgm")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,generator,prompt,image\na,g,p,a.pgm\n")
        assert _run(["extract", "--images", tmp_path, "--manifest", manifest, "--out", tmp_path / "f.amff"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1, err
        assert err.count(str(tmp_path / "a.pgm")) == 1, err


def _long_csv_cell(tmp_path, dataset):
    path = tmp_path / "long.csv"
    write_feature_records_csv(dataset, path)
    text = path.read_text(encoding="utf-8").replace(dataset.prompts[0], "x" * 200_000, 1)
    path.write_text(text, encoding="utf-8")
    return ["train", "--data", path, "--out", tmp_path / "run"]


def _oversized_header(tmp_path, dataset):
    path = tmp_path / "huge.amff"
    path.write_bytes(b"AMFF" + struct.pack("<IIQ", 1, 2**31, 2**40))
    return ["predict", "--data", path, "--ckpt", DATA / "parent_v1.ckpt", "--out", tmp_path / "p.jsonl"]


def _manifest(body: bytes):
    def command(tmp_path, dataset):
        write_image(tmp_path / "x.ppm", Image(np.full((40, 40, 3), 0.5)))  # every scale covers the grid
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"id,generator,prompt,image,q_v\n" + body)
        return ["extract", "--images", tmp_path, "--manifest", manifest, "--out", tmp_path / "f.amff"]

    return command


def _args(*argv):
    """A command whose "{data}" is the dataset written to a file and "{out}" an output directory."""
    def command(tmp_path, dataset):
        write_feature_records(dataset, tmp_path / "d.amff")
        return [a.format(data=tmp_path / "d.amff", out=tmp_path / "out") for a in argv]

    return command


def _with_tensors(ckpt: Path, values: dict) -> bytes:
    """The checkpoint ``ckpt`` with every element of each tensor named in ``values`` set to its value."""
    prefix, header, payload = split_checkpoint(ckpt.read_bytes())
    payload, pos = bytearray(payload), 0
    for spec in header["tensors"]:
        size = math.prod(spec["shape"])
        if spec["name"] in values:
            payload[pos : pos + 8 * size] = struct.pack(f"<{size}d", *[values[spec["name"]]] * size)
        pos += 8 * size
    return join_checkpoint(prefix, header, bytes(payload))


def _predict_overflowing_checkpoint(tmp_path, dataset):
    """predict with quality-head weights whose scores overflow float64."""
    ckpt = tmp_path / "big.ckpt"
    ckpt.write_bytes(_with_tensors(DATA / "parent_v1.ckpt", {"best.head_v.w2": 1e308, "best.head_v.b1": 1e308}))
    return ["predict", "--data", DATA / "parent_v1.amff", "--ckpt", ckpt, "--out", tmp_path / "p.jsonl"]


def _defective_records(edit):
    """predict on ``dataset`` written to "{tmp}/bad.amff" by ``edit(dataset, path)``."""
    def command(tmp_path, dataset):
        edit(dataset, tmp_path / "bad.amff")
        return ["predict", "--data", tmp_path / "bad.amff", "--ckpt", DATA / "parent_v1.ckpt",
                "--out", tmp_path / "p.jsonl"]

    return command


def _truncated_records(dataset, path):
    write_feature_records(dataset, path)
    path.write_bytes(path.read_bytes()[:-10])


def _poisoned_records(dataset, path):
    # The writer refuses NaN, so a finite sentinel's f32 bytes are swapped for NaN's.
    dataset.features[7, 3, 5] = 1234.5
    write_feature_records(dataset, path)
    data = path.read_bytes()
    sentinel = struct.pack("<f", 1234.5)
    assert data.count(sentinel) == 1
    path.write_bytes(data.replace(sentinel, struct.pack("<f", math.nan)))


def _long_csv_row(dataset, path):
    write_feature_records_csv(dataset, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2].rstrip("\r\n") + ",0\r\n"
    path.write_text("".join(lines), encoding="utf-8")


def _extract_dim(dim: str):
    def command(tmp_path, dataset):
        return [*_manifest(b"a,g,p,x.ppm,1\n")(tmp_path, dataset), "--dim", dim]

    return command


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, code, named",
        [
            (_long_csv_cell, "E_FORMAT", "malformed CSV"),
            (_oversized_header, "E_FORMAT", "truncated file"),
            (_manifest(b"a,g,\xff\xfe prompt,x.ppm,1\n"), "E_FORMAT", "not UTF-8"),
            (_manifest(b"a,g,p\n"), "E_FORMAT", "manifest row 1"),
            (_manifest(b"a,g,p,x.ppm,nan\n"), "E_DATA", "label q_v"),
            (_manifest(b"x,g,p,x.ppm,1\nx,g,p,x.ppm,2\n"), "E_DATA", "manifest row 2: id 'x'"),
            (_manifest(b"x,g,p,x.ppm,1\nx,g,p,missing.ppm,2\n"), "E_DATA", "manifest row 2: id 'x'"),
            (_manifest(b"a,g,p,x.ppm,1\nb,g,,x.ppm,2\n"), "E_DATA", "manifest row 2: empty prompt"),
            (_args("train", "--data", "{data}", "--out", "{out}", "--seed", "-1"), "E_CONFIG", "seed"),
            (_args("gradcheck", "--seed", "-1"), "E_CONFIG", "seed"),
            (_args("synth", "--out", "{out}/s.amff", "--seed", "-2"), "E_CONFIG", "seed"),
            (_args("trials", "--data", "{data}", "--out", "{out}", "--trials", "2", "--seed", "-1"), "E_CONFIG", "seed"),
            (_extract_dim("-4"), "E_CONFIG", "dim"),
            (_extract_dim("0"), "E_CONFIG", "dim"),
            *[(_args("train", "--data", "{data}", "--out", "{out}", flag, value), "E_CONFIG", name)
              for flag, name in (("--lr", "lr"), ("--weight-decay", "weight_decay")) for value in ("nan", "inf")],
            *[(_args("synth", "--out", "{out}/s.amff", "--noise", value), "E_DATA", "noise_sigma")
              for value in ("nan", "inf")],
            *[(_args("trials", "--data", "{data}", "--out", "{out}", "--trials", value), "E_CONFIG", "--trials")
              for value in ("0", "-2")],
            # 1.46 PiB of features: numpy refuses the request without allocating it.
            (_args("synth", "--out", "{out}/s.amff", "--n", "100000000000", "--dim", "512"), "E_DATA",
             "100000000000 samples of dim 512 need a 1638400000000000-byte feature block"),
            # Overflow that numpy would warn of before the one error line.
            (_args("synth", "--out", "{out}/s.amff", "--n", "4", "--dim", "8", "--noise", "1e39"), "E_DATA",
             "noise_sigma 1e+39 puts features beyond the f32 range"),
            (_args("train", "--data", "{data}", "--out", "{out}", "--epochs", "2", "--lr", "1e30"), "E_NUMERIC",
             "non-finite loss"),
            (_predict_overflowing_checkpoint, "E_NUMERIC", "row 'synth-000000': non-finite quality score"),
            # A feature-record file's errors name it once, whichever reader found them.
            (_defective_records(_truncated_records), "E_FORMAT", "{tmp}/bad.amff: truncated file in record 47"),
            (_defective_records(_poisoned_records), "E_FORMAT", "{tmp}/bad.amff: record 7: non-finite values in f_15"),
            (_defective_records(_long_csv_row), "E_FORMAT", "{tmp}/bad.amff: record 1: expected 70 cells, got 71"),
        ],
        ids=["long_csv_cell", "oversized_header", "non_utf8_manifest", "short_manifest_row", "nan_manifest_label",
             "repeated_manifest_id", "repeated_manifest_id_missing_image", "empty_manifest_prompt",
             "train_negative_seed", "gradcheck_negative_seed", "synth_negative_seed", "trials_negative_seed",
             "extract_negative_dim", "extract_zero_dim", "nan_lr", "inf_lr", "nan_weight_decay",
             "inf_weight_decay", "nan_noise", "inf_noise", "zero_trials", "negative_trials",
             "synth_impossible_size", "synth_f32_overflow", "train_overflow", "predict_overflow",
             "truncated_records", "poisoned_records", "long_csv_row"],
    )
    def test_one_error_line(self, tmp_path, capsys, tiny_dataset, command, code, named):
        assert _run(command(tmp_path, tiny_dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1, err
        assert named.format(tmp=tmp_path) in err and err.count(str(tmp_path)) <= 1, err

    def test_eval_correlates_scores_near_the_float_limit(self, tmp_path, capsys):
        # Quality scores of about 1e300: the logistic fit falls back to the identity, and
        # the PLCC of the raw scores is the one scipy computes from the scatter file.
        ckpt = tmp_path / "big.ckpt"
        ckpt.write_bytes(_with_tensors(DATA / "parent_v1.ckpt", {"best.head_v.w2": 1e300, "best.head_v.b2": 1e300}))
        argv = ["eval", "--data", DATA / "parent_v1.amff", "--ckpt", ckpt, "--out", tmp_path / "e", "--split", "all"]
        assert _run(argv) == 0
        assert capsys.readouterr().err == ""
        rows = {row["task"]: row for row in map(json.loads, (tmp_path / "e/reports/eval.jsonl").read_text().splitlines())}
        _, gts, mapped = np.loadtxt(tmp_path / "e/scatter/quality.txt").T
        assert abs(mapped).max() > 1e299
        assert abs(rows["quality"]["plcc"] - scipy.stats.pearsonr(mapped, gts).statistic) <= 1e-9


class TestErrorCodes:
    def test_missing_checkpoint_is_an_io_error(self, tmp_path, capsys, data_file):
        out = tmp_path / "preds.jsonl"
        assert _run(["predict", "--data", data_file, "--ckpt", tmp_path / "absent.ckpt", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_IO: ") and err.count("\n") == 1 and "absent.ckpt" in err, err
        assert not out.exists()

    def test_bare_package_error_is_internal(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise AmffError("no subclass")

        monkeypatch.setattr(cli, "_cmd_synth", fail)
        assert _run(["synth", "--out", tmp_path / "a.amff"]) == 1
        assert capsys.readouterr().err == "ERROR E_INTERNAL: no subclass\n"


# Every subcommand's flags: option string -> (default, required, type, choices).
_RUN_FLAGS = {
    "--data": (None, True, None, None), "--out": (None, True, None, None), "--seed": (0, False, int, None),
    "--split": ("random:0.8", False, None, None), "--batch-size": (32, False, int, None),
    "--epochs": (120, False, int, None), "--lr": (5e-4, False, float, None), "--lr-drop-epoch": (80, False, int, None),
    "--patience": (20, False, int, None), "--weight-decay": (1e-2, False, float, None),
}
_VARIANT_FLAGS = {
    "--similarity": ("cosine", False, None, ("cosine", "euclidean", "manhattan")),
    "--no-msi": (False, False, None, None), "--no-aff": (False, False, None, None),
}
_SURFACE = {
    "synth": {"--out": (None, True, None, None), "--n": (512, False, int, None), "--dim": (64, False, int, None),
              "--noise": (0.01, False, float, None), "--seed": (0, False, int, None)},
    "extract": {"--images": (None, True, None, None), "--manifest": (None, True, None, None),
                "--out": (None, True, None, None), "--dim": (64, False, int, None)},
    "train": {**_RUN_FLAGS, **_VARIANT_FLAGS},
    "eval": {"--data": (None, True, None, None), "--ckpt": (None, True, None, None), "--out": (None, True, None, None),
             "--seed": (0, False, int, None), "--split": ("random:0.8", False, None, None)},
    "trials": {**_RUN_FLAGS, **_VARIANT_FLAGS, "--trials": (1, False, int, None)},
    "predict": {"--data": (None, True, None, None), "--ckpt": (None, True, None, None),
                "--out": (None, True, None, None)},
    "ablate": _RUN_FLAGS,
    "gradcheck": {"--seed": (0, False, int, None), "--out": (None, False, None, None)},
}


def test_cli_surface_is_unchanged():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: {", ".join(a.option_strings): (a.default, a.required, a.type, a.choices)
               for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        for name, sub in commands.choices.items()
    }
    assert got == _SURFACE


class _RecordingNamespace(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# A minimal run of each subcommand on tiny inputs.
_MINIMAL_RUNS = {
    "synth": _args("synth", "--out", "{out}/s.amff", "--n", "16", "--dim", "8"),
    "extract": _extract_dim("8"),
    "train": _args("train", "--data", "{data}", "--out", "{out}", "--epochs", "1"),
    "eval": _args("eval", "--data", str(DATA / "parent_v1.amff"), "--ckpt", str(DATA / "parent_v1.ckpt"),
                  "--out", "{out}", "--split", "all"),
    "trials": _args("trials", "--data", "{data}", "--out", "{out}", "--epochs", "1"),
    "predict": _args("predict", "--data", str(DATA / "parent_v1.amff"), "--ckpt", str(DATA / "parent_v1.ckpt"),
                     "--out", "{out}/p.jsonl"),
    "ablate": _args("ablate", "--data", "{data}", "--out", "{out}", "--epochs", "1"),
    "gradcheck": _args("gradcheck"),
}


@pytest.mark.parametrize("command", _SURFACE)
def test_every_parsed_flag_is_read(tmp_path, tiny_dataset, command):
    # A flag that a command parses and never reads is accepted and silently ignored.
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    argv = [str(a) for a in _MINIMAL_RUNS[command](tmp_path, tiny_dataset)]
    args = _RecordingNamespace(**vars(parser.parse_args(argv)))
    assert args.func(args) == 0
    dests = {a.dest for a in commands.choices[command]._actions if not isinstance(a, argparse._HelpAction)}
    assert sorted(dests - object.__getattribute__(args, "_reads")) == []


class TestHeapTrim:
    def test_every_command_trims_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_malloc_trim", calls.append)
        assert _run(["synth", "--out", tmp_path / "a.amff", "--n", 8, "--dim", 8, "--seed", 1]) == 0
        assert _run(["predict", "--data", tmp_path / "absent.amff", "--ckpt", tmp_path / "absent.ckpt",
                     "--out", tmp_path / "p.jsonl"]) == 1
        assert calls == [0, 0]


class TestTrainEval:
    def test_pipeline_outputs(self, tmp_path, data_file):
        out = tmp_path / "run"
        assert _run(["train", "--data", data_file, "--out", out, "--seed", 1,
                     "--split", "random:0.8", *_fast_train_flags()]) == 0
        ckpt = out / "checkpoints" / "model.ckpt"
        assert ckpt.exists()
        assert (out / "reports" / "train_report.json").exists()
        assert _run(["eval", "--data", data_file, "--ckpt", ckpt, "--out", out,
                     "--seed", 1, "--split", "random:0.8"]) == 0
        lines = (out / "reports" / "eval.jsonl").read_text().strip().splitlines()
        tasks = {json.loads(l)["task"] for l in lines}
        assert tasks == {"consistency", "quality", "authenticity"}
        for task in tasks:
            assert (out / "scatter" / f"{task}.txt").exists()

    def test_csv_data_file_accepted(self, tmp_path, tiny_dataset):
        csv_path = tmp_path / "data.csv"
        write_feature_records_csv(tiny_dataset, csv_path)
        out = tmp_path / "run_csv"
        assert _run(["train", "--data", csv_path, "--out", out, "--seed", 1,
                     *_fast_train_flags()]) == 0
        assert (out / "checkpoints" / "model.ckpt").exists()

    def test_eval_dim_mismatch_exits_nonzero(self, tmp_path, data_file, capsys):
        out = tmp_path / "run"
        assert _run(["train", "--data", data_file, "--out", out, "--seed", 1,
                     *_fast_train_flags()]) == 0
        other = tmp_path / "other.amff"
        assert _run(["synth", "--out", other, "--n", 16, "--dim", 8, "--seed", 2]) == 0
        rc = _run(["eval", "--data", other, "--ckpt", out / "checkpoints" / "model.ckpt",
                   "--out", tmp_path / "run2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ERROR E_SHAPE" in err and "dimension mismatch" in err

    def test_trials_protocol(self, tmp_path, data_file):
        out = tmp_path / "trials"
        assert _run(["trials", "--data", data_file, "--out", out, "--seed", 0,
                     "--trials", 2, "--split", "random:0.8", *_fast_train_flags()]) == 0
        trial_lines = (out / "reports" / "trials.jsonl").read_text().strip().splitlines()
        seeds = {json.loads(l)["seed"] for l in trial_lines}
        assert seeds == {0, 1}
        assert (out / "reports" / "eval.jsonl").exists()
        assert [p.name for p in out.iterdir()] == ["reports"]

    @pytest.mark.parametrize(
        "extra", [["--ckpt", "m.ckpt", "--trials", "2"], []], ids=["trials_flag", "without_ckpt"]
    )
    def test_eval_only_scores_a_checkpoint(self, tmp_path, data_file, extra):
        with pytest.raises(SystemExit) as exc:
            _run(["eval", "--data", data_file, "--out", tmp_path / "x", *extra])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_bad_split_flag(self, tmp_path, data_file, capsys):
        rc = _run(["train", "--data", data_file, "--out", tmp_path / "r", "--split", "bogus"])
        assert rc == 1
        assert "ERROR E_CONFIG" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "trials", "ablate"])
    def test_split_checked_before_data_is_read(self, tmp_path, capsys, command):
        ckpt = ["--ckpt", tmp_path / "absent.ckpt"] if command == "eval" else []
        assert _run([command, "--data", tmp_path / "absent.amff", *ckpt, "--out", tmp_path / "r",
                     "--split", "bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_CONFIG: ") and err.count("\n") == 1 and "'bogus'" in err, err

    @pytest.mark.parametrize("spec", ["random:1.5", "per-generator:0", "random:nan"])
    @pytest.mark.parametrize("command", ["train", "eval", "trials", "ablate"])
    def test_split_fraction_out_of_range_refused_before_data_is_read(self, tmp_path, capsys, command, spec):
        ckpt = ["--ckpt", tmp_path / "absent.ckpt"] if command == "eval" else []
        assert _run([command, "--data", tmp_path / "absent.amff", *ckpt, "--out", tmp_path / "r",
                     "--split", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_CONFIG: ") and err.count("\n") == 1 and "(0, 1)" in err, err

    # parent_v1.amff holds 16 rows: the default split leaves 13 to train on, of
    # which val_fraction 0.1 holds out 1, and 3 to evaluate.
    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_validation_side_too_small(self, tmp_path, capsys, command):
        assert _run([command, "--data", DATA / "parent_v1.amff", "--out", tmp_path / "r", "--epochs", 1]) == 1
        assert capsys.readouterr().err == (
            "ERROR E_DATA: train: the validation side holds 1 row(s) at val_fraction 0.1; "
            "the validation SRCC needs at least 2\n"
        )

    def test_evaluated_side_too_small(self, tmp_path, capsys):
        argv = ["eval", "--data", DATA / "parent_v1.amff", "--ckpt", DATA / "parent_v1.ckpt", "--out", tmp_path / "r"]
        assert _run(argv) == 1
        assert capsys.readouterr().err == (
            "ERROR E_DATA: evaluate_model: consistency has 3 labelled row(s); the metrics need at least 5\n"
        )


class TestOutputTree:
    """Each command creates only the directories of the files it writes, and a failed one creates none."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--data", "{data}", "--ckpt", DATA / "parent_v1.ckpt", "--out", "{out}"],
            ["eval", "--data", "{data}", "--ckpt", "{out}.ckpt", "--out", "{out}"],
            ["train", "--data", "{data}", "--out", "{out}", "--split", "bogus"],
        ],
        ids=["eval_dim_mismatch", "eval_missing_checkpoint", "train_bad_split"],
    )
    def test_failed_command_creates_nothing(self, tmp_path, data_file, argv):
        out = tmp_path / "run"
        assert _run([str(a).format(data=data_file, out=out) for a in argv]) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, made",
        [
            (["eval", "--data", DATA / "parent_v1.amff", "--ckpt", DATA / "parent_v1.ckpt", "--split", "all"],
             ["reports", "scatter"]),
            (["ablate", "--data", "{data}", "--epochs", "1", "--patience", "1", "--batch-size", "16"], ["reports"]),
            (["gradcheck"], ["reports"]),
        ],
        ids=["eval_ckpt", "ablate", "gradcheck"],
    )
    def test_command_creates_only_what_it_writes(self, tmp_path, data_file, argv, made):
        out = tmp_path / "fresh"
        assert _run([str(a).format(data=data_file) for a in argv] + ["--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == made


class TestPredict:
    def test_emits_score_triples(self, tmp_path, data_file):
        out = tmp_path / "run"
        assert _run(["train", "--data", data_file, "--out", out, "--seed", 1,
                     *_fast_train_flags()]) == 0
        pred_file = tmp_path / "preds.jsonl"
        assert _run(["predict", "--data", data_file,
                     "--ckpt", out / "checkpoints" / "model.ckpt", "--out", pred_file]) == 0
        lines = pred_file.read_text().strip().splitlines()
        assert len(lines) == 48
        row = json.loads(lines[0])
        assert set(row) == {"id", "s_c", "s_v", "s_a"}
        assert -1.0 <= row["s_c"] <= 1.0

    def test_dim_mismatch_exits_nonzero(self, tmp_path, data_file, capsys):
        out = tmp_path / "preds.jsonl"
        rc = _run(["predict", "--data", data_file, "--ckpt", DATA / "parent_v1.ckpt", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "ERROR E_SHAPE: dimension mismatch: checkpoint dim 8 vs data dim 16\n", err
        assert not out.exists()

    def test_earlier_checkpoint_predicts_its_pinned_scores(self, tmp_path):
        # parent_v1.ckpt and parent_v1_preds.jsonl were written by the
        # per-sample implementation, whose checkpoint header also carried
        # an rng_state field that nothing read.
        out = tmp_path / "preds.jsonl"
        assert _run(["predict", "--data", DATA / "parent_v1.amff",
                     "--ckpt", DATA / "parent_v1.ckpt", "--out", out]) == 0
        got = [json.loads(l) for l in out.read_text().splitlines()]
        want = [json.loads(l) for l in (DATA / "parent_v1_preds.jsonl").read_text().splitlines()]
        assert [r["id"] for r in got] == [r["id"] for r in want]
        for g, w in zip(got, want):
            for key in ("s_c", "s_v", "s_a"):
                assert abs(g[key] - w[key]) <= 1e-12 * max(1.0, abs(w[key])), (g["id"], key)


def _flat_best_aff_w1(header, payload):
    header["tensors"][0]["shape"] = [math.prod(header["tensors"][0]["shape"])]
    return header, payload


def _one_number_label_range(header, payload):
    header["label_ranges"]["quality"] = [1]
    return header, payload


def _nan_in_best_head_v_b2(header, payload):
    pos = 0
    for spec in header["tensors"]:
        if spec["name"] == "best.head_v.b2":
            break
        pos += 8 * math.prod(spec["shape"])
    return header, payload[:pos] + struct.pack("<d", math.nan) + payload[pos + 8 :]


def _missing_last_moment(header, payload):
    assert header["tensors"].pop() == {"name": "opt_v.head_a.b2", "shape": [1]}
    return header, payload[:-8]


def _text_hidden_head(header, payload):
    header["config"]["hidden_head"] = "x"
    return header, payload


def _fidelity_label_quality(header, payload):
    header["config"]["fidelity_label"] = "quality"
    return header, payload


def _lr_after_drop_set(header, payload):
    header["config"]["lr_after_drop"] = 1e-5
    return header, payload


# The file says epoch 1 is best of 3 epochs; each edit below disagrees with its history.
def _best_epoch_three(header, payload):
    header["best_epoch"] = 3
    return header, payload


def _last_epoch_one(header, payload):
    header["last_epoch"] = 1
    return header, payload


def _best_metric_last_digit(header, payload):
    text = repr(header["best_metric"])
    header["best_metric"] = float(text[:-1] + str((int(text[-1]) + 1) % 10))
    return header, payload


def _best_epoch_float(header, payload):
    header["best_epoch"] = 1.0  # 1.0 == 1, but the file would re-save with 1
    return header, payload


def _history_epoch_repeated(header, payload):
    header["history"][2]["epoch"] = 2
    return header, payload


def _history_epochs_from_two(header, payload):
    for entry in header["history"]:
        entry["epoch"] += 1
    return header, payload


def _history_epoch_float(header, payload):
    header["history"][2]["epoch"] = 3.0
    return header, payload


def _unknown_top_level_key(header, payload):
    header["notes"] = "hello"
    return header, payload


def _no_val_fraction(header, payload):
    del header["config"]["val_fraction"]  # would load as the default 0.1, not the run's 0.25
    return header, payload


def _no_quality_range(header, payload):
    del header["label_ranges"]["quality"]  # would leave the quality head's scores normalized
    return header, payload


def _history_lr_text(header, payload):
    header["history"][1]["lr"] = "x"
    return header, payload


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "edit",
        [_flat_best_aff_w1, _one_number_label_range, _nan_in_best_head_v_b2,
         _missing_last_moment, _text_hidden_head, _fidelity_label_quality, _lr_after_drop_set,
         _best_epoch_three, _last_epoch_one, _best_metric_last_digit, _best_epoch_float,
         _history_epoch_repeated, _history_epochs_from_two, _history_epoch_float,
         _unknown_top_level_key, _no_val_fraction, _no_quality_range, _history_lr_text],
    )
    def test_predict_reports_one_format_error(self, tmp_path, capsys, edit):
        prefix, header, payload = split_checkpoint((DATA / "parent_v1.ckpt").read_bytes())
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_bytes(join_checkpoint(prefix, *edit(header, payload)))
        out = tmp_path / "preds.jsonl"
        assert _run(["predict", "--data", DATA / "parent_v1.amff", "--ckpt", ckpt, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR E_FORMAT: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_header_difference_names_the_innermost_key(self, tmp_path, capsys):
        prefix, header, payload = split_checkpoint((DATA / "parent_v1.ckpt").read_bytes())
        ckpt = tmp_path / "edited.ckpt"
        ckpt.write_bytes(join_checkpoint(prefix, *_no_val_fraction(header, payload)))
        assert _run(["predict", "--data", DATA / "parent_v1.amff", "--ckpt", ckpt, "--out", tmp_path / "p.jsonl"]) == 1
        assert capsys.readouterr().err == (
            f"ERROR E_FORMAT: {ckpt}: header config.val_fraction: the file has nothing, the loaded record saves 0.1\n"
        )


class TestGradcheckCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert _run(["gradcheck", "--seed", 0, "--out", tmp_path / "g"]) == 0
        report = (tmp_path / "g" / "reports" / "gradcheck.txt").read_text()
        assert "worst" in report
        assert "loss.fidelity" in capsys.readouterr().out


_PROTOCOL_FLAGS = ["--seed", 3, "--epochs", 4, "--patience", 4, "--batch-size", 16]
# name -> (argv, reports, whether q_c is blanked in the data, trainings run)
_PROTOCOL_RUNS = {
    "eval": (["trials", "--trials", 2, *_PROTOCOL_FLAGS], ["eval.jsonl", "eval.txt", "trials.jsonl"], False, 2),
    "ablate_random": (["ablate", "--split", "random:0.8", *_PROTOCOL_FLAGS], ["ablate.jsonl", "ablate.txt"], False, 5),
    "ablate_pergen": (["ablate", "--split", "per-generator:0.75", "--seed", 4, "--epochs", 3, "--patience", 3],
                      ["ablate.jsonl", "ablate.txt"], False, 5),
    # Without q_c the similarity kinds would train the cosine model again, so only the fusion variants train.
    "ablate_no_qc": (["ablate", "--split", "random:0.8", *_PROTOCOL_FLAGS], ["ablate.jsonl", "ablate.txt"], True, 3),
}


@pytest.mark.parametrize("name", _PROTOCOL_RUNS)
def test_protocol_reports_equal_the_golden_bytes(tmp_path, monkeypatch, name):
    # tests/data/protocol_parent holds the reports of these commands as written by
    # the code before eval --trials and ablate shared one trial loop (ablate_no_qc:
    # before ablate trained only the fusion variants on data without q_c); the
    # "eval" run is today's trials command.
    from amff import trainer

    data = tmp_path / "data.amff"
    assert _run(["synth", "--out", data, "--n", 96, "--dim", 16, "--seed", 5]) == 0
    argv, reports, blank_qc, trainings = _PROTOCOL_RUNS[name]
    if blank_qc:
        dataset = read_feature_records(data)
        dataset.labels[:, 0] = np.nan
        write_feature_records(dataset, data)
    configs = []
    train = trainer.train
    monkeypatch.setattr(trainer, "train", lambda dataset, cfg: configs.append(cfg) or train(dataset, cfg))
    assert _run([*argv, "--data", data, "--out", tmp_path / "run"]) == 0
    assert len(configs) == trainings
    golden = DATA / "protocol_parent" / name
    assert sorted(p.name for p in golden.iterdir()) == reports
    for report in reports:
        assert (tmp_path / "run" / "reports" / report).read_bytes() == (golden / report).read_bytes(), report


class TestAblate:
    def test_emits_both_tables(self, tmp_path, data_file):
        out = tmp_path / "ablate"
        assert _run(["ablate", "--data", data_file, "--out", out, "--seed", 0,
                     "--epochs", "2", "--patience", "5", "--batch-size", "16"]) == 0
        text = (out / "reports" / "ablate.txt").read_text()
        assert "# architecture ablations" in text
        assert "# similarity metrics" in text
        architecture, similarity = text.split("\n\n")
        # Each section: a title line, a header line, then one row per variant, labelled first.
        assert [line.split()[0] for line in architecture.splitlines()[2:]] == ["full", "no_msi", "no_aff"]
        assert [line.split()[0] for line in similarity.splitlines()[2:]] == ["cosine", "euclidean", "manhattan"]
        rows = [json.loads(l) for l in (out / "reports" / "ablate.jsonl").read_text().splitlines()]
        variants = [(r["section"], r["variant"]) for r in rows]
        assert list(dict.fromkeys(variants)) == [
            ("architecture", "full"), ("architecture", "no_msi"), ("architecture", "no_aff"),
            ("similarity", "cosine"), ("similarity", "euclidean"), ("similarity", "manhattan"),
        ]

    def test_paired_splits_identical(self, tmp_path, data_file):
        # rerunning ablate with the same seed reproduces identical bytes
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            assert _run(["ablate", "--data", data_file, "--out", out, "--seed", 3,
                         "--epochs", "2", "--patience", "5", "--batch-size", "16"]) == 0
        assert (out1 / "reports" / "ablate.jsonl").read_bytes() == (
            out2 / "reports" / "ablate.jsonl"
        ).read_bytes()
