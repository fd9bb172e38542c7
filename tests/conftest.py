import csv
import json
import math
import os
import re
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from amff.dataio import Dataset, synth_generate
from amff.scoring import ModelParams
from amff.tensor import make_rng
from amff.trainer import TrainConfig


README = Path(__file__).parents[1] / "README.md"


def readme_sketch() -> str:
    """The source of the README's one Python block, the library sketch."""
    (sketch,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return sketch


@pytest.fixture
def tiny_dataset():
    """Small planted dataset for fast trainer/CLI tests."""
    return synth_generate(48, 16, 0.01, make_rng(5))


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Column-wise equality, exact on floats (used by round-trip tests)."""
    return (
        (a.ids, a.generators, a.prompts) == (b.ids, b.generators, b.prompts)
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels, equal_nan=True)
    )


def write_feature_records_csv(dataset: Dataset, path) -> None:
    """Write ``dataset`` in the CSV layout that ``read_feature_records_csv`` reads; the library writes only binary."""
    header = ["id", "generator", "prompt", "q_v", "q_a", "q_c"]
    header += [f"{prefix}_{i}" for prefix in ("ftext", "f05", "f10", "f15") for i in range(dataset.dim)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # labels from TASKS order (q_c, q_v, q_a) to file order (q_v, q_a, q_c)
        rows = zip(dataset.ids, dataset.generators, dataset.prompts, dataset.labels[:, [1, 2, 0]], dataset.features)
        for sid, gen, prompt, labels, features in rows:
            writer.writerow([
                sid, gen, prompt,
                *("" if math.isnan(v) else repr(v) for v in labels.tolist()),
                *map(repr, features.ravel().tolist()),
            ])


def fstat_says_longer(monkeypatch, path, extra: int) -> None:
    """Make ``os.fstat`` report ``extra`` more bytes than ``path`` holds, as if the file shrank after the call."""
    real, inode = os.fstat, Path(path).stat().st_ino

    def fstat(fd):
        st = real(fd)
        return SimpleNamespace(st_size=st.st_size + extra) if st.st_ino == inode else st

    monkeypatch.setattr(os, "fstat", fstat)


def fast_config(**overrides) -> TrainConfig:
    base = dict(
        batch_size=16,
        max_epochs=4,
        lr=5e-4,
        lr_drop_epoch=3,
        early_stop_patience=20,
        seed=0,
        val_fraction=0.2,
        hidden_aff=32,
        hidden_head=32,
    )
    base.update(overrides)
    return TrainConfig(**base)


def as_variant(params: ModelParams, **variant) -> ModelParams:
    """The weights of ``params`` as another model variant (``similarity``, ``use_msi``, ``use_aff``)."""
    kinds = {"similarity": params.similarity, "use_msi": params.use_msi, "use_aff": params.use_aff, **variant}
    out = ModelParams(params.dim, params.aff.hidden, params.head_v.hidden, **kinds)
    out.flat[:] = params.flat
    return out


def split_checkpoint(data: bytes) -> tuple[bytes, dict, bytes]:
    """A checkpoint's magic and version, its JSON header and its tensor payload."""
    hlen = struct.unpack("<Q", data[8:16])[0]
    return data[:8], json.loads(data[16 : 16 + hlen]), data[16 + hlen :]


def join_checkpoint(prefix: bytes, header: dict, payload: bytes) -> bytes:
    """Inverse of ``split_checkpoint``, with the header length recomputed."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return prefix + struct.pack("<Q", len(blob)) + blob + payload


def krcc_oracle(x, y):
    """Independent O(n^2) tau-b: explicit pair counting."""
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                tx += 1
            if dy == 0:
                ty += 1
            if dx != 0 and dy != 0:
                if dx * dy > 0:
                    conc += 1
                else:
                    disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))
