import json
import struct

import pytest

from amff.dataio import synth_generate
from amff.tensor import make_rng
from amff.trainer import TrainConfig


@pytest.fixture
def tiny_dataset():
    """Small planted dataset for fast trainer/CLI tests."""
    return synth_generate(48, 16, 0.01, make_rng(5))


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


def split_checkpoint(data: bytes) -> tuple[bytes, dict, bytes]:
    """A checkpoint's magic and version, its JSON header and its tensor payload."""
    hlen = struct.unpack("<Q", data[8:16])[0]
    return data[:8], json.loads(data[16 : 16 + hlen]), data[16 + hlen :]


def join_checkpoint(prefix: bytes, header: dict, payload: bytes) -> bytes:
    """Inverse of ``split_checkpoint``, with the header length recomputed."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return prefix + struct.pack("<Q", len(blob)) + blob + payload
