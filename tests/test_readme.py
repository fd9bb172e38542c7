"""The README's library sketch runs as written, on what the package exports,
and its checkpoint format names the header keys ``save_checkpoint`` writes."""

import ast
import re
import types

import amff
from amff.trainer import save_checkpoint, train
from conftest import README, fast_config, readme_sketch, split_checkpoint


def test_library_sketch_runs_verbatim(capsys):
    exec(compile(readme_sketch(), str(README), "exec"), {})
    srccs = ast.literal_eval(capsys.readouterr().out)
    assert set(srccs) == {"consistency", "quality", "authenticity"}
    assert all(0.5 < s <= 1.0 for s in srccs.values()), srccs


def test_package_exports_what_the_sketch_imports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(readme_sketch()))
        if isinstance(node, ast.ImportFrom) and node.module == "amff"
        for alias in node.names
    }
    exported = {
        name for name, value in vars(amff).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == imported
    assert amff.__version__


def test_checkpoint_format_lists_the_saved_header_keys(tmp_path, tiny_dataset):
    (block,) = re.findall(
        r"<!-- checkpoint-header-keys -->(.*?)<!-- /checkpoint-header-keys -->", README.read_text(encoding="utf-8"), re.S
    )
    save_checkpoint(tmp_path / "model.ckpt", train(tiny_dataset, fast_config(max_epochs=1)))
    _, header, _ = split_checkpoint((tmp_path / "model.ckpt").read_bytes())
    assert re.findall(r"`(\w+)`", block) == sorted(header)
