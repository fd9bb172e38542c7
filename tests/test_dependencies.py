"""The package runs on the standard library and NumPy alone, as pyproject.toml declares."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "amff"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "amff"}


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in the module, function-level ones included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_amff(module):
    assert _imported_roots(module) - ALLOWED == set()


def test_the_check_sees_every_kind_of_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("import os.path\nfrom . import x\nfrom scipy.special import erfc\ndef f():\n    import pandas\n")
    assert _imported_roots(source) == {"os", "scipy", "pandas"}
