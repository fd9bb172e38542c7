"""Every top-level name and method in ``src/amff`` has a caller, so the library carries no test-only surface.

A module-level function, class or constant must be named somewhere in
``src/amff`` besides its own definition, in the README's library sketch,
or in ``bench/spans.py``'s ``TARGETS``, the names a traced benchmark run
wraps.  A method or property of a top-level class must be read there as
an attribute.  A helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

from conftest import readme_sketch

ROOT = Path(__file__).parents[1]

# Names defined ahead of their caller, each with the reason it may wait.
ALLOWED = {
    "encoder.write_image": "ROADMAP item 1a gives it a caller: `synth --images` writes planted images with it",
}


def _defined(tree: ast.Module):
    """The names a module's top-level statements define: functions, classes and assigned constants.

    Each ``def`` in a top-level class body is named ``Class.method``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (f"{node.name}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _named(tree: ast.AST) -> set[str]:
    """Every name a tree reads, as a variable, an attribute (as ``.name``) or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(f".{node.attr}")
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _span_targets() -> set[str]:
    """Each part of every attribute path in ``bench/spans.py``'s ``TARGETS``, as ``.name``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]
    ]
    return {f".{part}" for _, path, _ in ast.literal_eval(targets) for part in path.split(".")}


def _is_used(name: str, used: set[str]) -> bool:
    """Whether ``used``, as ``_named`` gives it, reads a top-level name at all or a ``Class.method`` as an attribute."""
    _, dot, bare = name.rpartition(".")
    return f".{bare}" in used or (not dot and bare in used)


def uncalled(package: Path, used_outside: set[str]) -> list[str]:
    """``module.name`` of each top-level name or method in ``package`` that neither it nor ``used_outside`` uses."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    used = used_outside.union(*map(_named, trees.values()))
    return [
        f"{module}.{name}" for module, tree in trees.items() for name in _defined(tree)
        if not _is_used(name, used) and not name.rpartition(".")[2].startswith("__")
    ]


def test_every_top_level_name_has_a_caller():
    found = set(uncalled(ROOT / "src" / "amff", _named(ast.parse(readme_sketch())) | _span_targets()))
    assert sorted(found - ALLOWED.keys()) == [], "no caller in src/amff: delete it, or move it to the tests"
    assert sorted(ALLOWED.keys() - found) == [], "called now: take it off ALLOWED"


def test_a_planted_dead_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text("from .b import used\nLIMIT = 3\n\n\ndef helper():\n    return used(LIMIT)\n")
    (tmp_path / "b.py").write_text("def used(x):\n    return x\n\n\nclass Dead:\n    pass\n")
    assert uncalled(tmp_path, set()) == ["a.helper", "b.Dead"]
    assert uncalled(tmp_path, {"helper"}) == ["b.Dead"]


def test_a_planted_dead_method_is_found(tmp_path):
    # ``grow`` is read as a variable but never as an attribute, so only the function counts as called.
    (tmp_path / "a.py").write_text(
        "class Box:\n    def __init__(self):\n        self.size = 1\n\n    @property\n    def area(self):\n"
        "        return self.size\n\n    def grow(self):\n        return grow\n\n\ndef grow():\n    return Box().area\n"
    )
    assert uncalled(tmp_path, set()) == ["a.Box.grow"]
    assert uncalled(tmp_path, {".grow"}) == []
