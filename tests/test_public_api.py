"""The package defines and exports only what the simulator, the CLI or the benchmark runs.

A module-level function or class that nothing else in `src/` or `perfbench/` uses, or a name in
`ris_vlc.__all__` that nothing outside `__init__.py` uses, is a copy kept for tests, and a test of
it can pass while the simulator is wrong.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import ris_vlc

ROOT = Path(__file__).resolve().parents[1]
WITHOUT_A_CALLER = set()


def _references(tree: ast.AST) -> set:
    """Imported names, names and attributes used, and string constants (perfbench pins spans by string)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_all_is_sorted_unique_and_resolves():
    names = ris_vlc.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(ris_vlc, name), name


def _unused(paths, exported) -> set:
    """The names of `exported` that no top-level statement of `paths` uses, and the module-level
    functions and classes of `ris_vlc/*.py` that none uses but their own definition."""
    statements = [(path, node, _references(node))
                  for path in paths for node in ast.parse(path.read_text(), filename=str(path)).body]
    counts = Counter(name for _, _, refs in statements for name in refs)  # top-level statements using each name
    unused = {name for name in exported if not counts[name]}
    unused |= {node.name for path, node, refs in statements
               if path.parent.name == "ris_vlc" and isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and counts[node.name] == (node.name in refs)}
    return unused


def test_every_definition_and_export_is_used_outside_its_own_definition():
    paths = [p for p in sorted((ROOT / "src" / "ris_vlc").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    unused = _unused(paths, ris_vlc.__all__)
    assert sorted(unused - WITHOUT_A_CALLER) == []
    # the allow-list holds only names that still have no use
    assert WITHOUT_A_CALLER <= unused


@pytest.mark.parametrize("source, exported, dead", [
    ("def _walk(n):\n    return _walk(n - 1) if n else 0\n", ["run"], "_walk"),  # only its own body calls it
    ("class Spare:\n    pass\n", ["run"], "Spare"),
    ("", ["run", "ghost"], "ghost"),  # exported, but nothing outside the package init uses it
], ids=["self-recursive", "class", "export"])
def test_the_scan_finds_a_name_that_nothing_else_uses(tmp_path, source, exported, dead):
    package = tmp_path / "ris_vlc"
    package.mkdir()
    (package / "used.py").write_text("def run():\n    return 1\n")
    (package / "spare.py").write_text(source)
    (tmp_path / "caller.py").write_text("from ris_vlc.used import run\n\nrun()\n")
    assert _unused([package / "used.py", package / "spare.py", tmp_path / "caller.py"], exported) == {dead}
