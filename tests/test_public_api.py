"""The package defines and exports only what the simulator, the CLI or the benchmark runs.

A module-level function or class, a method or property of one of its classes, or a field one of its
classes declares, that nothing else in `src/` or `perfbench/` uses, or a name in `ris_vlc.__all__`
that nothing outside `__init__.py` uses, is a copy kept for tests, and a test of it can pass while
the simulator is wrong.
"""

import ast
from pathlib import Path

import pytest

import ris_vlc

ROOT = Path(__file__).resolve().parents[1]
# definitions that nothing in the scanned files calls, each with the reason it stays
WITHOUT_A_CALLER = {
    "_Parser.error": "argparse's hook: ArgumentParser calls it on a command line it refuses",
    "TrialResult.serving_ap": "the AP each user's airtime is shared at: the rates depend on it, and the oracles "
                              "that compare trials check it, which no gain or rate column pins on its own",
}


def _references(tree: ast.AST, skip=()) -> set:
    """Imported names, names and attributes used, and string constants (perfbench pins spans by string),
    outside the subtrees in `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
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
    functions and classes of `ris_vlc/*.py`, the methods and properties of those classes and the
    fields they declare (as `Class.name`), that nothing uses but their own definition. Python itself
    calls the dunders; a field's declaration does not use it, the methods of its class do."""
    units, definitions = [], []  # (the definitions a unit lies in, its references); (qualified name, name, node)
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            ours = path.parent.name == "ris_vlc" and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            ours_class = ours and isinstance(node, ast.ClassDef)
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)] if ours_class else []
            fields = [f.target for f in node.body if isinstance(f, ast.AnnAssign)] if ours_class else []
            units.append(({node}, _references(node, skip=methods + fields)))
            units += [({node, m}, _references(m)) for m in methods]
            definitions += [(node.name, node.name, node)] if ours else []
            definitions += [(f"{node.name}.{m.name}", m.name, m) for m in methods if not m.name.startswith("__")]
            definitions += [(f"{node.name}.{f.id}", f.id, f) for f in fields]
    unused = {name for name in exported if not any(name in refs for _, refs in units)}
    unused |= {qualified for qualified, name, node in definitions
               if not any(name in refs for inside, refs in units if node not in inside)}
    return unused


def test_every_definition_and_export_is_used_outside_its_own_definition():
    paths = [p for p in sorted((ROOT / "src" / "ris_vlc").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    unused = _unused(paths, ris_vlc.__all__)
    assert sorted(unused - WITHOUT_A_CALLER.keys()) == []
    # the allow-list holds only names that still have no use
    assert WITHOUT_A_CALLER.keys() <= unused


@pytest.mark.parametrize("source, exported, dead", [
    ("def _walk(n):\n    return _walk(n - 1) if n else 0\n", ["run"], "_walk"),  # only its own body calls it
    ("class Spare:\n    pass\n", ["run"], "Spare"),
    ("", ["run", "ghost"], "ghost"),  # exported, but nothing outside the package init uses it
    ("class Kept:\n    def __init__(self):\n        self.value = self._idle\n\n    def _idle(self):\n"
     "        return self._idle()\n\n    def _spare(self):\n        return 0\n\n\nKept()\n",
     ["run"], "Kept._spare"),  # the class and its `_idle` are used, its `_spare` is not
    ("from dataclasses import dataclass\n\n\n@dataclass\nclass Record:\n    kept: int\n    spare: int = 0\n\n"
     "    def doubled(self):\n        return 2 * self.kept\n\n\nRecord(1).doubled()\n",
     ["run"], "Record.spare"),  # a field its methods read is used; one only its own class body names is not
], ids=["self-recursive", "class", "export", "method", "field"])
def test_the_scan_finds_a_name_that_nothing_else_uses(tmp_path, source, exported, dead):
    package = tmp_path / "ris_vlc"
    package.mkdir()
    (package / "used.py").write_text("def run():\n    return 1\n")
    (package / "spare.py").write_text(source)
    (tmp_path / "caller.py").write_text("from ris_vlc.used import run\n\nrun()\n")
    assert _unused([package / "used.py", package / "spare.py", tmp_path / "caller.py"], exported) == {dead}
