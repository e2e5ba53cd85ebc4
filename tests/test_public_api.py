"""The package defines and exports only what the simulator, the CLI or the benchmark runs.

A module-level function or class, a method or property of one of its classes, or a field one of its
classes declares, that nothing else in `src/` or `perfbench/` uses, or a name in `ris_vlc.__all__`
that nothing outside `__init__.py` uses, is a copy kept for tests, and a test of it can pass while
the simulator is wrong. So is a defaulted parameter of such a function or method that no call in
`src/` or `perfbench/` sets: the code behind any other value of it runs only in tests.
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

# defaulted parameters that no call in the scanned files sets, each with the reason it stays
DEFAULT_NEVER_SET = {
    "cli.main(argv)": "the console script calls main() on sys.argv; argv runs the same command line in-process",
    "noma.best_two_user_allocation(steps)": "the sweep's resolution is its contract, which the closed form that "
                                            "replaces the sweep (ROADMAP item 5) must keep",
    **{f"scenario.{view}": "the single-link gain views stay until the benchmark stops wrapping them (ROADMAP "
                           "item 13), and a view of one link takes its blockers and angles"
       for view in ("wall_first_reflection_gain(blockers)", "element_gains(blockers)", "element_gains(yaw)",
                    "element_gains(roll)")},
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


def _callee(node: ast.expr):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _defaults_never_set(paths) -> set:
    """`module.function(parameter)` for each defaulted parameter of a module-level function of `ris_vlc/*.py`,
    or of a method of one of its classes (`module.Class.method(parameter)`, `module.Class(parameter)` for
    `__init__`), that no call of that name in `paths` sets. A call sets a parameter by keyword, by position,
    or through `*` or `**` unpacking; `functools.partial(f, ...)` counts as a call of `f`."""
    defaults, calls = [], []  # (qualified name, called name, [(parameter, positional index or None)]); calls
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body if path.parent.name == "ris_vlc" else ():
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [(node.name if m.name == "__init__" else f"{node.name}.{m.name}",
                              node.name if m.name == "__init__" else m.name, m, 1)
                             for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                functions = []
            for qualified, called, function, bound in functions:
                args = function.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
                params += [(arg.arg, None) for arg, value in zip(args.kwonlyargs, args.kw_defaults)
                           if value is not None]
                defaults.append((f"{path.stem}.{qualified}", called, params))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name, args = _callee(node.func), node.args
                if name == "partial" and args:
                    name, args = _callee(args[0]), args[1:]
                unpacked = any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords)
                calls.append((name, len(args), {k.arg for k in node.keywords}, unpacked))
    return {f"{qualified}({param})" for qualified, called, params in defaults for param, index in params
            if not any(unpacked or param in keywords or (index is not None and count > index)
                       for name, count, keywords, unpacked in calls if name == called)}


def test_every_defaulted_parameter_is_set_by_some_call():
    paths = [p for p in sorted((ROOT / "src" / "ris_vlc").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    never_set = _defaults_never_set(paths)
    assert sorted(never_set - DEFAULT_NEVER_SET.keys()) == []
    # the allow-list holds only parameters that still have no setting call
    assert DEFAULT_NEVER_SET.keys() <= never_set


def test_the_default_scan_finds_a_parameter_that_no_call_sets(tmp_path):
    package = tmp_path / "ris_vlc"
    package.mkdir()
    (package / "spare.py").write_text(
        "from functools import partial\n\n\n"
        "def run(a, by_position=1, by_keyword=2, by_partial=3, *, spare=4, kw_set=5):\n    return a\n\n\n"
        "class Box:\n    def __init__(self, size=1, idle=0):\n        self.size = size\n\n"
        "    def grow(self, step=1, unpacked=2):\n        return self.size + step\n\n\n"
        "Box(2).grow(*[1, 2])\npartial(run, by_partial=0)\n")
    (tmp_path / "caller.py").write_text("from ris_vlc.spare import run\n\nrun(0, 1)\nrun(0, by_keyword=1, kw_set=0)\n")
    found = _defaults_never_set([package / "spare.py", tmp_path / "caller.py"])
    assert found == {"spare.run(spare)", "spare.Box(idle)"}


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
