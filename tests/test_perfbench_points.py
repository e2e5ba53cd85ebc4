"""Every span point of `perfbench/spans.py` names an attribute that exists.

The benchmark tracer wraps functions at the module where callers look them
up. A refactor that moves an import would otherwise surface only as an
`AttributeError` on a traced benchmark run; here it fails the unit suite.
An import that its module does not use is kept only for such a point.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_and_method_point_resolves():
    spans = _spans_module()
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.FUNCTION_POINTS
               if not callable(getattr(module, attr, None))]
    missing += [f"{cls.__qualname__}.{attr}" for cls, attr, _ in spans.METHOD_POINTS
                if attr not in vars(cls)]
    assert missing == []


def test_tracer_installs_and_restores_every_point():
    spans = _spans_module()
    originals = [getattr(module, attr) for module, attr, _, _ in spans.FUNCTION_POINTS]
    methods = [vars(cls)[attr] for cls, attr, _ in spans.METHOD_POINTS]
    with spans.Tracer():
        assert all(getattr(module, attr) is not original for (module, attr, _, _), original
                   in zip(spans.FUNCTION_POINTS, originals))
    assert [getattr(module, attr) for module, attr, _, _ in spans.FUNCTION_POINTS] == originals
    assert [vars(cls)[attr] for cls, attr, _ in spans.METHOD_POINTS] == methods


def _unused_imports(path: Path) -> set:
    """Names that `path` imports and never reads; a name in a module-level `__all__` counts as read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {(alias.asname or alias.name).partition(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return imported - read


def test_an_import_its_module_does_not_use_is_one_the_tracer_pins_there():
    pinned = {(module.__name__.rpartition(".")[2], attr) for module, attr, _, _ in _spans_module().FUNCTION_POINTS}
    unused = {(path.stem, name) for path in (ROOT / "src" / "ris_vlc").glob("*.py") for name in _unused_imports(path)}
    assert sorted(unused - pinned) == []
    # the imports to delete once the spans are emitted from inside the package (ROADMAP item 3B)
    assert sorted(unused) == [("channel", "segments_blocked"), ("ris", "segments_blocked"), ("scenario", "link_rate")]


def test_the_import_scan_finds_an_unread_name(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                    "from math import pi, tau as turn\n__all__ = ['pi']\n\n\ndef f(x: sys.float_info):\n    return x\n")
    assert _unused_imports(path) == {"os", "turn"}
