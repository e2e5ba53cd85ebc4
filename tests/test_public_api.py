"""The public API exports only what the simulator, the CLI or the benchmark runs.

A name in `ris_vlc.__all__` that nothing outside `__init__.py` uses is a copy
kept for tests, and a test of it can pass while the simulator is wrong.
"""

import ast
from pathlib import Path

import ris_vlc

ROOT = Path(__file__).resolve().parents[1]
# the paper's LC-receiver, MIMO intensity-constraint and physical-layer-security topics, and its
# capacity bound for non-overlapping beams, which acceptance criterion 5 holds the QR bound to
WITHOUT_A_CALLER = {"apply_lc_receiver_gain", "check_intensity_constraints", "parallel_capacity", "secrecy_rate"}


def _references(path: Path) -> set:
    """Imported names, names and attributes used, and string constants (perfbench pins spans by string)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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


def test_every_exported_name_is_used_outside_the_package_init():
    sources = [p for p in sorted((ROOT / "src" / "ris_vlc").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*map(_references, sources))
    unused = sorted(set(ris_vlc.__all__) - used - WITHOUT_A_CALLER)
    assert unused == []
    # the allow-list holds only exported names that still have no use
    assert WITHOUT_A_CALLER <= set(ris_vlc.__all__) and not WITHOUT_A_CALLER & used
