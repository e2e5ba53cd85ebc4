"""Every span point of `perfbench/spans.py` names an attribute that exists.

The benchmark tracer wraps functions at the module where callers look them
up. A refactor that moves an import would otherwise surface only as an
`AttributeError` on a traced benchmark run; here it fails the unit suite.
"""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
