"""The seed-42 warm-up of every benchmark workload matches `reference.json`.

The benchmark refuses a run whose warm-up outputs drift from the recorded
values (relative 1e-9). Running the tiny warm-ups here makes such drift a
unit-suite failure instead of a failure found only at benchmark time. A
traced `mirror_opt` operation must also give finite layer metrics: they
divide by counts of traced calls, which a refactor can bring to zero. The
tests read `perfbench/` and change nothing there.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def worker():
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)  # puts src/ and perfbench/ on sys.path for its imports
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("name", ["blockage_mc", "mirror_opt", "fov_bulk", "access_alloc"])
def test_tiny_warm_up_matches_reference(worker, name):
    workload = worker.WORKLOADS[name](worker.SIZES["tiny"])
    workload.setup(worker.DEFAULT_SEED)
    run = worker.Run(workload)
    run.warm_up("tiny")
    assert run.attempted == 1 and run.failed == 0, run.errors


def test_a_traced_mirror_opt_operation_gives_finite_layer_metrics(worker):
    workload = worker.WORKLOADS["mirror_opt"](worker.SIZES["tiny"])
    workload.setup(worker.DEFAULT_SEED)
    run = worker.Run(workload)
    with worker.Tracer() as tracer:
        record = run.op(workload.inputs(worker.DEFAULT_SEED, 0))
    assert record is not None and run.failed == 0, run.errors
    layers = workload.layer_metrics(tracer, [record])
    assert set(workload.layer_names) <= set(layers)
    assert all(math.isfinite(value) for value in layers.values()), layers
