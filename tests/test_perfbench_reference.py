"""The seed-42 warm-up of every benchmark workload matches `reference.json`.

The benchmark refuses a run whose warm-up outputs drift from the recorded
values (relative 1e-9). Running the tiny warm-ups here makes such drift a
unit-suite failure instead of a failure found only at benchmark time. The
test reads `perfbench/` and changes nothing there.
"""

import importlib.util
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
