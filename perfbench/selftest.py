"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json,
with its unit, in both modes; that a deliberately wrong program output is
counted as a failure; and that the benchmark refuses to run, without
printing a result, in a directory holding only BENCHMARK.json and
perfbench/. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_every_metric_emitted():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = _bench("--workload", workload, "--trace", str(trace), "--sizes", "tiny")
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            if trace == 0:
                for m in SPEC["end_to_end"]:
                    assert result["metrics"][m["name"]]["value"] > 0, (workload, m["name"])


def _measure_in_process(workload_name: str, seconds: float):
    from worker import Run
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[workload_name](SIZES["tiny"])
    workload.setup(7)
    run = Run(workload)
    run.warm_up("tiny")
    records = run.timed(7, seconds)
    return run, workload.finish(records)[1]


def test_wrong_output_counts_as_failure():
    from ris_vlc import noma, scenario

    def inflated_tdma(gains, total_power, noise_variance):
        return 10.0 * original_tdma(gains, total_power, noise_variance)

    def out_of_range_fraction(*args, **kwargs):
        return 0.95

    original_tdma = noma.tdma_equal_share_rates
    original_study = scenario.orientation_study
    noma.tdma_equal_share_rates = inflated_tdma
    scenario.orientation_study = out_of_range_fraction
    try:
        for name in ("access_alloc", "fov_bulk"):
            run, _ = _measure_in_process(name, 0.2)
            assert run.attempted >= 2 and run.failed == run.attempted, (name, run.errors)
    finally:
        noma.tdma_equal_share_rates = original_tdma
        scenario.orientation_study = original_study
    run, study_failures = _measure_in_process("access_alloc", 0.2)
    assert run.failed == 0 and not study_failures, run.errors


def test_refuses_without_program():
    scratch = HERE / "out" / "bare-checkout"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        start = time.monotonic()
        proc = _bench("--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=scratch)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc
        assert time.monotonic() - start < 180
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    tests = [value for name, value in globals().items() if name.startswith("test_")]
    for test in tests:
        start = time.monotonic()
        test()
        print(f"{test.__name__}: ok ({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
