"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 it launches SETUPS worker processes one after another, each
measuring S/SETUPS seconds, and prints every end-to-end metric named in
BENCHMARK.json. With --trace 1 it launches one traced worker and prints
every per-layer metric. The last stdout line is the JSON result; the line
before it lists the workload's own figures by name.

The client is a closed loop: one process, one operation at a time, the
study thread pool and BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
# every worker must have ended this long after start, well inside the
# 180 s a run may take
DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RIS_VLC_THREADS": "1",
}


def _worker(args, index: int, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--index", str(index),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--sizes", args.sizes,
    ]
    env = dict(os.environ, **PINNED_ENV)
    launched = time.monotonic()
    proc = subprocess.run(
        cmd + ["--launched", repr(launched)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--sizes", choices=("full", "tiny"), default="full",
                   help="per-operation sizes; tiny is for the self-test")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ris_vlc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/ris_vlc package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](SIZES[args.sizes])
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            results = [_worker(args, 0, args.seconds, deadline)]
        else:
            results = [_worker(args, i, args.seconds / SETUPS, deadline) for i in range(SETUPS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for res in results for r in res["records"]]
    if not records:
        print("error: no operation completed", file=sys.stderr)
        for message in (e for res in results for e in res["errors"]):
            print(f"check failed: {message}", file=sys.stderr)
        return 1
    quality, study_failures = workload.finish(records)
    # the run's study-level result counts as one more attempted operation
    attempted = sum(res["attempted"] for res in results) + 1
    failed = sum(res["failed"] for res in results) + bool(study_failures)
    for message in [e for res in results for e in res["errors"]] + study_failures:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        wanted = spec["per_layer"]
        values = results[0]["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(res["setup_s"] for res in results),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
            "work_per_s": sum(r["work"] for r in records) / sum(r["ref_dur"] for r in records),
            "op_s_p50": statistics.median(r["ref_dur"] for r in records),
            "quality_ratio": quality,
        }
        named = workload.named_metrics(records)
        named["setup_s"] = (statistics.median(res["setup_raw_s"] for res in results), "s")
        named["peak_rss_mb"] = (values["peak_rss_mb"], "MiB")
        named["error_rate"] = (failed / attempted, "ratio")
        print(" ".join(f"{k}={v:.6g}{unit and ' ' + unit}" for k, (v, unit) in named.items()))

    names = {m["name"] for m in wanted}
    if names != set(values):
        print(f"error: metrics missing {sorted(names - set(values))}, "
              f"unknown {sorted(set(values) - names)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
