"""One benchmark process: set up a workload, warm it up, and measure it.

Started by run.py, which passes the monotonic time at which it launched
this interpreter, so `setup_s` covers interpreter start, imports, scenario
construction, input generation and the warm-up operation. Prints one JSON
object on its last stdout line.

With --trace 1 it instead runs each operation twice, untraced and then
under the span tracer, and reports per-layer metrics plus the ratio of the
two times; the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ris_vlc  # noqa: E402
from ris_vlc import scenario as scn  # noqa: E402

if not Path(ris_vlc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"ris_vlc imported from {ris_vlc.__file__}, not from this checkout's src/")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
MAX_ERRORS_KEPT = 5
BATCH_SECONDS = 0.5
# Times are scaled to a host on which host_probe() takes this long.
PROBE_REFERENCE_S = 0.010

_PROBE_RNG = np.random.default_rng(0)
_PROBE_CENTERS = _PROBE_RNG.uniform(size=(64, 3))
_PROBE_POINTS = _PROBE_RNG.uniform(size=(960, 3))


def host_probe(iterations: int = 300) -> float:
    """Seconds taken by a fixed kernel that does not use ris_vlc.

    Small-array NumPy calls plus a Python loop, the same mix as most of the
    package's hot paths. Shared hosts change speed by tens of percent over
    tens of seconds; timing this kernel next to each batch of operations
    measures the host's speed at that moment.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(iterations):
        d = _PROBE_POINTS - _PROBE_CENTERS[k % 64]
        x = np.sqrt(np.einsum("ij,ij->i", d, d))
        acc += float(np.add.reduce(np.where(x > 0.5, x, 0.0)))
        acc += sum(i * 0.5 for i in range(30))
    return time.perf_counter() - start


class Run:
    """Operation loop with failure accounting for one workload instance."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def op(self, inp, expected: dict | None = None):
        """Run, time and check one operation; returns its record or None.

        `expected` maps record keys to required values (relative 1e-9).
        """
        self.attempted += 1
        clock = time.perf_counter
        try:
            start = clock()
            out = self.workload.run(inp)
            dur = clock() - start
            failures = self.workload.check(inp, out)
            record = self.workload.record(out)
        except Exception:
            self.fail(traceback.format_exc(limit=3))
            return None
        for key, value in (expected or {}).items():
            if not np.isclose(record[key], value, rtol=1e-9, atol=0.0):
                failures.append(f"reference mismatch on {key}: {record[key]!r} != {value!r}")
        if failures:
            self.fail("; ".join(failures))
        record["dur"] = dur
        return record

    def warm_up(self, sizes_name: str) -> None:
        """Warm-up operation at the default seed, checked against reference.json."""
        reference = json.loads(REFERENCE.read_text())[sizes_name][self.workload.name]
        expected = {key: reference[key] for key in self.workload.reference_keys}
        self.op(self.workload.inputs(DEFAULT_SEED, 0), expected)

    def timed(self, master: int, seconds: float) -> list:
        """Operations 0, 1, ... until `seconds` of wall time pass.

        Stops before an operation expected to end more than half an
        operation past the window, so slow operations do not overrun it.
        Each batch of at least BATCH_SECONDS of operation time is followed
        by one host-speed probe; `ref_dur` is the operation's time scaled
        by it to the reference host speed.
        """
        records, batch = [], []
        start = time.perf_counter()
        j = 0
        while True:
            record = self.op(self.workload.inputs(master, j))
            if record is not None:
                records.append(record)
                batch.append(record)
            j += 1
            elapsed = time.perf_counter() - start
            done = elapsed + 0.5 * elapsed / j >= seconds
            if batch and (done or sum(r["dur"] for r in batch) >= BATCH_SECONDS):
                scale = PROBE_REFERENCE_S / host_probe()
                for r in batch:
                    r["ref_dur"] = r["dur"] * scale
                batch = []
            if done:
                return records

    def paired(self, master: int, seconds: float, tracer: Tracer) -> tuple[list, list]:
        """Each operation untraced and then again traced, until `seconds` pass.

        Back-to-back pairs see the same host speed, so their time ratio is
        the tracing overhead even while the host drifts.
        """
        untraced, traced = [], []
        start = time.perf_counter()
        j = 0
        while True:
            inp = self.workload.inputs(master, j)
            plain = self.op(inp)
            with tracer:
                again = self.op(inp)
            if plain is not None and again is not None:
                untraced.append(plain)
                traced.append(again)
            j += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / j >= seconds:
                return untraced, traced


def generic_layer_metrics(tracer: Tracer) -> dict:
    spans = tracer.by_name()  # names that never ran read as zero

    def calls(name):
        return spans[name]["calls"]

    def self_s(name):
        return spans[name]["self_s"]

    def infos(name):
        return spans[name]["infos"]

    def ratio(num, den):
        return num / den if den else 0.0

    blocked = infos("geometry.segments_blocked")
    blocked_each = infos("geometry.segments_blocked_each")
    rows = sum(i[0] for i in blocked)
    rows_each = sum(i[0] for i in blocked_each)
    hits = sum(i[1] for i in blocked) + sum(i[1] for i in blocked_each)
    patches = sum(infos("channel.wall_first_reflection_gain"))
    elements = infos("ris.element_gains")
    samples = sum(infos("orientation.sample_polar_angles"))

    trial_ms = sorted(
        (s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "scenario.run_trial"
    )
    tail_pct, tail_ms = _tail(trial_ms)

    return {
        "geometry.segments_blocked.calls": calls("geometry.segments_blocked"),
        "geometry.segments_blocked.rows": rows,
        "geometry.segments_blocked.cylinder_pairs": sum(i[0] * i[2] for i in blocked),
        "geometry.segments_blocked.rows_per_call": ratio(rows, len(blocked)),
        "geometry.segments_blocked.self_s": self_s("geometry.segments_blocked"),
        "geometry.segments_blocked_each.rows": rows_each,
        "geometry.segments_blocked_each.self_s": self_s("geometry.segments_blocked_each"),
        "geometry.blocked_ratio": ratio(hits, rows + rows_each),
        "channel.wall_first_reflection_gain.calls": calls("channel.wall_first_reflection_gain"),
        "channel.wall_first_reflection_gain.self_s": self_s("channel.wall_first_reflection_gain"),
        "channel.wall_first_reflection_gain.patches_per_call": ratio(
            patches, calls("channel.wall_first_reflection_gain")
        ),
        "channel.los_gain.calls": calls("channel.los_gain"),
        "channel.los_gain.self_s": self_s("channel.los_gain"),
        "ris.element_gains.calls": calls("ris.element_gains"),
        "ris.element_gains.self_s": self_s("ris.element_gains"),
        "ris.element_gains.elements": sum(i[0] for i in elements),
        "ris.lit_element_ratio": ratio(sum(i[1] for i in elements), sum(i[0] for i in elements)),
        "scenario.realize.self_s": self_s("scenario.realize"),
        "scenario.evaluate_links.calls": calls("scenario.evaluate_links"),
        "scenario.evaluate_links.self_s": self_s("scenario.evaluate_links"),
        "scenario.run_trial.ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "scenario.run_trial.ms_tail": tail_ms,
        "scenario.run_trial.tail_pct": tail_pct,
        "scenario.run_trial.samples": len(trial_ms),
        "metrics.sum_rate.calls": calls("metrics.sum_rate"),
        "metrics.sum_rate.self_s": self_s("metrics.sum_rate"),
        "metrics.link_rate.calls": calls("metrics.link_rate"),
        "orientation.sample_polar_angles.calls": calls("orientation.sample_polar_angles"),
        "orientation.sample_polar_angles.self_s": self_s("orientation.sample_polar_angles"),
        "orientation.sample_polar_angles.samples_per_call": ratio(
            samples, calls("orientation.sample_polar_angles")
        ),
        "noma.best_two_user_allocation.calls": calls("noma.best_two_user_allocation"),
        "noma.best_two_user_allocation.self_s": self_s("noma.best_two_user_allocation"),
        "noma.noma_rates.calls": calls("noma.noma_rates"),
        "noma.tdma_equal_share_rates.self_s": self_s("noma.tdma_equal_share_rates"),
        "mimo.assemble_channel.self_s": self_s("mimo.assemble_channel"),
        "mimo.qr_capacity.calls": calls("mimo.qr_capacity"),
        "mimo.qr_capacity.self_s": self_s("mimo.qr_capacity"),
        "trace.spans": len(tracer.spans),
    }


def _tail(sorted_values: list) -> tuple[float, float]:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(sorted_values)
    best = (0.0, 0.0)
    for pct in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = (pct, float(np.percentile(sorted_values, pct)))
    return best


def thread_check(run: Run, master: int) -> float:
    """Trials/s at threads=nproc over threads=1; the two studies must match."""
    workload = run.workload
    study = workload.by_count[15]
    trials = workload.sizes.thread_check_trials
    threads = os.cpu_count() or 1
    pinned = os.environ.pop(scn.THREADS_ENV_VAR, None)  # the pin would cap threads=nproc
    try:
        seconds = {}
        results = {}
        for n in (1, threads):
            start = time.perf_counter()
            results[n] = scn.run_study(study, trials, master_seed=master, threads=n)
            seconds[n] = time.perf_counter() - start
    finally:
        if pinned is not None:
            os.environ[scn.THREADS_ENV_VAR] = pinned
    run.attempted += 1
    if scn.trials_to_csv(results[1]) != scn.trials_to_csv(results[threads]):
        run.fail(f"run_study results differ between 1 and {threads} threads")
    return seconds[1] / seconds[threads]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, default=0, help="which of the run's processes this is")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=sorted(SIZES), default="full")
    p.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](SIZES[args.sizes])
    master = int(np.random.SeedSequence([args.seed, args.index]).generate_state(1)[0])
    run = Run(workload)
    result = {}

    if args.trace:
        with Tracer() as tracer:
            workload.setup(master)
        for_room_s = tracer.by_name()["channel.WallPatchSet.for_room"]["total_s"]
        tracer.reset()
        run.warm_up(args.sizes)
        untraced, traced = run.paired(master, args.seconds, tracer)
        layers = generic_layer_metrics(tracer)
        layers["channel.for_room_s"] = for_room_s
        layers["trace.overhead_ratio"] = sum(r["dur"] for r in traced) / sum(
            r["dur"] for r in untraced
        )
        layers.update(workload.layer_metrics(tracer, untraced))
        if args.workload == "blockage_mc":
            layers["scenario.run_study.thread_speedup"] = thread_check(run, master)
        for other in WORKLOADS.values():
            for name in other.layer_names:
                layers.setdefault(name, 0.0)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["layers"] = layers
        records = untraced
    else:
        workload.setup(master)
        run.warm_up(args.sizes)
        setup_s = time.monotonic() - args.launched
        result["setup_raw_s"] = setup_s
        result["setup_s"] = setup_s * PROBE_REFERENCE_S / host_probe()
        records = run.timed(master, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(records=records, attempted=run.attempted, failed=run.failed, errors=run.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
