"""The four benchmark workloads: inputs, one operation, and its checks.

Every workload drives the public `ris_vlc` API one operation at a time.
Inputs are derived from a master seed and the operation index only, so the
same seed always gives the same inputs. Functions are looked up through
their module at call time (`scn.run_trial`, not a bound name) so that the
tracer's wrappers see every call.

Each workload supplies:
  setup(master)        build scenarios and input pools, fill lazy caches
  inputs(master, j)    the inputs of operation j
  run(inp)             one operation (the only timed call)
  check(inp, out)      failure messages for one operation
  record(out)          JSON-ready numbers kept for the run summary
  finish(records)      run-level quality ratio and study-level failures
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from ris_vlc import metrics, mimo, noma, optimize as opt, scenario as scn
from ris_vlc.metrics import IntensityConstraints

# Seed of the warm-up operation whose outputs are compared with the values
# recorded from the seed commit in reference.json.
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Sizes:
    """Per-operation sizes; `full` is the benchmark, `tiny` the self-test."""

    sca_population: int
    sca_iterations: int
    pso_population: int
    pso_iterations: int
    grid_resolution: int
    fov_samples: int
    gain_pool: int
    thread_check_trials: int
    # study-level orderings are statistical; below this many paired
    # trials they are not tested
    min_pairs_for_ordering: int


# SCA needs about 500 near-random early candidates to find the lit region
# (2.4 % of the angle box) with certainty; 40 x 40 misses it with
# probability of order 1e-6 per solve. The tiny profile keeps the solver
# sizes so that its checks hold.
SIZES = {
    "full": Sizes(40, 40, 20, 40, 21, 400_000, 32, 48, 150),
    "tiny": Sizes(40, 40, 20, 40, 21, 20_000, 4, 4, 10**9),
}


def _seed_ints(master: int, j: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence([master, j]).generate_state(count)]


def _finite_nonneg(values) -> bool:
    a = np.asarray(values, dtype=float)
    return bool(np.all(np.isfinite(a)) and np.all(a >= 0.0))


class Workload:
    name = ""
    reference_keys: tuple = ()
    # per-layer metrics only this workload produces; the others report 0
    layer_names: tuple = ()

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, master: int) -> None:
        raise NotImplementedError

    def inputs(self, master: int, j: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def record(self, out) -> dict:
        raise NotImplementedError

    def finish(self, records: list) -> tuple[float, list[str]]:
        raise NotImplementedError

    def named_metrics(self, records: list) -> dict:
        """The workload's own figures, printed by name before the result line."""
        return {}

    def layer_metrics(self, tracer, records: list) -> dict:
        """Per-layer figures that need this workload's outputs."""
        return {}


class BlockageMc(Workload):
    """Paired trials of the reference deployment at 5 and 15 blockers."""

    name = "blockage_mc"
    reference_keys = ("sum5", "sum15")
    layer_names = ("scenario.run_study.thread_speedup",)
    counts = (5, 15)

    def setup(self, master):
        base = scn.benchmark_scenario()
        self.by_count = {
            c: dataclasses.replace(
                base, blocker_population=dataclasses.replace(base.blocker_population, count=c)
            )
            for c in self.counts
        }
        for s in self.by_count.values():
            s.wall_patches

    def inputs(self, master, j):
        return np.random.SeedSequence([master, j])

    def run(self, trial_seed):
        return {c: scn.run_trial(s, trial_seed) for c, s in self.by_count.items()}

    def check(self, inp, out):
        failures = []
        for c, r in out.items():
            users = len(self.by_count[c].users)
            arrays = (r.h_los, r.h_wall, r.h_ris, r.rates)
            if any(a.shape != (users,) for a in arrays) or not all(map(_finite_nonneg, arrays)):
                failures.append(f"{c} blockers: gains or rates malformed")
            elif not math.isclose(r.sum_rate, float(np.sum(r.rates)), rel_tol=1e-12):
                failures.append(f"{c} blockers: sum rate {r.sum_rate} != sum of user rates")
        return failures

    def record(self, out):
        rec = {}
        for c, r in out.items():
            rec[f"sum{c}"] = r.sum_rate
            rec[f"los_rate{c}"] = float(np.sum(r.rates[r.los_visible]))
            rec[f"los_n{c}"] = int(np.sum(r.los_visible))
            rec[f"nlos_rate{c}"] = float(np.sum(r.rates[~r.los_visible]))
            rec[f"nlos_n{c}"] = int(np.sum(~r.los_visible))
        rec["work"] = len(out)
        return rec

    def finish(self, records):
        failures = []
        mean = {c: statistics.fmean(r[f"sum{c}"] for r in records) for c in self.counts}
        if len(records) >= self.sizes.min_pairs_for_ordering and not mean[15] < mean[5]:
            failures.append(f"mean sum rate at 15 blockers {mean[15]} not below 5 blockers {mean[5]}")
        for c in self.counts:
            los_n = sum(r[f"los_n{c}"] for r in records)
            nlos_n = sum(r[f"nlos_n{c}"] for r in records)
            if los_n and nlos_n:
                ratio = (sum(r[f"nlos_rate{c}"] for r in records) / nlos_n) / (
                    sum(r[f"los_rate{c}"] for r in records) / los_n
                )
                if not ratio < 0.1:
                    failures.append(f"{c} blockers: NLoS/LoS user-rate ratio {ratio} not below 0.1")
        return mean[5] / mean[15], failures

    def named_metrics(self, records):
        trials = sum(r["work"] for r in records)
        return {"trials_per_s": (trials / sum(r["dur"] for r in records), "1/s")}


class MirrorOpt(Workload):
    """One SCA, one PSO, and one grid solve, each with a random baseline."""

    name = "mirror_opt"
    reference_keys = ("sca", "pso", "grid")
    kinds = ("sca", "pso", "grid")
    layer_names = (
        "optimize.evaluations",
        "optimize.self_s",
        "optimize.objective_share",
        "optimize.iters_to_98pct",
        "optimize.useful_eval_ratio",
        "optimize.beat_baseline_ratio",
    ) + tuple(f"optimize.{kind}_solve_s" for kind in kinds)

    def setup(self, master):
        self.blocked = scn.blocked_benchmark_scenario()
        self.single = scn.single_mirror_benchmark_scenario()
        for s in (self.blocked, self.single):
            s.evaluate_links()  # wall tiling and the static-link cache
        # both deployments differ only in their mirror panel
        self.wall_rate = metrics.sum_rate(dataclasses.replace(self.blocked, ris_panels=()))
        z = self.sizes
        self.sca_params = opt.ScaParams(population=z.sca_population, iterations=z.sca_iterations)
        self.pso_params = opt.PsoParams(population=z.pso_population, iterations=z.pso_iterations)

    def inputs(self, master, j):
        return _seed_ints(master, j, 2)

    def run(self, seeds):
        sca_seed, pso_seed = seeds
        clock = time.perf_counter
        t0 = clock()
        sca = opt.optimize_mirror_angles(
            self.blocked, "sca", "identical", seed=sca_seed, sca_params=self.sca_params
        )
        t1 = clock()
        pso = opt.optimize_mirror_angles(
            self.blocked, "pso", "per-element", seed=pso_seed, pso_params=self.pso_params
        )
        t2 = clock()
        grid = opt.optimize_mirror_angles(
            self.single, "grid", "identical", grid_resolution=self.sizes.grid_resolution
        )
        t3 = clock()
        baselines = {
            "sca": opt.random_angle_baseline(self.blocked, seed=sca_seed),
            "pso": opt.random_angle_baseline(self.blocked, seed=pso_seed),
            "grid": opt.random_angle_baseline(self.single, seed=sca_seed),
        }
        return {
            "solutions": {"sca": sca, "pso": pso, "grid": grid},
            "seconds": {"sca": t1 - t0, "pso": t2 - t1, "grid": t3 - t2},
            "baselines": baselines,
        }

    def check(self, inp, out):
        # Only SCA in identical mode is structurally paired with its baseline:
        # its first candidate is the baseline's draw, so it can only match or
        # beat it. PSO (per-element) and grid are held to the wall-only rate;
        # whether they beat their baselines is reported, not checked (see README).
        sca, base = out["solutions"]["sca"].sum_rate, out["baselines"]["sca"]
        failures = []
        if not sca > base:
            failures.append(f"sca: sum rate {sca} does not beat its paired baseline {base}")
        if not sca >= 3.0 * self.wall_rate:
            failures.append(f"sca: sum rate {sca} below 3x the wall-only rate {self.wall_rate}")
        for kind in ("pso", "grid"):
            rate = out["solutions"][kind].sum_rate
            if not (math.isfinite(rate) and rate > self.wall_rate):
                failures.append(f"{kind}: sum rate {rate} does not beat the wall-only rate")
        return failures

    def record(self, out):
        rec = {}
        for kind, sol in out["solutions"].items():
            rec[kind] = sol.sum_rate
            rec[f"{kind}_gain"] = sol.sum_rate / self.wall_rate
            rec[f"{kind}_s"] = out["seconds"][kind]
            rec[f"{kind}_iters98"] = _iters_to_fraction(sol.result.trace, 0.98)
            rec[f"{kind}_beat_baseline"] = sol.sum_rate > out["baselines"][kind]
        rec["work"] = sum(sol.result.evaluations_used for sol in out["solutions"].values())
        return rec

    def finish(self, records):
        # SCA in identical mode converges (5.0-5.3x over 200 seeds); PSO's
        # spread (3.4-8x) would swamp any bound. PSO and grid quality are
        # guarded by the reference outputs and the wall-rate check.
        return statistics.median(r["sca_gain"] for r in records), []

    def named_metrics(self, records):
        named = {
            f"{kind}_solve_s": (statistics.median(r[f"{kind}_s"] for r in records), "s")
            for kind in self.kinds
        }
        named["evals_per_s"] = (sum(r["work"] for r in records) / sum(r["dur"] for r in records), "1/s")
        named["gain_over_wall"] = (self.finish(records)[0], "ratio")
        return named

    def layer_metrics(self, tracer, records):
        solve, base = "optimize.optimize_mirror_angles", "optimize.random_angle_baseline"
        objective = tracer.children_of(solve, "metrics.sum_rate") + tracer.children_of(
            base, "metrics.sum_rate"
        )
        spans = tracer.by_name()
        opt_total = spans[solve]["total_s"] + spans[base]["total_s"]
        in_solves = tracer.children_of(solve, "metrics.sum_rate")
        useful = sum(1 for span in in_solves if span[4] > self.wall_rate)
        iters = [r[f"{kind}_iters98"] for r in records for kind in ("sca", "pso")]
        out = {
            "optimize.evaluations": len(in_solves),
            "optimize.self_s": spans[solve]["self_s"] + spans[base]["self_s"],
            "optimize.objective_share": sum(s[2] - s[1] for s in objective) / opt_total,
            "optimize.iters_to_98pct": statistics.median(iters),
            "optimize.useful_eval_ratio": useful / len(in_solves),
            "optimize.beat_baseline_ratio": statistics.fmean(
                r[f"{kind}_beat_baseline"] for r in records for kind in self.kinds
            ),
        }
        for kind in self.kinds:
            out[f"optimize.{kind}_solve_s"] = statistics.median(r[f"{kind}_s"] for r in records)
        return out


def _iters_to_fraction(trace: np.ndarray, fraction: float) -> int:
    """Iterations until the best-so-far trace reaches `fraction` of its final value."""
    return int(np.argmax(trace >= fraction * trace[-1]))


class FovBulk(Workload):
    """One large orientation study on the corner-AP deployment."""

    name = "fov_bulk"
    reference_keys = ("fraction",)

    def setup(self, master):
        self.scenario = dataclasses.replace(
            scn.orientation_benchmark_scenario(),
            blocker_population=scn.BlockerPopulation(count=5),
        )

    def inputs(self, master, j):
        return _seed_ints(master, j, 1)[0]

    def run(self, master_seed):
        return scn.orientation_study(self.scenario, self.sizes.fov_samples, master_seed=master_seed)

    def check(self, inp, out):
        if not 0.3 <= out <= 0.7:
            return [f"excluded fraction {out} outside [0.3, 0.7]"]
        return []

    def record(self, out):
        return {"fraction": out, "work": self.sizes.fov_samples}

    def finish(self, records):
        return statistics.fmean(r["fraction"] for r in records), []

    def named_metrics(self, records):
        samples = sum(r["work"] for r in records)
        return {"samples_per_s": (samples / sum(r["dur"] for r in records), "1/s")}


class AccessAlloc(Workload):
    """Two-user NOMA allocation with its TDMA baseline, plus one MIMO capacity curve."""

    name = "access_alloc"
    reference_keys = ("noma_sum", "tdma_sum", "cap_first", "cap_last")
    layer_names = ("noma.allocs_per_s", "mimo.curves_per_s")
    average_intensity = 2.0

    def setup(self, master):
        self.base = scn.benchmark_scenario()
        self.power = self.base.aps[0].optical_power
        self.noise_variance = self.base.noise.variance
        self._pairs = {}
        trials = scn.run_study(self.base, self.sizes.gain_pool, master_seed=master, threads=1)
        for k, trial in enumerate(trials):
            self._pairs[(master, k)] = self._weak_strong(trial)

    @staticmethod
    def _weak_strong(trial) -> np.ndarray:
        gains = trial.h_los + trial.h_wall + trial.h_ris
        order = noma.order_users(gains)
        return gains[[order[0], order[-1]]]

    def _pair(self, master, k):
        # trial k of run_study(master_seed=master), drawn on demand
        if (master, k) not in self._pairs:
            trial = scn.run_trial(self.base, np.random.SeedSequence([master, k]))
            self._pairs[(master, k)] = self._weak_strong(trial)
        return self._pairs[(master, k)]

    def inputs(self, master, j):
        pair = self._pair(master, j % self.sizes.gain_pool)
        rng = np.random.default_rng([master, j])
        sources, detectors = (int(v) for v in rng.integers(2, 5, size=2))
        elements = int(rng.integers(16, 65))
        g = rng.uniform(0.0, 1.0, (elements, sources))
        phi = (rng.uniform(size=elements) < 0.5).astype(float)
        h = rng.uniform(0.0, 1.0, (elements, detectors))
        peak_max = 2.0 * self.average_intensity / sources  # stay inside the QR regime
        peaks = np.linspace(0.1 * peak_max, peak_max, 10)
        return pair, (g, phi, h), peaks

    def run(self, inp):
        pair, (g, phi, h), peaks = inp
        clock = time.perf_counter
        t0 = clock()
        alloc, rates = noma.best_two_user_allocation(pair, self.power, self.noise_variance)
        tdma = noma.tdma_equal_share_rates(pair, self.power, self.noise_variance)
        t1 = clock()
        channel = mimo.MimoChannel(g, phi, h)
        capacities = [
            mimo.qr_capacity(
                channel.assembled,
                IntensityConstraints(peak=float(x), average_total=self.average_intensity),
                noise_variance=1.0,
            )
            for x in peaks
        ]
        t2 = clock()
        return alloc, rates, tdma, np.array(capacities), t1 - t0, t2 - t1

    def check(self, inp, out):
        pair = inp[0]
        alloc, rates, tdma, capacities = out[:4]
        failures = []
        if not (_finite_nonneg(rates) and float(np.sum(rates)) >= float(np.sum(tdma))):
            failures.append(f"NOMA sum {np.sum(rates)} below TDMA sum {np.sum(tdma)}")
        verdict = noma.validate_allocation(alloc.coefficients, pair)
        if not verdict.ok:
            failures.append(f"allocation invalid: {verdict.violation}")
        if not (_finite_nonneg(capacities) and np.all(np.diff(capacities) >= 0.0)):
            failures.append("QR capacity curve not monotone in peak intensity")
        return failures

    def record(self, out):
        _, rates, tdma, capacities, noma_s, mimo_s = out
        return {
            "noma_sum": float(np.sum(rates)),
            "tdma_sum": float(np.sum(tdma)),
            "cap_first": float(capacities[0]),
            "cap_last": float(capacities[-1]),
            "noma_s": noma_s,
            "mimo_s": mimo_s,
            "work": 1,
        }

    def finish(self, records):
        return statistics.median(r["noma_sum"] / r["tdma_sum"] for r in records), []

    def named_metrics(self, records):
        return {
            "noma_allocs_per_s": (len(records) / sum(r["noma_s"] for r in records), "1/s"),
            "mimo_curves_per_s": (len(records) / sum(r["mimo_s"] for r in records), "1/s"),
        }

    def layer_metrics(self, tracer, records):
        return {
            "noma.allocs_per_s": len(records) / sum(r["noma_s"] for r in records),
            "mimo.curves_per_s": len(records) / sum(r["mimo_s"] for r in records),
        }


WORKLOADS = {w.name: w for w in (BlockageMc, MirrorOpt, FovBulk, AccessAlloc)}
