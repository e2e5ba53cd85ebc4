"""Command-line entry point.

Subcommands: simulate (Monte-Carlo study over a scenario file), optimize
(mirror-angle search with a paired random baseline), noma (two-user power
allocation sweep on simulated gains), mimo (capacity curve for a seeded
random surface channel), and reproduce {blockage, orientation} (the two
built-in studies on their benchmark deployments).

Results go to --out via an atomic temp-file-plus-rename write, followed by
a one-line summary on standard output; without --out the result document
itself goes to standard output. Outputs carry no timestamps, so identical
command lines produce byte-identical files. Exit codes: 0 success, 1 usage
error, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import mimo, noma, scenario as scn
from .metrics import IntensityConstraints
from .optimize import optimize_mirror_angles, random_angle_baseline


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (2 is validation)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, *reads: str, scenario_required: bool = False):
    """--seed and --out, plus whichever of --scenario, --trials and --format the command reads."""
    if "scenario" in reads:
        default = "" if scenario_required else "; default: built-in benchmark"
        p.add_argument("--scenario", metavar="PATH", required=scenario_required,
                       help="scenario configuration file (JSON)" + default)
    p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    if "trials" in reads:
        p.add_argument("--trials", type=int, default=None, help="trial/sample count")
    p.add_argument("--out", metavar="PATH", default=None, help="result file; stdout if omitted")
    if "format" in reads:
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ris-vlc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("simulate", help="run a Monte-Carlo study over a scenario file")
    _add_common(p, "scenario", "trials", "format", scenario_required=True)

    p = sub.add_parser("optimize", help="tune mirror angles and report vs a random baseline")
    _add_common(p, "scenario")
    p.add_argument("--algorithm", choices=("sca", "pso", "grid"), default="sca")
    p.add_argument("--mode", choices=("identical", "per-element"), default="identical")

    p = sub.add_parser("noma", help="two-user power allocation sweep on simulated gains")
    _add_common(p, "scenario")

    p = sub.add_parser("mimo", help="capacity curve for a seeded random surface channel")
    _add_common(p)
    p.add_argument("--sources", type=int, default=2, help="transmit branches (default 2)")
    p.add_argument("--detectors", type=int, default=2, help="receive branches (default 2)")
    p.add_argument("--elements", type=int, default=16, help="surface elements (default 16)")

    p = sub.add_parser("reproduce", help="rerun a built-in study on its benchmark deployment")
    p.add_argument("study", choices=("blockage", "orientation"))
    _add_common(p, "scenario", "trials")
    return parser


def _write_text(path: Optional[str], text: str, summary: str) -> None:
    """Atomic file write plus summary line, or the document itself to stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ris-vlc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(summary)


def _load(args) -> scn.Scenario:
    if args.scenario is None:
        return scn.benchmark_scenario()
    with open(args.scenario, "r") as handle:
        return scn.load_scenario(handle.read())


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_simulate(args) -> int:
    deployment = _load(args)
    trials = args.trials if args.trials is not None else 100
    results = scn.run_study(deployment, trials, master_seed=args.seed)
    stats = scn.study_statistics(results)
    if args.format == "csv":
        text = scn.trials_to_csv(results)
    else:
        text = _json_text(stats.to_dict())
    _write_text(
        args.out,
        text,
        f"simulate: {trials} trials, mean sum rate {stats.mean_sum_rate:.6g} bit/s",
    )
    return 0


def _cmd_optimize(args) -> int:
    deployment = scn.blocked_benchmark_scenario() if args.scenario is None else _load(args)
    solution = optimize_mirror_angles(
        deployment, algorithm=args.algorithm, mode=args.mode, seed=args.seed
    )
    baseline = random_angle_baseline(deployment, seed=args.seed)
    payload = {
        "algorithm": args.algorithm,
        "mode": args.mode,
        "seed": args.seed,
        "achieved_sum_rate_bps": solution.sum_rate,
        "baseline_sum_rate_bps": baseline,
        "evaluations": solution.result.evaluations_used,
        "panels": [
            {
                "yaw_deg": np.degrees(yaw).tolist(),
                "roll_deg": np.degrees(roll).tolist(),
            }
            for yaw, roll in zip(solution.yaw, solution.roll)
        ],
    }
    _write_text(
        args.out,
        _json_text(payload),
        f"optimize[{args.algorithm}/{args.mode}]: sum rate {solution.sum_rate:.6g} bit/s"
        f" (baseline {baseline:.6g})",
    )
    return 0


def _cmd_noma(args) -> int:
    deployment = _load(args)
    if len(deployment.users) < 2:
        raise ValueError("the NOMA sweep needs a scenario with at least two users")
    if not deployment.aps:
        raise ValueError("the NOMA sweep needs a scenario with an access point")
    trial = scn.run_trial(deployment, np.random.SeedSequence([args.seed, 0]))
    gains = trial.h_los + trial.h_wall + trial.h_ris
    order = noma.order_users(gains)
    pair = [order[0], order[-1]]  # weakest and strongest user
    pair_gains = gains[pair]
    if pair_gains[0] == pair_gains[1]:
        raise ValueError("drawn users have identical gains; try another seed")
    power = deployment.aps[0].optical_power
    sigma2 = deployment.noise.variance
    alloc, rates = noma.best_two_user_allocation(pair_gains, power, sigma2)
    tdma = noma.tdma_equal_share_rates(pair_gains, power, sigma2)
    payload = {
        "seed": args.seed,
        "user_indices": [int(i) for i in pair],
        "gains": pair_gains.tolist(),
        "power_coefficients": alloc.coefficients.tolist(),
        "noma_rates_bits": rates.tolist(),
        "noma_sum_bits": float(np.sum(rates)),
        "tdma_rates_bits": tdma.tolist(),
        "tdma_sum_bits": float(np.sum(tdma)),
    }
    _write_text(
        args.out,
        _json_text(payload),
        f"noma: sum {float(np.sum(rates)):.4f} bits vs tdma {float(np.sum(tdma)):.4f} bits",
    )
    return 0


def _cmd_mimo(args) -> int:
    if args.sources < 1 or args.detectors < 1 or args.elements < 1:
        raise ValueError("sources, detectors, and elements must be positive")
    rng = np.random.default_rng(args.seed)
    g = rng.uniform(0.0, 1.0, (args.elements, args.sources))
    phi = (rng.uniform(size=args.elements) < 0.5).astype(float)
    h = rng.uniform(0.0, 1.0, (args.elements, args.detectors))
    channel = mimo.MimoChannel(g, phi, h)
    average = 2.0
    # keep every grid point inside the QR regime: peak <= 2 * average / sources
    peak_max = 2.0 * average / args.sources
    x_grid = np.linspace(0.1 * peak_max, peak_max, 10)
    capacities = [
        mimo.qr_capacity(
            channel.assembled,
            IntensityConstraints(peak=float(x), average_total=average),
            noise_variance=1.0,
        )
        for x in x_grid
    ]
    payload = {
        "seed": args.seed,
        "sources": args.sources,
        "detectors": args.detectors,
        "elements": args.elements,
        "average_intensity": average,
        "peak_grid": x_grid.tolist(),
        "capacity_bits": capacities,
    }
    _write_text(
        args.out,
        _json_text(payload),
        f"mimo: capacity {capacities[0]:.4f}..{capacities[-1]:.4f} bits over {len(capacities)}-point grid",
    )
    return 0


def _cmd_reproduce(args) -> int:
    if args.study == "orientation":
        deployment = (
            scn.orientation_benchmark_scenario() if args.scenario is None else _load(args)
        )
        samples = args.trials if args.trials is not None else 10000
        fraction = scn.orientation_study(deployment, samples, master_seed=args.seed)
        payload = {
            "samples": samples,
            "seed": args.seed,
            "fraction_excluded": None if math.isnan(fraction) else fraction,
        }
        summary = f"reproduce orientation: fraction_excluded {fraction:.4f} over {samples} samples"
    else:
        deployment = scn.benchmark_scenario() if args.scenario is None else _load(args)
        trials = args.trials if args.trials is not None else 1000
        counts = (5, 15)
        stats = scn.blockage_study(deployment, trials, blocker_counts=counts, master_seed=args.seed)
        payload = {
            "trials": trials,
            "seed": args.seed,
            "blocker_counts": {str(k): v.to_dict() for k, v in stats.items()},
        }
        means = ", ".join(f"{k}: {v.mean_sum_rate:.6g}" for k, v in stats.items())
        summary = f"reproduce blockage: mean sum rate by blocker count {{{means}}} bit/s"
    _write_text(args.out, _json_text(payload), summary)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "optimize": _cmd_optimize,
    "noma": _cmd_noma,
    "mimo": _cmd_mimo,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"ris-vlc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
