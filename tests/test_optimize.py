"""Population metaheuristics, the grid oracle, and mirror-angle tuning."""

import math

import numpy as np
import pytest

from ris_vlc.optimize import (
    GRID_EVALUATION_CAP,
    AngleSolution,
    BoundedProblem,
    PsoParams,
    ScaParams,
    grid_search_oracle,
    optimize_mirror_angles,
    pso_optimize,
    random_angle_baseline,
    sca_optimize,
)
from ris_vlc.ris import ANGLE_LIMIT
from ris_vlc.scenario import blocked_benchmark_scenario, single_mirror_benchmark_scenario
from ris_vlc import metrics, optimize


def _quadratic(center):
    """A rows-in, values-out concave bowl peaking at `center`."""
    c = np.asarray(center, dtype=float)

    def f(points):
        return -np.sum((points - c) ** 2, axis=1)

    return f


def _zero(points):
    return np.zeros(len(points))


def test_bounded_problem_validation():
    with pytest.raises(ValueError):
        BoundedProblem(objective=_quadratic([0]), lower=[0.0], upper=[0.0], budget=10)
    with pytest.raises(ValueError):
        BoundedProblem(objective=_quadratic([0]), lower=[0.0, 1.0], upper=[1.0],
                       budget=10)
    with pytest.raises(ValueError):
        BoundedProblem(objective=_quadratic([0]), lower=[0.0], upper=[np.inf],
                       budget=10)
    for budget in (0, -1, 2.5, math.nan, "10"):
        with pytest.raises(ValueError, match=r"^evaluation budget must be a positive integer, got "):
            BoundedProblem(objective=_quadratic([0]), lower=[0.0], upper=[1.0], budget=budget)
    p = BoundedProblem(objective=_quadratic([0]), lower=[-1.0, -1.0],
                       upper=[1.0, 1.0], budget=10)
    assert p.dimension == 2


@pytest.mark.parametrize("params, message", [
    (lambda: ScaParams(population=0), r"^population must be an integer >= 1, got 0$"),
    (lambda: PsoParams(population=-3), r"^population must be an integer >= 1, got -3$"),
    (lambda: ScaParams(population=2.5), r"^population must be an integer >= 1, got 2.5$"),
    (lambda: PsoParams(population=False), r"^population must be an integer >= 1, got False$"),
    (lambda: ScaParams(iterations=-1), r"^iterations must be an integer >= 0, got -1$"),
    (lambda: PsoParams(iterations=float("nan")), r"^iterations must be an integer >= 0, got nan$"),
])
def test_search_params_refuse_what_they_cannot_run(params, message):
    with pytest.raises(ValueError, match=message):
        params()


def test_one_record_serves_both_searches_with_fixed_coefficients():
    assert ScaParams is PsoParams
    assert (optimize.SCA_A_INITIAL, optimize.PSO_INERTIA, optimize.PSO_C1, optimize.PSO_C2) == (2.0, 0.729, 1.494, 1.494)


def test_smallest_search_params_run():
    problem = BoundedProblem(objective=_quadratic([0.2]), lower=[-1.0], upper=[1.0], budget=10, seed=4)
    for optimizer, params in ((sca_optimize, ScaParams(population=1, iterations=0)),
                              (pso_optimize, PsoParams(population=np.int64(1), iterations=0))):
        result = optimizer(problem, params)
        assert result.evaluations_used == 1 and len(result.trace) == 1


def test_searches_refuse_a_nan_objective():
    problem = BoundedProblem(objective=lambda points: np.where(points[:, 0] > 0.0, math.nan, 0.0),
                             lower=[-1.0], upper=[1.0], budget=50, seed=0)
    for run in (lambda: sca_optimize(problem, ScaParams(population=5, iterations=9)),
                lambda: pso_optimize(problem, PsoParams(population=5, iterations=9)),
                lambda: grid_search_oracle(problem, 5)):
        with pytest.raises(ValueError, match="objective returned NaN"):
            run()


PROBLEM = dict(lower=np.array([-2.0, -2.0]), upper=np.array([2.0, 2.0]))


def test_sca_converges_on_concave_quadratic():
    problem = BoundedProblem(objective=_quadratic([0.7, -1.1]), budget=3000, seed=1,
                             **PROBLEM)
    result = sca_optimize(problem, ScaParams(population=20, iterations=149))
    np.testing.assert_allclose(result.best_point, [0.7, -1.1], atol=0.05)
    assert result.best_value == pytest.approx(0.0, abs=1e-2)


def test_pso_converges_on_concave_quadratic():
    problem = BoundedProblem(objective=_quadratic([0.7, -1.1]), budget=3000, seed=1,
                             **PROBLEM)
    result = pso_optimize(problem, PsoParams(population=20, iterations=149))
    np.testing.assert_allclose(result.best_point, [0.7, -1.1], atol=1e-3)
    assert result.best_value == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("optimizer,params", [
    (sca_optimize, ScaParams(population=10, iterations=20)),
    (pso_optimize, PsoParams(population=10, iterations=20)),
])
def test_metaheuristics_respect_budget_and_bounds(optimizer, params):
    calls = []

    def recording(points):
        calls.extend(points.copy())
        return -np.sum(points**2, axis=1)

    problem = BoundedProblem(objective=recording, lower=[-1.0], upper=[1.0],
                             budget=55, seed=3)
    result = optimizer(problem, params)
    assert result.evaluations_used == len(calls) == 50  # 10 * (4 + 1) <= 55
    assert all(-1.0 <= x[0] <= 1.0 for x in calls)
    assert -1.0 <= result.best_point[0] <= 1.0
    # trace is the running best: nondecreasing, one entry per generation
    assert len(result.trace) == 5
    assert np.all(np.diff(result.trace) >= 0.0)
    assert result.trace[-1] == result.best_value


def test_metaheuristics_deterministic_per_seed():
    for optimizer, params in (
        (sca_optimize, ScaParams(population=8, iterations=30)),
        (pso_optimize, PsoParams(population=8, iterations=30)),
    ):
        a = optimizer(BoundedProblem(objective=_quadratic([0.3, 0.2]), budget=500,
                                     seed=11, **PROBLEM), params)
        b = optimizer(BoundedProblem(objective=_quadratic([0.3, 0.2]), budget=500,
                                     seed=11, **PROBLEM), params)
        np.testing.assert_array_equal(a.best_point, b.best_point)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.trace, b.trace)


def test_grid_search_oracle_hits_lattice_optimum():
    problem = BoundedProblem(objective=_quadratic([0.5]), lower=[-1.0], upper=[1.0],
                             budget=1, seed=0)
    result = grid_search_oracle(problem, 201)  # lattice step 0.01 includes 0.5
    assert result.best_point[0] == pytest.approx(0.5, abs=1e-12)
    assert result.evaluations_used == 201


def test_grid_search_oracle_tie_breaks_to_first_lattice_point():
    problem = BoundedProblem(objective=_zero, lower=[-1.0], upper=[1.0],
                             budget=1, seed=0)
    result = grid_search_oracle(problem, 5)
    assert result.best_point[0] == -1.0


def test_grid_search_oracle_refuses_oversized_lattices():
    problem = BoundedProblem(objective=_quadratic([0, 0, 0]),
                             lower=[-1.0] * 3, upper=[1.0] * 3, budget=1, seed=0)
    res = int(math.ceil(GRID_EVALUATION_CAP ** (1 / 3))) + 1
    with pytest.raises(ValueError):
        grid_search_oracle(problem, res)
    with pytest.raises(ValueError):
        grid_search_oracle(problem, 1)


SMALL_SCA = ScaParams(population=12, iterations=40)
SMALL_PSO = PsoParams(population=12, iterations=40)


def test_optimize_mirror_angles_identical_mode_shapes():
    deployment = single_mirror_benchmark_scenario()
    sol = optimize_mirror_angles(deployment, algorithm="sca", mode="identical",
                                 seed=0, sca_params=SMALL_SCA)
    assert isinstance(sol, AngleSolution)
    assert len(sol.yaw) == len(sol.roll) == 1
    assert sol.yaw[0].shape == (1, 1)
    assert np.all(np.abs(sol.yaw[0]) <= ANGLE_LIMIT)
    # reported rate is recomputed from the returned angles
    pairs = [(float(sol.yaw[0][0, 0]), float(sol.roll[0][0, 0]))]
    assert sol.sum_rate == pytest.approx(metrics.sum_rate(deployment, pairs), rel=1e-12)


def test_optimize_mirror_angles_per_element_mode_shapes():
    deployment = single_mirror_benchmark_scenario()
    sol = optimize_mirror_angles(deployment, algorithm="pso", mode="per-element",
                                 seed=0, pso_params=SMALL_PSO)
    assert sol.yaw[0].shape == deployment.ris_panels[0].yaw.shape
    assert sol.result.evaluations_used <= SMALL_PSO.population * (SMALL_PSO.iterations + 1)


def test_optimize_mirror_angles_refuses_unknown_names():
    deployment = single_mirror_benchmark_scenario()
    for alias in ("identical_angles", "per_element"):  # one spelling per mode: the CLI's
        with pytest.raises(ValueError, match=rf"^unknown mode '{alias}'; expected one of "
                                             r"\['identical', 'per-element'\]$"):
            optimize_mirror_angles(deployment, mode=alias, sca_params=SMALL_SCA)
    with pytest.raises(ValueError, match=r"^unknown algorithm 'annealing'; expected one of "
                                         r"\['grid', 'pso', 'sca'\]$"):
        optimize_mirror_angles(deployment, algorithm="annealing")
    with pytest.raises(ValueError):
        optimize_mirror_angles(deployment, mode="mirrorwise")
    import dataclasses

    bare = dataclasses.replace(deployment, ris_panels=())
    with pytest.raises(ValueError):
        optimize_mirror_angles(bare, sca_params=SMALL_SCA)


def test_optimizer_beats_paired_random_baseline_on_single_mirror():
    deployment = single_mirror_benchmark_scenario()
    sol = optimize_mirror_angles(deployment, algorithm="sca", mode="identical",
                                 seed=2, sca_params=ScaParams(population=20,
                                                              iterations=80))
    base = random_angle_baseline(deployment, seed=2)
    assert sol.sum_rate > base


# Seeds of the benchmark's SCA solve on blocked_benchmark_scenario() whose result ties its paired baseline
# exactly, on correct code: the first row of SCA's seeded population is the baseline's draw, and no later
# candidate beats it strictly, so the solve reports the baseline's rate to the bit
@pytest.mark.parametrize("seed, rate", [(2864347461, 14654198.358375143), (1130927090, 14585292.274758056),
                                        (3168778651, 14597251.432227738)])
def test_sca_ties_its_paired_baseline_exactly_at_these_seeds(seed, rate):
    s = blocked_benchmark_scenario()
    solved = optimize_mirror_angles(s, "sca", "identical", seed=seed, sca_params=ScaParams(40, 40)).sum_rate
    assert solved == random_angle_baseline(s, seed) == rate


def test_random_angle_baseline_is_the_rate_at_its_one_seeded_draw():
    deployment = single_mirror_benchmark_scenario()
    one = random_angle_baseline(deployment, seed=9)
    assert one == random_angle_baseline(deployment, seed=9)
    yaw, roll = np.random.default_rng(9).uniform(-ANGLE_LIMIT, ANGLE_LIMIT, size=(1, 2))[0]
    assert one == metrics.sum_rate(deployment, [(yaw, roll)])


@pytest.mark.parametrize("deployment", [single_mirror_benchmark_scenario(), blocked_benchmark_scenario()],
                         ids=["single-mirror", "blocked"])
@pytest.mark.parametrize("algorithm, mode, kwargs", [
    ("sca", "identical", dict(sca_params=SMALL_SCA)),
    ("sca", "per-element", dict(sca_params=SMALL_SCA)),
    ("pso", "identical", dict(pso_params=PsoParams(population=6, iterations=7))),
    ("pso", "per-element", dict(pso_params=PsoParams(population=6, iterations=7))),
    ("grid", "identical", dict(grid_resolution=9)),
])
def test_objective_runs_once_per_evaluation_plus_the_reported_rate(monkeypatch, deployment, algorithm, mode, kwargs):
    # the objective maps a population of candidate rows to their values; `metrics.sum_rate` is called only
    # for the reported rate, which equals the best value found, bit for bit
    rows, reported = [], []
    make_objective, original = optimize._sum_rate_objective, metrics.sum_rate

    def counting_objective(*args):
        objective = make_objective(*args)

        def counted(points):
            values = objective(points)
            rows.append(len(points))
            assert len(values) == len(points) and all(type(value) is float for value in values)
            return values
        return counted

    def counting_sum_rate(*args, **kw):
        reported.append(original(*args, **kw))
        return reported[-1]

    monkeypatch.setattr(optimize, "_sum_rate_objective", counting_objective)
    monkeypatch.setattr(metrics, "sum_rate", counting_sum_rate)
    sol = optimize_mirror_angles(deployment, algorithm=algorithm, mode=mode, seed=3, **kwargs)
    assert sum(rows) == sol.result.evaluations_used
    assert reported == [sol.sum_rate] and sol.sum_rate == sol.result.best_value
    rows.clear()
    reported.clear()
    random_angle_baseline(deployment, seed=3)
    assert rows == [1] and reported == []


def test_a_population_objective_must_return_one_value_per_row():
    for wrong in (lambda points: np.zeros(len(points) + 1), lambda points: 0.0, lambda points: np.zeros((len(points), 1))):
        problem = BoundedProblem(objective=wrong, lower=[-1.0], upper=[1.0], budget=10, seed=0)
        with pytest.raises(ValueError, match=r"^the objective returned shape \(.*\) for 5 candidate rows$"):
            sca_optimize(problem, ScaParams(population=5, iterations=1))


def test_oversized_lattice_is_refused_by_resolution_and_dimension():
    for resolution, dimension in ((GRID_EVALUATION_CAP + 1, 1), (3163, 2), (181, 10**5)):
        problem = BoundedProblem(objective=_zero, lower=[-1.0] * dimension, upper=[1.0] * dimension,
                                 budget=1, seed=0)
        with pytest.raises(ValueError) as refused:
            grid_search_oracle(problem, resolution)
        message = str(refused.value)
        assert f"{resolution} points per axis in {dimension} dimensions exceeds the evaluation cap" in message
        assert len(message) < 200
