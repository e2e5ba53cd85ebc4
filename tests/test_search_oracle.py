"""The one candidate path of the searches against the code it replaced.

`sca_optimize`, `pso_optimize`, `grid_search_oracle` and
`random_angle_baseline` below are the searches as they were before every
candidate went through `optimize._evaluate_population` and one incumbent
rule: each evaluated its candidates and kept its best in its own way, and
the grid walked `np.ndindex` one lattice point at a time. They keep their
per-row loops, calling the rows-in, values-out objective on one row at a
time. The rewrite draws the same random numbers and evaluates the same
candidates in the same order, so the comparisons demand equal bits, not
closeness.
"""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_vlc import metrics, optimize
from ris_vlc.optimize import GRID_EVALUATION_CAP, BoundedProblem, OptResult, PsoParams, ScaParams
from ris_vlc.ris import ANGLE_LIMIT
from ris_vlc.scenario import blocked_benchmark_scenario, single_mirror_benchmark_scenario


def _evaluate_population(problem: BoundedProblem, points: np.ndarray) -> np.ndarray:
    return np.array([float(problem.objective(p[None])[0]) for p in points])


def sca_optimize(problem: BoundedProblem, params: Optional[ScaParams] = None) -> OptResult:
    """Sine-cosine algorithm over the box (maximization).

    Candidates move toward (or oscillate around) the incumbent best via
    x <- x + r1 * sin(r2) * |r3 * best - x| (cosine branch with probability
    1/2), where r1 decays linearly from `SCA_A_INITIAL` to 0 so exploration
    hands over to exploitation. Positions clamp to the bounds.
    """
    params = params or ScaParams()
    rng = np.random.default_rng(problem.seed)
    span = problem.upper - problem.lower
    pop = min(params.population, problem.budget)

    points = problem.lower + rng.uniform(size=(pop, problem.dimension)) * span
    values = _evaluate_population(problem, points)
    used = pop
    best_idx = int(np.argmax(values))
    best_point = points[best_idx].copy()
    best_value = float(values[best_idx])
    trace = [best_value]

    for iteration in range(params.iterations):
        if used + pop > problem.budget:
            break
        r1 = optimize.SCA_A_INITIAL * (1.0 - iteration / params.iterations)
        r2 = rng.uniform(0.0, 2.0 * math.pi, size=points.shape)
        r3 = rng.uniform(0.0, 2.0, size=points.shape)
        r4 = rng.uniform(size=points.shape)
        swing = np.where(r4 < 0.5, np.sin(r2), np.cos(r2))
        points = points + r1 * swing * np.abs(r3 * best_point - points)
        points = np.clip(points, problem.lower, problem.upper)
        values = _evaluate_population(problem, points)
        used += pop
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_point = points[idx].copy()
        trace.append(best_value)

    return OptResult(best_point, best_value, used, np.array(trace))


def pso_optimize(problem: BoundedProblem, params: Optional[PsoParams] = None) -> OptResult:
    """Global-best particle swarm with velocity and position clamping.

    Velocities are clamped to 20% of the box span per coordinate; particles
    leaving the box are clipped onto it with the offending velocity
    component zeroed.
    """
    params = params or PsoParams()
    rng = np.random.default_rng(problem.seed)
    span = problem.upper - problem.lower
    v_max = 0.2 * span
    pop = min(params.population, problem.budget)

    points = problem.lower + rng.uniform(size=(pop, problem.dimension)) * span
    velocity = np.zeros_like(points)
    values = _evaluate_population(problem, points)
    used = pop

    personal_best = points.copy()
    personal_value = values.copy()
    best_idx = int(np.argmax(values))
    best_point = points[best_idx].copy()
    best_value = float(values[best_idx])
    trace = [best_value]

    for _ in range(params.iterations):
        if used + pop > problem.budget:
            break
        r_personal = rng.uniform(size=points.shape)
        r_global = rng.uniform(size=points.shape)
        velocity = (
            optimize.PSO_INERTIA * velocity
            + optimize.PSO_C1 * r_personal * (personal_best - points)
            + optimize.PSO_C2 * r_global * (best_point - points)
        )
        velocity = np.clip(velocity, -v_max, v_max)
        points = points + velocity
        out = (points < problem.lower) | (points > problem.upper)
        points = np.clip(points, problem.lower, problem.upper)
        velocity = np.where(out, 0.0, velocity)

        values = _evaluate_population(problem, points)
        used += pop
        improved = values > personal_value
        personal_best = np.where(improved[:, None], points, personal_best)
        personal_value = np.where(improved, values, personal_value)
        idx = int(np.argmax(personal_value))
        if personal_value[idx] > best_value:
            best_value = float(personal_value[idx])
            best_point = personal_best[idx].copy()
        trace.append(best_value)

    return OptResult(best_point, best_value, used, np.array(trace))


def grid_search_oracle(problem: BoundedProblem, resolution_per_dim: int) -> OptResult:
    """Exhaustive lattice search including both bound endpoints.

    Ties break toward the lowest lattice index (row-major scan order), so
    the result is deterministic. Intended as an independent oracle for
    low-dimensional problems; refuses lattices above the evaluation cap.
    """
    if resolution_per_dim < 2:
        raise ValueError("grid resolution must be at least 2 points per dimension")
    total = resolution_per_dim**problem.dimension
    if total > GRID_EVALUATION_CAP:
        raise ValueError(
            f"grid of {total} points exceeds the evaluation cap {GRID_EVALUATION_CAP}"
        )
    axes = [
        np.linspace(problem.lower[i], problem.upper[i], resolution_per_dim)
        for i in range(problem.dimension)
    ]
    best_point = None
    best_value = -math.inf
    for index in np.ndindex(*([resolution_per_dim] * problem.dimension)):
        point = np.array([axes[i][index[i]] for i in range(problem.dimension)])
        value = float(problem.objective(point[None])[0])
        if value > best_value:
            best_value = value
            best_point = point
    return OptResult(best_point, best_value, total, np.array([best_value]))


def random_angle_baseline(scenario, seed: int) -> float:
    """Sum rate at one identical-angle pair drawn uniformly from the feasible box.

    The paired baseline for reporting optimizer gains: same seed, same
    feasible region, no search.
    """
    yaw, roll = np.random.default_rng(seed).uniform(-ANGLE_LIMIT, ANGLE_LIMIT, size=2)
    return metrics.sum_rate(scenario, [(float(yaw), float(roll))] * len(scenario.ris_panels))


# ----------------------------------------------------------------- strategies


@st.composite
def _boxes(draw):
    """A 1-3-D box with sides from 0.1 to 5."""
    dim = draw(st.integers(1, 3))
    lower = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    width = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    return lower, lower + width


@st.composite
def _objectives(draw, dim):
    """A smooth bowl, the bowl rounded into plateaus, a staircase, or a constant: the last three tie."""
    center = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim)))
    kind = draw(st.sampled_from(("bowl", "plateau", "stairs", "flat")))
    digits = draw(st.integers(-1, 2))
    steps = draw(st.floats(0.5, 4.0))

    def bowl(x):
        return -float(np.sum((x - center) ** 2))

    return {
        "bowl": bowl,
        "plateau": lambda x: round(bowl(x), digits),
        "stairs": lambda x: float(np.floor(steps * np.sum(x))),
        "flat": lambda x: 0.0,
    }[kind]


class _Recorder:
    """A one-row objective applied to each row of a population, plus every row it saw, in call order."""

    def __init__(self, objective):
        self.objective, self.calls = objective, []

    def __call__(self, points):
        self.calls.extend(np.array(x, copy=True) for x in points)
        return [self.objective(x) for x in points]


def _run_both(new, old, objective, box, budget, seed, *args):
    """Run the new and the old search on one problem each; return both results and candidate lists."""
    runs = []
    for search in (new, old):
        recorder = _Recorder(objective)
        problem = BoundedProblem(objective=recorder, lower=box[0], upper=box[1], budget=budget, seed=seed)
        runs.append((search(problem, *args), recorder.calls))
    return runs


def _assert_same(runs):
    (got, got_calls), (want, want_calls) = runs
    assert np.array_equal(got.best_point, want.best_point) and got.best_point.dtype == want.best_point.dtype
    assert got.best_value == want.best_value
    assert got.evaluations_used == want.evaluations_used == len(got_calls)
    assert np.array_equal(got.trace, want.trace) and got.trace.dtype == want.trace.dtype
    assert len(got_calls) == len(want_calls)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got_calls, want_calls))


def _budget(data, population, iterations):
    """Anything from one evaluation to a few past a full run, so the budget often binds mid-run."""
    return data.draw(st.integers(1, population * (iterations + 1) + 3), label="budget")


# ------------------------------------------------------- differential tests


@settings(max_examples=200, deadline=None)
@given(st.data(), _boxes(), st.integers(1, 12), st.integers(0, 15), st.integers(0, 2**32 - 1))
def test_sca_matches_pre_change_code(data, box, population, iterations, seed):
    objective = data.draw(_objectives(len(box[0])), label="objective")
    params = ScaParams(population=population, iterations=iterations)
    budget = _budget(data, population, iterations)
    _assert_same(_run_both(optimize.sca_optimize, sca_optimize, objective, box, budget, seed, params))


@settings(max_examples=200, deadline=None)
@given(st.data(), _boxes(), st.integers(1, 12), st.integers(0, 15), st.integers(0, 2**32 - 1))
def test_pso_matches_pre_change_code(data, box, population, iterations, seed):
    objective = data.draw(_objectives(len(box[0])), label="objective")
    params = PsoParams(population=population, iterations=iterations)
    budget = _budget(data, population, iterations)
    _assert_same(_run_both(optimize.pso_optimize, pso_optimize, objective, box, budget, seed, params))


@settings(max_examples=150, deadline=None)
@given(st.data(), _boxes(), st.sampled_from((1, 2, 7, 64, optimize._GRID_BLOCK)))
def test_grid_matches_pre_change_code_across_blocks(data, box, block):
    dim = len(box[0])
    resolution = data.draw(st.integers(2, {1: 300, 2: 40, 3: 14}[dim]), label="resolution")
    objective = data.draw(_objectives(dim), label="objective")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(optimize, "_GRID_BLOCK", block)
        runs = _run_both(optimize.grid_search_oracle, grid_search_oracle, objective, box, 1, 0, resolution)
    _assert_same(runs)


_SCENARIOS = {"single": single_mirror_benchmark_scenario(), "blocked": blocked_benchmark_scenario()}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("single", "blocked")), st.integers(0, 2**32 - 1))
def test_random_baseline_matches_pre_change_code(deployment, seed):
    scenario = _SCENARIOS[deployment]
    got = optimize.random_angle_baseline(scenario, seed)
    assert type(got) is float and got == random_angle_baseline(scenario, seed)

