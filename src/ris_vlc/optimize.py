"""Bounded continuous optimizers for mirror-angle tuning.

The mirror objective (network sum rate as a function of yaw/roll angles) is
nonconvex with plateaus where no element illuminates any user, so the
toolkit relies on population metaheuristics: the sine-cosine algorithm and
global-best particle swarm, both maximizing over a box. A brute-force grid
oracle covers low-dimensional problems and serves as an independent
reference for the metaheuristics. All three are deterministic given the
problem seed.

Every candidate takes one path. `_evaluate_population` alone calls the
objective, once per SCA or PSO population, grid block (row-major lattice
blocks of `_GRID_BLOCK` points) and random baseline, with candidate rows in
and one value per row out. `_keep_best` is the one incumbent rule: the first
maximum of a population replaces the incumbent only when strictly greater.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import metrics
from .ris import ANGLE_LIMIT

GRID_EVALUATION_CAP = 10_000_000
_GRID_BLOCK = 65_536  # lattice points per population call of the grid oracle
SCA_A_INITIAL = 2.0  # SCA's step scale r1 decays linearly from this to 0
PSO_INERTIA, PSO_C1, PSO_C2 = 0.729, 1.494, 1.494  # PSO's velocity memory and personal/global pulls


@dataclass(frozen=True, eq=False)
class BoundedProblem:
    """Box-constrained maximization with an evaluation budget; `objective` maps (P, dimension) rows to P values."""

    objective: Callable[[np.ndarray], Sequence[float]]
    lower: np.ndarray
    upper: np.ndarray
    budget: int
    seed: int = 0

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if not (isinstance(self.budget, numbers.Integral) and self.budget >= 1):
            raise ValueError(f"evaluation budget must be a positive integer, got {self.budget!r}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best point found, evaluations spent, and the per-iteration best value: its last entry is the best value."""

    best_point: np.ndarray
    evaluations_used: int
    trace: np.ndarray


@dataclass(frozen=True)
class SearchParams:
    """Population size and iteration count of an SCA or PSO search."""

    population: int = 30
    iterations: int = 500

    def __post_init__(self):
        for name, floor in (("population", 1), ("iterations", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= floor):
                raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")


ScaParams = PsoParams = SearchParams  # the names callers build it by, one per search


def _evaluate_population(objective: Callable[[np.ndarray], Sequence[float]], points: np.ndarray) -> np.ndarray:
    """Objective value of each candidate row, from one call on the whole population; NaN is refused."""
    values = np.array(objective(points), dtype=float)
    if values.shape != (len(points),):
        raise ValueError(f"the objective returned shape {values.shape} for {len(points)} candidate rows")
    if np.isnan(values).any():
        raise ValueError(f"the objective returned NaN at {points[np.isnan(values)][0]}")
    return values


def _keep_best(incumbent, points: np.ndarray, values: np.ndarray):
    """The (point, value) incumbent after a population: its first maximum, if strictly greater."""
    idx = int(np.argmax(values))
    if incumbent is None or values[idx] > incumbent[1]:
        return points[idx].copy(), float(values[idx])
    return incumbent


def _first_population(problem: BoundedProblem, population: int):
    """Seeded generator, uniform first population (capped by the budget), its values and best."""
    rng = np.random.default_rng(problem.seed)
    span = problem.upper - problem.lower
    points = problem.lower + rng.uniform(size=(min(population, problem.budget), problem.dimension)) * span
    values = _evaluate_population(problem.objective, points)
    return rng, points, values, _keep_best(None, points, values)


def sca_optimize(problem: BoundedProblem, params: SearchParams) -> OptResult:
    """Sine-cosine algorithm over the box (maximization).

    Candidates move toward (or oscillate around) the incumbent best via
    x <- x + r1 * sin(r2) * |r3 * best - x| (cosine branch with probability
    1/2), where r1 decays linearly from `SCA_A_INITIAL` to 0 so exploration
    hands over to exploitation. Positions clamp to the bounds.
    """
    rng, points, _, best = _first_population(problem, params.population)
    trace = [best[1]]
    for iteration in range(min(params.iterations, problem.budget // len(points) - 1)):
        r1 = SCA_A_INITIAL * (1.0 - iteration / params.iterations)
        r2 = rng.uniform(0.0, 2.0 * math.pi, size=points.shape)
        r3 = rng.uniform(0.0, 2.0, size=points.shape)
        r4 = rng.uniform(size=points.shape)
        swing = np.where(r4 < 0.5, np.sin(r2), np.cos(r2))
        points = points + r1 * swing * np.abs(r3 * best[0] - points)
        points = np.clip(points, problem.lower, problem.upper)
        best = _keep_best(best, points, _evaluate_population(problem.objective, points))
        trace.append(best[1])
    return OptResult(best[0], len(points) * len(trace), np.array(trace))


def pso_optimize(problem: BoundedProblem, params: SearchParams) -> OptResult:
    """Global-best particle swarm with velocity and position clamping.

    Velocities are clamped to 20% of the box span per coordinate; particles
    leaving the box are clipped onto it with the offending velocity
    component zeroed.
    """
    v_max = 0.2 * (problem.upper - problem.lower)
    rng, points, personal_value, best = _first_population(problem, params.population)
    velocity = np.zeros_like(points)
    personal_best = points.copy()
    trace = [best[1]]
    for _ in range(min(params.iterations, problem.budget // len(points) - 1)):
        r_personal = rng.uniform(size=points.shape)
        r_global = rng.uniform(size=points.shape)
        velocity = (
            PSO_INERTIA * velocity
            + PSO_C1 * r_personal * (personal_best - points)
            + PSO_C2 * r_global * (best[0] - points)
        )
        velocity = np.clip(velocity, -v_max, v_max)
        points = points + velocity
        out = (points < problem.lower) | (points > problem.upper)
        points = np.clip(points, problem.lower, problem.upper)
        velocity = np.where(out, 0.0, velocity)

        values = _evaluate_population(problem.objective, points)
        improved = values > personal_value
        personal_best = np.where(improved[:, None], points, personal_best)
        personal_value = np.where(improved, values, personal_value)
        best = _keep_best(best, personal_best, personal_value)
        trace.append(best[1])
    return OptResult(best[0], len(points) * len(trace), np.array(trace))


def grid_search_oracle(problem: BoundedProblem, resolution_per_dim: int) -> OptResult:
    """Exhaustive lattice search including both bound endpoints.

    Ties break toward the lowest lattice index (row-major scan order), so
    the result is deterministic. Intended as an independent oracle for
    low-dimensional problems; refuses lattices above the evaluation cap.
    """
    if resolution_per_dim < 2:
        raise ValueError("grid resolution must be at least 2 points per dimension")
    lattice = (resolution_per_dim,) * problem.dimension
    total = 1
    for size in lattice:  # checked per axis: the full power of a large lattice runs to hundreds of digits
        total *= size
        if total > GRID_EVALUATION_CAP:
            raise ValueError(f"a grid of {size} points per axis in {problem.dimension} dimensions"
                             f" exceeds the evaluation cap {GRID_EVALUATION_CAP}")
    axes = np.linspace(problem.lower, problem.upper, resolution_per_dim)  # one column per dimension
    best = None
    for start in range(0, total, _GRID_BLOCK):
        index = np.unravel_index(np.arange(start, min(start + _GRID_BLOCK, total)), lattice)
        points = axes[np.stack(index, axis=1), np.arange(problem.dimension)]
        best = _keep_best(best, points, _evaluate_population(problem.objective, points))
    return OptResult(best[0], total, np.array([best[1]]))


_SEARCHES = {"sca": sca_optimize, "pso": pso_optimize, "grid": grid_search_oracle}
_MODES = ("identical", "per-element")


@dataclass(frozen=True, eq=False)
class AngleSolution:
    """Optimized angle matrices per panel plus the achieved sum rate."""

    yaw: Tuple[np.ndarray, ...]
    roll: Tuple[np.ndarray, ...]
    sum_rate: float
    result: OptResult


def _angles_from_population(panels, points: np.ndarray, mode: str) -> list:
    """Per panel the (yaw, roll) population of the rows: (P,) shared columns, or (P, rows, cols) matrices."""
    if mode == "identical":
        return [(points[:, 0], points[:, 1])] * len(panels)
    pairs, offset = [], 0
    for panel in panels:
        n, shape = panel.element_count, (len(points), panel.rows, panel.cols)
        pairs.append((points[:, offset:offset + n].reshape(shape), points[:, offset + n:offset + 2 * n].reshape(shape)))
        offset += 2 * n
    return pairs


def _sum_rate_objective(scenario, mode: str) -> Callable[[np.ndarray], list]:
    """Scenario sum rate of each angle row: one shared (yaw, roll), or every element's yaws then rolls."""

    def objective(points: np.ndarray) -> list:
        chunks = scenario.evaluate_population(_angles_from_population(scenario.ris_panels, points, mode), len(points))
        return [rate for chunk in chunks for rate in chunk.sum_rate]

    return objective


def optimize_mirror_angles(
    scenario,
    algorithm: str = "sca",
    mode: str = "identical",
    seed: int = 42,
    sca_params: Optional[SearchParams] = None,
    pso_params: Optional[SearchParams] = None,
    grid_resolution: int = 181,
) -> AngleSolution:
    """Tune mirror yaw/roll matrices to maximize the scenario sum rate.

    `identical` mode drives every element of every panel with one shared
    (yaw, roll) pair, collapsing the search to two variables; `per-element`
    optimizes all 2N angles jointly. Returned matrices are feasible by
    construction and the reported rate is recomputed from them.
    """
    if algorithm not in _SEARCHES:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(_SEARCHES)}")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {list(_MODES)}")
    panels = scenario.ris_panels
    if not panels:
        raise ValueError("scenario has no mirror panels to optimize")

    dim = 2 if mode == "identical" else 2 * sum(panel.element_count for panel in panels)
    if algorithm == "grid":
        params, budget = grid_resolution, GRID_EVALUATION_CAP  # the grid refuses a larger lattice itself
    else:
        params = (sca_params if algorithm == "sca" else pso_params) or SearchParams()
        budget = params.population * (params.iterations + 1)
    box = np.full(dim, ANGLE_LIMIT)
    problem = BoundedProblem(_sum_rate_objective(scenario, mode), -box, box, budget, seed)
    result = _SEARCHES[algorithm](problem, params)

    pairs = [(yaw[0], roll[0]) for yaw, roll in _angles_from_population(panels, result.best_point[None], mode)]
    tuned = [panel.with_angles(yaw, roll) for panel, (yaw, roll) in zip(panels, pairs)]
    achieved = metrics.sum_rate(scenario, pairs)
    return AngleSolution(tuple(t.yaw for t in tuned), tuple(t.roll for t in tuned), achieved, result)


def random_angle_baseline(scenario, seed: int) -> float:
    """Sum rate at one identical-angle pair drawn uniformly from the feasible box.

    The paired baseline for reporting optimizer gains: same seed, same
    feasible region, no search.
    """
    pairs = np.random.default_rng(seed).uniform(-ANGLE_LIMIT, ANGLE_LIMIT, size=(1, 2))
    return float(_evaluate_population(_sum_rate_objective(scenario, "identical"), pairs)[0])
