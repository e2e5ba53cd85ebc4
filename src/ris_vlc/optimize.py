"""Bounded continuous optimizers for mirror-angle tuning.

The mirror objective (network sum rate as a function of yaw/roll angles) is
nonconvex with plateaus where no element illuminates any user, so the
toolkit relies on population metaheuristics: the sine-cosine algorithm and
global-best particle swarm, both maximizing over a box. A brute-force grid
oracle covers low-dimensional problems and serves as an independent
reference for the metaheuristics. All three are deterministic given the
problem seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import metrics
from .ris import ANGLE_LIMIT

GRID_EVALUATION_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class BoundedProblem:
    """Box-constrained maximization problem with an evaluation budget."""

    objective: Callable[[np.ndarray], float]
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
        if self.budget <= 0:
            raise ValueError("evaluation budget must be positive")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True, eq=False)
class OptResult:
    """Best point/value found, evaluations spent, and per-iteration best trace."""

    best_point: np.ndarray
    best_value: float
    evaluations_used: int
    trace: np.ndarray


@dataclass(frozen=True)
class ScaParams:
    population: int = 30
    iterations: int = 500
    a_initial: float = 2.0


@dataclass(frozen=True)
class PsoParams:
    population: int = 30
    iterations: int = 500
    inertia: float = 0.729
    c1: float = 1.494
    c2: float = 1.494


def _evaluate_population(problem: BoundedProblem, points: np.ndarray) -> np.ndarray:
    return np.array([float(problem.objective(p)) for p in points])


def sca_optimize(problem: BoundedProblem, params: Optional[ScaParams] = None) -> OptResult:
    """Sine-cosine algorithm over the box (maximization).

    Candidates move toward (or oscillate around) the incumbent best via
    x <- x + r1 * sin(r2) * |r3 * best - x| (cosine branch with probability
    1/2), where r1 decays linearly from `a_initial` to 0 so exploration
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
        r1 = params.a_initial * (1.0 - iteration / params.iterations)
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
            params.inertia * velocity
            + params.c1 * r_personal * (personal_best - points)
            + params.c2 * r_global * (best_point - points)
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
        value = float(problem.objective(point))
        if value > best_value:
            best_value = value
            best_point = point
    return OptResult(best_point, best_value, total, np.array([best_value]))


_ALGORITHMS = ("sca", "pso", "grid")
_MODES = {
    "identical": "identical",
    "identical_angles": "identical",
    "per-element": "per_element",
    "per_element": "per_element",
}


@dataclass(frozen=True, eq=False)
class AngleSolution:
    """Optimized angle matrices per panel plus the achieved sum rate."""

    yaw: Tuple[np.ndarray, ...]
    roll: Tuple[np.ndarray, ...]
    sum_rate: float
    result: OptResult


def _angles_from_vector(scenario, x: np.ndarray, mode: str) -> list:
    panels = scenario.ris_panels
    if mode == "identical":
        return [(float(x[0]), float(x[1]))] * len(panels)
    pairs = []
    offset = 0
    for panel in panels:
        n = panel.element_count
        yaw = x[offset : offset + n].reshape(panel.rows, panel.cols)
        roll = x[offset + n : offset + 2 * n].reshape(panel.rows, panel.cols)
        pairs.append((yaw, roll))
        offset += 2 * n
    return pairs


def optimize_mirror_angles(
    scenario,
    algorithm: str = "sca",
    mode: str = "identical",
    seed: int = 42,
    sca_params: Optional[ScaParams] = None,
    pso_params: Optional[PsoParams] = None,
    grid_resolution: int = 181,
) -> AngleSolution:
    """Tune mirror yaw/roll matrices to maximize the scenario sum rate.

    `identical` mode drives every element of every panel with one shared
    (yaw, roll) pair, collapsing the search to two variables; `per_element`
    optimizes all 2N angles jointly. Returned matrices are feasible by
    construction and the reported rate is recomputed from them.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {sorted(_ALGORITHMS)}")
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(set(_MODES.values()))}")
    mode = _MODES[mode]
    panels = scenario.ris_panels
    if not panels:
        raise ValueError("scenario has no mirror panels to optimize")

    if mode == "identical":
        dim = 2
    else:
        dim = 2 * sum(panel.element_count for panel in panels)

    def objective(x: np.ndarray) -> float:
        return metrics.sum_rate(scenario, _angles_from_vector(scenario, x, mode))

    sca = sca_params or ScaParams()
    pso = pso_params or PsoParams()
    if algorithm == "sca":
        budget = sca.population * (sca.iterations + 1)
    elif algorithm == "pso":
        budget = pso.population * (pso.iterations + 1)
    else:
        budget = grid_resolution**dim
    problem = BoundedProblem(
        objective=objective,
        lower=np.full(dim, -ANGLE_LIMIT),
        upper=np.full(dim, ANGLE_LIMIT),
        budget=budget,
        seed=seed,
    )

    if algorithm == "sca":
        result = sca_optimize(problem, sca)
    elif algorithm == "pso":
        result = pso_optimize(problem, pso)
    else:
        result = grid_search_oracle(problem, grid_resolution)

    pairs = _angles_from_vector(scenario, result.best_point, mode)
    yaw_matrices = []
    roll_matrices = []
    for panel, (yaw, roll) in zip(panels, pairs):
        tuned = panel.with_angles(yaw, roll)
        yaw_matrices.append(tuned.yaw)
        roll_matrices.append(tuned.roll)
    achieved = metrics.sum_rate(scenario, pairs)
    return AngleSolution(tuple(yaw_matrices), tuple(roll_matrices), achieved, result)


def random_angle_baseline(scenario, seed: int, draws: int = 1) -> float:
    """Sum rate at identical-angle pairs drawn uniformly from the feasible box.

    The paired baseline for reporting optimizer gains: same seed, same
    feasible region, no search. With `draws` > 1 the best draw is kept.
    """
    rng = np.random.default_rng(seed)
    if draws < 1:
        raise ValueError("draws must be at least 1")
    best = -math.inf
    for _ in range(draws):
        yaw, roll = rng.uniform(-ANGLE_LIMIT, ANGLE_LIMIT, size=2)
        pairs = [(float(yaw), float(roll))] * len(scenario.ris_panels)
        best = max(best, metrics.sum_rate(scenario, pairs))
    return best
