"""Deterministic simulator and optimization toolkit for mirror-assisted
indoor visible light communication links.

Covers Lambertian LED-to-photodiode channels with occlusion and random
device orientation, wall first reflections, steerable mirror arrays,
metaheuristic angle optimization, NOMA power allocation, and
intensity-constrained MIMO capacity bounds.
"""

from .channel import (
    LedTx,
    PdRx,
    WallPatchSet,
    incidence_cosine,
    lambertian_index,
    los_gain,
)
from .geometry import (
    ConfigError,
    CylinderSet,
    Room,
)
from .metrics import (
    IntensityConstraints,
    NoiseModel,
    link_rate,
    sum_rate,
)
from .mimo import (
    MimoChannel,
    RegimeError,
    assemble_channel,
    qr_capacity,
)
from .noma import (
    ConstraintCheck,
    NomaAllocation,
    best_two_user_allocation,
    noma_rates,
    order_users,
    tdma_equal_share_rates,
    validate_allocation,
)
from .optimize import (
    AngleSolution,
    BoundedProblem,
    OptResult,
    PsoParams,
    ScaParams,
    grid_search_oracle,
    optimize_mirror_angles,
    pso_optimize,
    random_angle_baseline,
    sca_optimize,
)
from .orientation import (
    DeviceOrientation,
    OrientationModel,
    sample_orientation,
)
from .ris import (
    MirrorArray,
)
from .scenario import (
    BlockerPopulation,
    Scenario,
    StudyStatistics,
    TrialResult,
    UserSpec,
    benchmark_scenario,
    blockage_study,
    blocked_benchmark_scenario,
    load_scenario,
    orientation_benchmark_scenario,
    orientation_study,
    run_study,
    run_trial,
    single_mirror_benchmark_scenario,
    study_statistics,
    wall_first_reflection_gain,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSolution",
    "BlockerPopulation",
    "BoundedProblem",
    "ConfigError",
    "ConstraintCheck",
    "CylinderSet",
    "DeviceOrientation",
    "IntensityConstraints",
    "LedTx",
    "MimoChannel",
    "MirrorArray",
    "NoiseModel",
    "NomaAllocation",
    "OptResult",
    "OrientationModel",
    "PdRx",
    "PsoParams",
    "RegimeError",
    "Room",
    "ScaParams",
    "Scenario",
    "StudyStatistics",
    "TrialResult",
    "UserSpec",
    "WallPatchSet",
    "assemble_channel",
    "benchmark_scenario",
    "best_two_user_allocation",
    "blockage_study",
    "blocked_benchmark_scenario",
    "grid_search_oracle",
    "incidence_cosine",
    "lambertian_index",
    "link_rate",
    "load_scenario",
    "los_gain",
    "noma_rates",
    "optimize_mirror_angles",
    "order_users",
    "orientation_benchmark_scenario",
    "orientation_study",
    "pso_optimize",
    "qr_capacity",
    "random_angle_baseline",
    "run_study",
    "run_trial",
    "sample_orientation",
    "sca_optimize",
    "single_mirror_benchmark_scenario",
    "study_statistics",
    "sum_rate",
    "tdma_equal_share_rates",
    "validate_allocation",
    "wall_first_reflection_gain",
]
