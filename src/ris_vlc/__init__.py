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
    wall_first_reflection_gain,
)
from .geometry import (
    CylinderSet,
    Room,
    WallRect,
)
from .metrics import (
    IntensityConstraints,
    NoiseModel,
    SecrecyScenario,
    link_rate,
    secrecy_rate,
    sum_rate,
)
from .mimo import (
    ConstraintCheck,
    MimoChannel,
    RegimeError,
    assemble_channel,
    check_intensity_constraints,
    parallel_capacity,
    qr_capacity,
)
from .noma import (
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
    LcReceiverConfig,
    MirrorArray,
    apply_lc_receiver_gain,
)
from .scenario import (
    BlockerPopulation,
    ConfigError,
    LinkEvaluation,
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
    "LcReceiverConfig",
    "LedTx",
    "LinkEvaluation",
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
    "SecrecyScenario",
    "StudyStatistics",
    "TrialResult",
    "UserSpec",
    "WallPatchSet",
    "WallRect",
    "apply_lc_receiver_gain",
    "assemble_channel",
    "benchmark_scenario",
    "best_two_user_allocation",
    "blockage_study",
    "blocked_benchmark_scenario",
    "check_intensity_constraints",
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
    "parallel_capacity",
    "pso_optimize",
    "qr_capacity",
    "random_angle_baseline",
    "run_study",
    "run_trial",
    "sample_orientation",
    "sca_optimize",
    "secrecy_rate",
    "single_mirror_benchmark_scenario",
    "study_statistics",
    "sum_rate",
    "tdma_equal_share_rates",
    "validate_allocation",
    "wall_first_reflection_gain",
]
