"""drivegen: deterministic driving-scenario simulation and data generation.

Pipeline: synthesize or load scenarios, perturb the ego with vocabulary
maneuvers, roll out a reactive environment, generate pseudo-expert
demonstrations, filter by closed-loop metrics, and export labeled samples.
A companion fitter analyzes how performance scales with data size.
"""

__version__ = "0.1.0"

from .scenario import (  # noqa: F401
    AgentTrack,
    Lane,
    MapModel,
    Pose2D,
    Scenario,
    TrafficLight,
    Trajectory,
    VehicleState,
    load_scenario,
    validate_scenario,
    write_scenario,
)
from .synth import CorpusConfig, corpus_config_for_count, generate_synthetic_corpus  # noqa: F401
from .control import ControlInput, LqrParams, VehicleLimits, bicycle_step, lqr_track  # noqa: F401
from .reactive import IdmParams, idm_accel, rollout  # noqa: F401
from .metrics import (  # noqa: F401
    MetricThresholds,
    MetricWeights,
    RewardRecord,
    SimContext,
    SubMetricVector,
    aggregate_epdms,
    check_collision,
    compute_submetrics,
    time_to_collision,
)
from .vocab import (  # noqa: F401
    GridSpec,
    PerturbThresholds,
    PerturbationCandidate,
    Vocabulary,
    build_vocabulary,
    enumerate_perturbations,
    feasibility_filter,
    grid_sparsify,
)
from .expert import (  # noqa: F401
    ExpertFilterSpec,
    PlannerParams,
    expert_filter,
    privileged_plan,
    recovery_retrieve,
)
from .config import PipelineConfig, config_hash, load_config, save_config  # noqa: F401
from .pipeline import (  # noqa: F401
    RoundStats,
    SimSample,
    export_dataset,
    run_generation,
    sensor_stub,
)
from .scaling import FitResult, ScalingPoint, compare_fits, emit_curve, fit_log_quadratic  # noqa: F401
