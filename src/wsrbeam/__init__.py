"""Weighted sum-rate precoder design for downlink MU-MIMO under a sum-power
constraint: the exact block-coordinate WMMSE solver, its two-stage
warm-started variant, a first-order accelerated variant, independent
verification oracles, and a reproducible benchmark harness."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateChannelError,
    NumericalError,
    ObjectiveDomainError,
    UnstableParametersError,
    WsrbeamError,
)
from .model import (
    RNG_ALGORITHM,
    ChannelSet,
    PrecoderSet,
    ReceiverSet,
    Stage,
    SystemConfig,
    WeightMatrixSet,
    compute_noise_power,
    generate_channels,
    init_precoders,
)
from .objective import (
    BoundsReport,
    ObjectiveSnapshot,
    compute_bounds,
    gradient_v,
    mse_matrix,
    received,
    update_weight_matrices,
    user_rates,
    weighted_gram,
    weighted_sum_rate,
    wmmse_objective,
)
from .solvers import (
    GAMMA_SAFE,
    Algorithm,
    BlockIterate,
    IterationRecord,
    SolveResult,
    SolverOptions,
    bisect_dual,
    extrapolate,
    pgd_precoder_step,
    project_sum_power,
    solve,
    update_precoders_exact,
    update_receivers,
)
from .verify import (
    OracleReport,
    check_lemma_bounds,
    finite_diff_gradient,
    reference_subproblem_solver,
    single_user_waterfilling,
)
from .harness import (
    ExperimentSpec,
    emit_trace,
    parse_experiment,
    read_trace,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
