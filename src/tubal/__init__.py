"""Low-tubal-rank tensor recovery toolkit.

t-product algebra and t-SVD for third-order tensors, Gaussian linear
measurement, an ADMM solver for regularized tensor-nuclear-norm
recovery, restricted-isometry analysis of the recovery guarantees, and
a reproducible benchmark harness.
"""

from .algebra import (
    TsvdFactors,
    as_tensor3,
    average_rank,
    bcirc,
    complement_indices,
    conj_transpose,
    fold,
    fro_norm,
    identity_tensor,
    is_fdiagonal,
    is_orthogonal,
    restrict,
    tnn,
    tprod,
    truncate,
    tsvd,
    tubal_rank,
    unfold,
)
from .analysis import (
    RipConditionError,
    RipEstimate,
    estimate_ric,
    guarantee_constants,
    ric_threshold,
    verify_bounds,
)
from .bench import (
    ExperimentResult,
    ExperimentSpec,
    SpecValidationError,
    case1_spec,
    check_guarantee,
    emit,
    emit_campaign,
    generate_lowrank,
    run_experiment,
    run_rip_campaign,
)
from .measurement import (
    GaussianLinearMap,
    NoisySample,
    add_noise,
    apply,
    gaussian_map,
    snr_db,
    unvec,
    vec,
)
from .solver import (
    NumericalError,
    SolveResult,
    SolverConfig,
    admm_solve,
    prox_optimality_check,
    tsvt,
)

__version__ = "0.1.0"
