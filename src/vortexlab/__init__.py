"""vortexlab: a numerical laboratory for vortex-ring deformation.

Evaluates an analytic expanding-ring parameterization, solves the wave
equations governing the swirl-axis coefficients along each transport
trajectory, scores the alignment between the vortex axis and the swirl axis
(mean absolute directional correlation), and searches the deformation
coefficients with a quasi-Monte-Carlo + refinement optimizer.  A verify
suite certifies the moving-frame identities the wave equations rest on.
"""

__version__ = "0.1.0"

from .geometry import (
    FrenetFrame,
    TrajectoryKinematics,
    ZeroSpeed,
    frame_from_derivatives,
)
from .madc import DimensionMismatch, MadcReport, madc
from .optimizer import (
    CorruptTrialLog,
    DimensionTooLarge,
    FeasibilityCeiling,
    NoFeasibleHistory,
    SearchSpace,
    StudyConfig,
    StudyResult,
    TrialRecord,
    feasibility_ceiling,
    propose_refinements,
    row_feasibility,
    run_study,
    sample_qmc,
)
from .ring_model import (
    CoefficientTensor,
    RingConfig,
    RingPoint,
    deformation_eval,
    kinematics_at,
    phi_eval,
    radius_profile,
    transport_gamma,
)
from .spectral import ModeSpectrum, dominant_mode_count, mode_energies
from .verify import (
    FrameMatrixInput,
    SingularD,
    check_closure_rearrangement,
    check_dinv_expansion,
    check_inverse_matrix,
    check_leibniz_identity,
    run_all_checks,
)
from .wave_dynamics import (
    AlphaState,
    AxisField,
    aligned_initial_state,
    axis_field,
    initial_corr_rate,
    integrate_alpha,
    integrate_wave_system,
    solve_initial_alignment,
)

__all__ = [
    "__version__",
    "FrenetFrame",
    "TrajectoryKinematics",
    "ZeroSpeed",
    "frame_from_derivatives",
    "DimensionMismatch",
    "MadcReport",
    "madc",
    "CorruptTrialLog",
    "DimensionTooLarge",
    "FeasibilityCeiling",
    "NoFeasibleHistory",
    "SearchSpace",
    "StudyConfig",
    "StudyResult",
    "TrialRecord",
    "feasibility_ceiling",
    "propose_refinements",
    "row_feasibility",
    "run_study",
    "sample_qmc",
    "CoefficientTensor",
    "RingConfig",
    "RingPoint",
    "deformation_eval",
    "kinematics_at",
    "phi_eval",
    "radius_profile",
    "transport_gamma",
    "ModeSpectrum",
    "dominant_mode_count",
    "mode_energies",
    "FrameMatrixInput",
    "SingularD",
    "check_closure_rearrangement",
    "check_dinv_expansion",
    "check_inverse_matrix",
    "check_leibniz_identity",
    "run_all_checks",
    "AlphaState",
    "AxisField",
    "aligned_initial_state",
    "axis_field",
    "initial_corr_rate",
    "integrate_alpha",
    "integrate_wave_system",
    "solve_initial_alignment",
]
