"""Spectral laboratory for the gauged periodic mKdV system.

Sequence-space conventions throughout: fields live on [0, 2*pi) with the
e^{ikx} basis, mode vectors are ascending k = -K..K, and Sobolev norms are
plain weighted l2 sums without 2*pi factors.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DenominatorError,
    FieldError,
    GridMismatchError,
    InstabilityError,
    PhaseWindowWarning,
    StepSizeWarning,
    TimeHorizonWarning,
)
from .gauge import (
    PhaseSolveReport,
    PhaseTable,
    check_phase_oddness,
    gauge_compose,
    gauge_decompose,
    modulated_profile,
    modulation_rate_report,
    phase_from_obj,
    phase_from_trajectory,
    phase_to_obj,
    solve_phase,
)
from .nonlinearity import (
    DENOMINATOR_FLOOR,
    conserved_functionals,
    denominator_correction,
    direct_nonlinearity,
    galilean_speed,
    kernel_product_minimum,
    nr_framewise,
    nr_split_by_frequency,
    nr_trilinear,
    nr_trilinear_fast,
    nr_trilinear_naive,
    resonance_identity_residual,
    resonant_term,
    select_frequency_cutoff,
    trilinear_quotient_form,
)
from .norms import (
    NormProxyConfig,
    phase_rates,
    window_weights,
    x_space_norm,
    xinfty_hs_norm,
    ysb_norm_proxy,
)
from .picard import (
    PicardConfig,
    PicardIterate,
    PicardReport,
    duhamel_integrate,
    picard_rhs,
    picard_solve,
    picard_step,
    reconstruct_solution,
    strong_form_residual,
)
from .probes import (
    DEGENERATE_FLOOR,
    EnsembleSpec,
    ProbeReport,
    SmoothingReport,
    duhamel_smoothing_ratio,
    free_modulated_trajectory,
    gauged_remainder_residual,
    modulus_gap_metric,
    probe_duhamel_smoothing,
    probe_quotient_form,
    probe_trilinear_bourgain,
    quotient_form_ratio,
    smoothing_report,
    trilinear_bourgain_ratio,
)
from .reference import (
    CONSERVED_COLUMNS,
    ETDConfig,
    airy_exact,
    compare_trajectories,
    conserved_series,
    reflect_field,
    solve_reference,
)
from .spectral import (
    REAL_SYMMETRY_TOL,
    FourierField,
    GridSpec,
    SobolevIndex,
    Trajectory,
    bracket_sq,
    check_real_symmetry,
    cosine_field,
    cumulative_trapezoid,
    field_from_modes,
    field_from_obj,
    field_from_samples,
    field_to_obj,
    half_spectrum,
    hs_norms,
    mirrored,
    random_real_field,
    resize_field,
    sobolev_norm,
    spatial_derivative,
    to_real_samples,
    to_samples,
    trajectory_from_obj,
    trajectory_to_obj,
    write_frames_json,
)
from .version import VERSION

__version__ = VERSION

# Aliases under the variable names of the underlying system: z is the gauged
# remainder, u the reconstructed solution, Q the phase.
solve_z = picard_solve
reconstruct_u = reconstruct_solution
solve_Q = solve_phase
