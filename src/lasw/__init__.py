"""Pseudospectral solver and operator-estimate probes for nonlocal
shallow-water wave models on the unit circle."""

from .errors import (
    ConfigInvalid,
    ConfigSyntax,
    GammaRelationViolated,
    GridMismatch,
    InvalidControls,
    InvalidExponents,
    InvalidField,
    InvalidKernel,
    InvalidMu,
    InvalidProbeInput,
    InvalidRegime,
    IoError,
    LaswError,
    ProbeUnresolved,
)
from .spectral import (
    Grid,
    SpectralField,
    constant,
    dealiased_product,
    derivative,
    from_physical,
    l2_norm,
    lambda_pow,
    mean,
    mollify,
    random_trig_polynomial,
    resample,
    sobolev_norm,
    spectral_tail,
    sup_norm,
    sup_norm_dx,
    to_physical,
    zeros,
)
from .models import (
    ModelCoefficients,
    RegimeParameters,
    flux,
    preset_large_amplitude,
    preset_normalized,
    preset_survey,
    semilinear_term,
    tendency,
    tendency_direct,
    time_reversed,
    transport_field,
    validate,
)
from .evolve import (
    BlowupDecision,
    BlowupThresholds,
    DiagnosticsRecord,
    IntegrationControls,
    IntegrationResult,
    RunStatus,
    SimulationState,
    detect_blowup,
    diagnose,
    integrate,
    step_rk4,
)
from .probes import (
    ProbeReport,
    commutator_probe,
    continuous_dependence_experiment,
    convergence_study,
    dispersion_probe,
    mollified_data_experiment,
    phase_speed,
    product_probe,
    semigroup_probe,
)
from .config import RunConfig, build_coefficients, build_initial_field, load_config

__version__ = "0.1.0"
