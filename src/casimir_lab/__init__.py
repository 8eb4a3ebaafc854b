"""Finite-temperature Casimir force modelling and campaign analysis.

The package computes sphere-plane Casimir forces for metallic surfaces under
interchangeable dielectric descriptions, models the electrostatic bias and
patch forces that share the measurement band, simulates seeded measurement
campaigns, and ranks the theory candidates against calibrated force data.
"""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    Measurements,
    ModelCurve,
    MODEL_IDS,
    bin_points,
    discriminate_models,
    fit_patch_and_offset,
    load_measurements,
    log_bin_edges,
    save_measurements,
    standard_model_curves,
)
from .campaign import (
    CampaignConfig,
    CampaignResult,
    generate_campaign,
    load_config,
    save_config,
    subtract_drift,
)
from .constants import (
    BOLTZMANN,
    CONSTANTS_VERSION,
    HBAR,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
    ZETA3,
    ev_to_angular_frequency,
)
from .corrections import (
    corrected_curve,
    corrected_separation,
    fluctuation_corrected_force,
)
from .dielectric import (
    ConstantModel,
    DrudeModel,
    OpticalTable,
    PlasmaModel,
    TabulatedModel,
    eps_imag_axis,
    gold_drude,
    gold_plasma,
    load_optical_table,
)
from .electrostatics import (
    CalibrationResult,
    SweepSample,
    bias_force,
    calibrate_from_sweep,
    load_sweep_csv,
    patch_force,
    save_sweep_csv,
)
from .errors import (
    CalibrationError,
    CasimirLabError,
    ConvergenceError,
    DegenerateFitError,
    PfaValidityWarning,
    RegimeError,
    ValidationError,
)
from .lifshitz import (
    QuadratureSpec,
    ReflectionPair,
    asymptote_thermal,
    force_curvature_sphere_plane,
    force_sphere_plane,
    force_sphere_plane_grid,
    free_energy_per_area,
    pressure_parallel,
    reflection_coeffs,
    reflection_coeffs_zero_mode,
    sensitivity_band,
)

__all__ = [
    "__version__",
    # errors
    "CasimirLabError",
    "ValidationError",
    "ConvergenceError",
    "CalibrationError",
    "DegenerateFitError",
    "RegimeError",
    "PfaValidityWarning",
    # constants
    "BOLTZMANN",
    "HBAR",
    "SPEED_OF_LIGHT",
    "VACUUM_PERMITTIVITY",
    "ZETA3",
    "CONSTANTS_VERSION",
    "ev_to_angular_frequency",
    # dielectric models
    "DrudeModel",
    "PlasmaModel",
    "ConstantModel",
    "TabulatedModel",
    "OpticalTable",
    "eps_imag_axis",
    "gold_drude",
    "gold_plasma",
    "load_optical_table",
    # engine
    "QuadratureSpec",
    "ReflectionPair",
    "reflection_coeffs",
    "reflection_coeffs_zero_mode",
    "free_energy_per_area",
    "pressure_parallel",
    "force_sphere_plane",
    "force_curvature_sphere_plane",
    "force_sphere_plane_grid",
    "asymptote_thermal",
    "sensitivity_band",
    # electrostatics
    "SweepSample",
    "CalibrationResult",
    "bias_force",
    "patch_force",
    "calibrate_from_sweep",
    "load_sweep_csv",
    "save_sweep_csv",
    # corrections
    "fluctuation_corrected_force",
    "corrected_separation",
    "corrected_curve",
    # analysis
    "Measurements",
    "ModelCurve",
    "FitResult",
    "MODEL_IDS",
    "bin_points",
    "log_bin_edges",
    "fit_patch_and_offset",
    "discriminate_models",
    "standard_model_curves",
    "load_measurements",
    "save_measurements",
    # campaign
    "CampaignConfig",
    "CampaignResult",
    "generate_campaign",
    "subtract_drift",
    "load_config",
    "save_config",
]
