"""Photon-number statistics of partially coherent light.

Analytic Fock-basis statistics of a coherent + Gaussian-Schell beam seen
by two photon-number-resolving detectors, a Monte Carlo sampling oracle
that validates every analytic quantity, and a CLI for separation scans.
"""

__version__ = "0.1.0"

from .errors import (
    CertificationError,
    ConfigError,
    DegeneracyError,
    DomainError,
    InsufficientCountsError,
    QgsError,
)
from .fock_stats import (
    FockIndex,
    classical_g2,
    classical_g2_closed,
    joint_pnd,
    rho_element,
    rho_element_quadrature,
    single_mode_pnd,
    wavepacket_g2,
)
from .mc_oracle import SamplerConfig, empirical_g2, empirical_pnd
from .scan import (
    MCSettings,
    config_from_dict,
    config_to_dict,
    default_config,
    default_workers,
    emit,
    fit_g2_zero,
    run_scan,
    validate,
)
from .source_model import (
    BeamProfile,
    TwoPointParams,
    degree_of_coherence,
    mean_cov,
    profile_at,
    two_point_params,
)

__all__ = [
    "__version__",
    "BeamProfile",
    "CertificationError",
    "ConfigError",
    "DegeneracyError",
    "DomainError",
    "FockIndex",
    "InsufficientCountsError",
    "MCSettings",
    "QgsError",
    "SamplerConfig",
    "TwoPointParams",
    "classical_g2",
    "classical_g2_closed",
    "config_from_dict",
    "config_to_dict",
    "default_config",
    "default_workers",
    "degree_of_coherence",
    "emit",
    "empirical_g2",
    "empirical_pnd",
    "fit_g2_zero",
    "joint_pnd",
    "mean_cov",
    "profile_at",
    "rho_element",
    "rho_element_quadrature",
    "run_scan",
    "single_mode_pnd",
    "two_point_params",
    "validate",
    "wavepacket_g2",
]
