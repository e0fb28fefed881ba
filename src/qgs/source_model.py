"""Two-point Gaussian statistics of a coherent + Gaussian-Schell beam.

A beam is a statistically independent superposition of a coherent field
and a thermal (Gaussian-Schell) field, both with Gaussian transverse
profiles.  Reducing it to two detector positions leaves five numbers:
the mean thermal photon numbers n1, n2, the degree of coherence g, and
the coherent amplitudes mu1, mu2, which fix the complex Gaussian law of
the field amplitudes (alpha, beta) at the two points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError

# g values above 1 - DEGENERACY_TOL are treated as the exact g = 1 limit,
# where the covariance is singular and no density exists.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class BeamProfile:
    """Source description: peak values and Gaussian widths.

    n_peak   : peak mean thermal photon number per detection mode
    mu_peak  : peak coherent amplitude (complex; constant phase across the beam)
    sigma0   : envelope width parameter (length squared)
    sigma1   : coherence width parameter (length squared)

    profile_at scales the thermal intensity n and the coherent amplitude mu
    by the same envelope exp(-s^2 / sigma0).  The thermal intensity thus
    falls as exp(-s^2 / sigma0) but the coherent intensity |mu|^2 as
    exp(-2 s^2 / sigma0): sigma0 is the width of the thermal intensity
    profile only.  n_peak and mu_peak must be finite.
    """

    n_peak: float
    mu_peak: complex
    sigma0: float
    sigma1: float

    def __post_init__(self) -> None:
        if not (0 < self.n_peak < math.inf):
            raise DomainError(f"n_peak must be positive and finite, got {self.n_peak}")
        if not cmath.isfinite(self.mu_peak):
            raise DomainError(f"mu_peak must be finite, got {self.mu_peak}")
        if not (self.sigma0 > 0 and self.sigma1 > 0):
            raise DomainError("sigma0 and sigma1 must be positive")


@dataclass(frozen=True)
class TwoPointParams:
    """Reduced two-detector description (n1, n2, g, mu1, mu2)."""

    n1: float
    n2: float
    g: float
    mu1: complex
    mu2: complex

    def __post_init__(self) -> None:
        if not (self.n1 > 0 and self.n2 > 0):
            raise DomainError("mean photon numbers must be positive")
        if not (0.0 <= self.g <= 1.0):
            raise DomainError(f"degree of coherence must lie in [0, 1], got {self.g}")

    @property
    def is_degenerate(self) -> bool:
        """True when g is at (or within tolerance of) the singular g = 1 limit."""
        return self.g >= 1.0 - DEGENERACY_TOL


def profile_at(profile: BeamProfile, s: float):
    """Mean photon number and coherent amplitude at transverse position s."""
    envelope = math.exp(-s * s / profile.sigma0)
    return profile.n_peak * envelope, profile.mu_peak * envelope


def degree_of_coherence(profile: BeamProfile, s1: float, s2: float) -> float:
    """Normalized spatial correlation between two points; 1 at s1 = s2."""
    d = s1 - s2
    return math.exp(-d * d / profile.sigma1)


def two_point_params(profile: BeamProfile, s1: float, s2: float) -> TwoPointParams:
    """Reduce a beam profile to its two-detector parameters."""
    n1, mu1 = profile_at(profile, s1)
    n2, mu2 = profile_at(profile, s2)
    return TwoPointParams(n1=n1, n2=n2, g=degree_of_coherence(profile, s1, s2), mu1=mu1, mu2=mu2)

