"""Two-point Gaussian statistics of a coherent + Gaussian-Schell beam.

A beam is a statistically independent superposition of a coherent field
and a thermal (Gaussian-Schell) field, both with Gaussian transverse
profiles.  Reducing it to two detector positions leaves five numbers:
the mean thermal photon numbers n1, n2, the degree of coherence g, and
the coherent amplitudes mu1, mu2.  The real and imaginary field
components at the two points then form a real Gaussian 4-vector whose
mean and covariance are assembled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError

# g values above 1 - DEGENERACY_TOL are treated as the exact g = 1 limit,
# where the covariance is singular and no density exists.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class BeamProfile:
    """Source description: peak values and Gaussian widths.

    n_peak   : peak mean thermal photon number per detection mode
    mu_peak  : peak coherent amplitude (complex; constant phase across the beam)
    sigma0   : intensity-profile width parameter (length squared)
    sigma1   : coherence width parameter (length squared)
    """

    n_peak: float
    mu_peak: complex
    sigma0: float
    sigma1: float

    def __post_init__(self) -> None:
        if not (self.n_peak > 0):
            raise DomainError(f"n_peak must be positive, got {self.n_peak}")
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


@dataclass(frozen=True)
class MeanCov:
    """Mean 4-vector and 4x4 covariance of (Re a, Im a, Re b, Im b)."""

    mu: np.ndarray
    gamma: np.ndarray
    degenerate: bool = False


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


def cross_spectral_density(p: TwoPointParams) -> complex:
    """Two-point field correlation <E*(s1) E(s2)> = mu1* mu2 + g sqrt(n1 n2)."""
    return p.mu1.conjugate() * p.mu2 + p.g * math.sqrt(p.n1 * p.n2)


def mean_cov(p: TwoPointParams) -> MeanCov:
    """Mean vector and covariance matrix of the real field components.

    Each quadrature carries half the thermal photon number; cross
    correlations couple like quadratures only, with weight g sqrt(n1 n2)/2.
    """
    gb = p.g * math.sqrt(p.n1 * p.n2)
    gamma = 0.5 * np.array(
        [
            [p.n1, 0.0, gb, 0.0],
            [0.0, p.n1, 0.0, gb],
            [gb, 0.0, p.n2, 0.0],
            [0.0, gb, 0.0, p.n2],
        ]
    )
    mu = np.array([p.mu1.real, p.mu1.imag, p.mu2.real, p.mu2.imag])
    return MeanCov(mu=mu, gamma=gamma, degenerate=p.is_degenerate)


def gaussian_pdf(mc: MeanCov, r: np.ndarray) -> float:
    """Density of a real Gaussian 4-vector via Cholesky factorization.

    No explicit inverse is formed; raises DegeneracyError when the
    covariance is numerically singular.
    """
    r = np.asarray(r, dtype=float)
    try:
        chol = np.linalg.cholesky(mc.gamma)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("covariance matrix is not positive definite") from exc
    diag = np.diag(chol)
    det = float(np.prod(diag)) ** 2
    if det <= 1e-300:
        raise DegeneracyError("covariance determinant below tolerance")
    y = np.linalg.solve(chol, r - mc.mu)
    quad = float(y @ y)
    return math.exp(-0.5 * quad) / (4.0 * math.pi**2 * math.sqrt(det))


def joint_pdf(p: TwoPointParams, alpha: complex, beta: complex) -> float:
    """Joint density of the coherent amplitudes at the two detectors.

    Direct evaluation of the exponential form (cross term 2g Re[...]);
    agrees pointwise with gaussian_pdf over mean_cov.
    """
    if p.is_degenerate:
        raise DegeneracyError(
            "joint density does not exist at g = 1 (degenerate covariance)"
        )
    one_m_g2 = (1.0 - p.g) * (1.0 + p.g)
    da = alpha - p.mu1
    db = beta - p.mu2
    expo = (
        -abs(da) ** 2 / (p.n1 * one_m_g2)
        - abs(db) ** 2 / (p.n2 * one_m_g2)
        + 2.0 * p.g * (da.conjugate() * db).real / (math.sqrt(p.n1 * p.n2) * one_m_g2)
    )
    norm = math.pi**2 * p.n1 * p.n2 * one_m_g2
    return math.exp(expo) / norm


def mu_tilde(p: TwoPointParams):
    """Rescaled amplitudes mu_i / cos, mu_i / sin of the two-mode rotation.

    These are the natural coordinates of the g -> 1 limit, where the two
    detectors see perfectly correlated splittings of one mode.
    """
    nt = p.n1 + p.n2
    ct = math.sqrt(p.n1 / nt)
    st = math.sqrt(p.n2 / nt)
    return p.mu1 / ct, p.mu2 / st
