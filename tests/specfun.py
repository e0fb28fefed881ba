"""Float64 special functions: Gaussian moments and Kummer 1F1.

The Gaussian moment f(a, b, n) = integral q^n exp(-a q^2 - b q) dq over
the real line has a closed form that pairs a gamma factor with a Kummer
confluent hypergeometric function 1F1 at b^2/(4a).  Only the parity
branch that survives for n is evaluated, in plain float64 ``math``.

Test-only code: the photon-number engine in :mod:`qgs.fock_stats` runs a
complex128 Gaussian Fock recurrence instead, and nothing in the ``qgs``
package imports this module.  Only ``tests/test_specfun.py`` does; the
module stays while that file's 196 checks against the mpmath and scipy
oracles are more test ids than one change may remove (ROADMAP item 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from qgs.errors import CertificationError, DomainError

_MAX_SERIES_TERMS = 20000
_OVERFLOW_GUARD = 1e280
_MAX_CANCELLATION = 1e3  # sum |term| / |sum|; beyond it fewer than ~13 digits survive


@dataclass(frozen=True)
class MomentParams:
    """Parameters of f(a, b, n): quadratic a > 0, linear b, order n >= 0."""

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not (self.a > 0):
            raise DomainError(f"quadratic coefficient must be positive, got a={self.a}")
        if self.n < 0:
            raise DomainError(f"moment order must be nonnegative, got n={self.n}")


def _series(a: float, b: float, z: float) -> float:
    """The Taylor series of 1F1(a; b; z), summed term by term and certified."""
    total, magnitude, term = 1.0, 1.0, 1.0
    for k in range(_MAX_SERIES_TERMS):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        magnitude += abs(term)
        if not magnitude <= _OVERFLOW_GUARD:
            raise CertificationError(f"1F1({a}; {b}; {z}) overflows the supported range")
        if k > 2 and abs(term) <= 1e-17 * abs(total):
            if magnitude > _MAX_CANCELLATION * abs(total):
                raise CertificationError(
                    f"1F1({a}; {b}; {z}): cancellation {magnitude / abs(total):.3g} "
                    "leaves fewer than 13 digits"
                )
            return total
    raise CertificationError(f"1F1({a}; {b}; {z}) did not converge in {_MAX_SERIES_TERMS} terms")


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric function 1F1(a; b; z).

    Taylor summation for z >= 0; a negative argument is mapped to a
    positive one through the Kummer transformation
    1F1(a; b; z) = e^z 1F1(b-a; b; -z).
    """
    if b <= 0 and b == int(b):
        raise DomainError(f"1F1 undefined for b a nonpositive integer, got b={b}")
    if z < 0:
        return math.exp(z) * _series(b - a, b, -z)
    return _series(a, b, z)


def gaussian_moment(p: MomentParams) -> float:
    """Closed form of f(a, b, n) = integral q^n exp(-a q^2 - b q) dq.

    Even n: a^-(n+1)/2 Gamma((n+1)/2) 1F1((n+1)/2; 1/2; b^2/4a).
    Odd n: -b a^-(n+2)/2 Gamma((n+2)/2) 1F1((n+2)/2; 3/2; b^2/4a).
    """
    a, b, n = p.a, p.b, p.n
    z = b * b / (4.0 * a)
    if n % 2 == 0:
        h = (n + 1) / 2
        return a**-h * math.gamma(h) * hyp1f1(h, 0.5, z)
    h = (n + 2) / 2
    return -b * a**-h * math.gamma(h) * hyp1f1(h, 1.5, z)
