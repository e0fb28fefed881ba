"""Double-double special functions: Gaussian moments, Kummer 1F1, binomials.

The workhorse is the one-dimensional Gaussian moment

    f(a, b, n) = integral q^n exp(-a q^2 - b q) dq   over the real line,

whose closed form pairs a gamma factor with a Kummer confluent
hypergeometric function 1F1 evaluated at b^2/(4a).  Exactly one of the
two parity branches survives for each n, so only that branch is ever
evaluated.  Everything here is computed in double-double arithmetic
(see :mod:`qgs.ddouble`) so that the values survive alternating sums
with combinatorially growing cancellation.

The photon-number engine in :mod:`qgs.fock_stats` no longer uses this
module: it runs a complex128 Gaussian Fock recurrence instead.  The
module is standalone, is not imported by ``import qgs``, and loads
scipy only inside :func:`quadrature_moment`.

All functions are pure; cached tables are immutable after creation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ddouble import (
    DD_SQRT_PI,
    DDSum,
    dd_add,
    dd_div,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    dd_npow,
    dd_sqrt,
    dd_sub,
    two_prod,
)
from .errors import CertificationError, ConvergenceError, DomainError

_MAX_SERIES_TERMS = 20000
_OVERFLOW_GUARD = 1e280


@dataclass(frozen=True)
class MomentParams:
    """Parameters of the Gaussian moment f(a, b, n).

    a : quadratic coefficient, must be positive for convergence
    b : linear coefficient
    n : moment order, n >= 0
    """

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if not (self.a > 0):
            raise DomainError(f"quadratic coefficient must be positive, got a={self.a}")
        if self.n < 0:
            raise DomainError(f"moment order must be nonnegative, got n={self.n}")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0):
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k) for 0 <= k <= n <= 128."""
    if n < 0 or k < 0:
        raise DomainError(f"binomial requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        raise DomainError(f"binomial requires k <= n, got ({n}, {k})")
    if n > 128:
        raise OverflowError(f"binomial supports n <= 128, got n={n}")
    return math.comb(n, k)


@lru_cache(maxsize=8)
def gamma_half_table(jmax: int):
    """Double-double table of Gamma(j/2) for j = 1 .. jmax.

    Built by the recurrence Gamma(x+1) = x Gamma(x) from the exact seeds
    Gamma(1/2) = sqrt(pi) and Gamma(1) = 1; every recurrence factor j/2
    is dyadic, so no rounding enters beyond the multiplications.
    Returned arrays are indexed by j (index 0 unused).
    """
    gh = np.zeros(jmax + 1)
    gl = np.zeros(jmax + 1)
    gh[1], gl[1] = DD_SQRT_PI
    if jmax >= 2:
        gh[2], gl[2] = 1.0, 0.0
    for j in range(3, jmax + 1):
        gh[j], gl[j] = dd_mul_d(gh[j - 2], gl[j - 2], (j - 2) / 2.0)
    gh.setflags(write=False)
    gl.setflags(write=False)
    return gh, gl


def _check_b_param(b: float) -> None:
    if b <= 0 and b == int(b):
        raise DomainError(f"1F1 undefined for b a nonpositive integer, got b={b}")


def _hyp1f1_dd(a: float, b: float, zh: float, zl: float = 0.0):
    """Kummer 1F1(a; b; z) summed termwise in double-double, z >= 0.

    Returns ((hi, lo), surviving_digits).  For the half-integer parameter
    patterns used by the Gaussian moments all series terms are positive
    and no cancellation occurs; for negative a the partial alternation is
    tracked and certified through the accumulator.
    """
    if zh == 0.0 and zl == 0.0:
        return (1.0, 0.0), np.inf
    acc = DDSum()
    acc.add(1.0, 0.0)
    th, tl = 1.0, 0.0
    k = 0
    while k < _MAX_SERIES_TERMS:
        th, tl = dd_mul_d(th, tl, a + k)
        th, tl = dd_mul(th, tl, zh, zl)
        th, tl = dd_div_d(th, tl, b + k)
        th, tl = dd_div_d(th, tl, float(k + 1))
        acc.add(th, tl)
        if not math.isfinite(acc.hi) or abs(acc.hi) > _OVERFLOW_GUARD:
            raise CertificationError(
                f"1F1({a}; {b}; {zh}) overflows the supported range"
            )
        if abs(th) <= 1e-35 * abs(acc.hi) and k > 2:
            return acc.dd_value(), acc.surviving_digits()
        k += 1
    raise ConvergenceError(f"1F1({a}; {b}; {zh}) did not converge in {k} terms")


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer confluent hypergeometric function 1F1(a; b; z).

    Taylor summation in double-double for z >= 0; negative arguments are
    mapped to positive ones through the Kummer transformation
    1F1(a; b; z) = e^z 1F1(b-a; b; -z).  Raises CertificationError when
    the requested precision cannot be certified.
    """
    _check_b_param(b)
    if z < 0:
        (vh, vl), digits = _hyp1f1_dd(b - a, b, -z)
        if digits < 13:
            raise CertificationError(
                f"1F1({a}; {b}; {z}): only {digits:.1f} digits certified"
            )
        ez = math.exp(z)
        rh, rl = dd_mul_d(vh, vl, ez)
        return rh
    (vh, vl), digits = _hyp1f1_dd(a, b, z)
    if digits < 13:
        raise CertificationError(
            f"1F1({a}; {b}; {z}): only {digits:.1f} digits certified"
        )
    return vh


def _hyp1f1_dd_vec(avec: np.ndarray, b: float, zh: float, zl: float = 0.0):
    """Vectorized 1F1 over a ladder of a-parameters sharing (b, z), z >= 0.

    Ladder parameters are half-integers, so every per-term factor
    (a+k, b+k, k+1) is exact and the terms carry full double-double
    accuracy into downstream cancelling sums.
    """
    m = avec.size
    sh = np.ones(m)
    sl = np.zeros(m)
    if zh == 0.0 and zl == 0.0:
        return sh, sl
    th = np.ones(m)
    tl = np.zeros(m)
    for k in range(_MAX_SERIES_TERMS):
        th, tl = dd_mul_d(th, tl, avec + k)
        th, tl = dd_mul(th, tl, zh, zl)
        th, tl = dd_div_d(th, tl, b + k)
        th, tl = dd_div_d(th, tl, float(k + 1))
        sh, sl = dd_add(sh, sl, th, tl)
        if not np.all(np.isfinite(sh)) or np.max(np.abs(sh)) > _OVERFLOW_GUARD:
            raise CertificationError("1F1 ladder overflows the supported range")
        if k > 2 and np.all(np.abs(th) <= 1e-35 * np.abs(sh)):
            return sh, sl
    raise ConvergenceError("1F1 ladder did not converge")


def _moment_ladder_dd(a, b, n_max: int):
    """Double-double values f(a, b, n) for n = 0 .. n_max.

    a, b may be doubles or (hi, lo) pairs; a > 0 required.  Evaluates the
    closed form branch by branch: for even n only the Gamma((n+1)/2)
    1F1(.; 1/2; .) term survives, for odd n only the -b Gamma(n/2+1)
    1F1(.; 3/2; .) term.
    """
    ah, al = a if isinstance(a, tuple) else (float(a), 0.0)
    bh, bl = b if isinstance(b, tuple) else (float(b), 0.0)
    if not (ah > 0):
        raise DomainError(f"gaussian moment requires a > 0, got a={ah}")

    # q = b^2 / (4a)
    qh, ql = dd_mul(bh, bl, bh, bl)
    qh, ql = dd_div(qh, ql, 4.0 * ah, 4.0 * al)

    # inverse square-root powers s^j = a^(-j/2) for j = 1 .. n_max + 2
    rh, rl = dd_sqrt(ah, al)
    sh, sl = dd_div(1.0, 0.0, rh, rl)
    sph = np.zeros(n_max + 3)
    spl = np.zeros(n_max + 3)
    sph[0] = 1.0
    for j in range(1, n_max + 3):
        sph[j], spl[j] = dd_mul(sph[j - 1], spl[j - 1], sh, sl)

    gh, gl = gamma_half_table(n_max + 2)

    n_even = n_max // 2 + 1
    feh, fel = _hyp1f1_dd_vec(0.5 + np.arange(n_even), 0.5, qh, ql)

    fh = np.zeros(n_max + 1)
    fl = np.zeros(n_max + 1)
    for j in range(n_even):
        n = 2 * j
        vh, vl = dd_mul(sph[n + 1], spl[n + 1], gh[n + 1], gl[n + 1])
        fh[n], fl[n] = dd_mul(vh, vl, feh[j], fel[j])

    n_odd = (n_max + 1) // 2
    if n_odd > 0 and not (bh == 0.0 and bl == 0.0):
        foh, fol = _hyp1f1_dd_vec(1.5 + np.arange(n_odd), 1.5, qh, ql)
        nbh, nbl = -bh, -bl
        for j in range(n_odd):
            n = 2 * j + 1
            vh, vl = dd_mul(sph[n + 2], spl[n + 2], gh[n + 2], gl[n + 2])
            vh, vl = dd_mul(vh, vl, foh[j], fol[j])
            fh[n], fl[n] = dd_mul(vh, vl, nbh, nbl)
    return fh, fl


def gaussian_moment(p: MomentParams) -> float:
    """Closed form of f(a, b, n) = integral q^n exp(-a q^2 - b q) dq."""
    fh, fl = _moment_ladder_dd(p.a, p.b, p.n)
    return float(fh[p.n])


def quadrature_moment(p: MomentParams, rel_tol: float = 1e-10) -> float:
    """Adaptive quadrature of q^n exp(-a q^2 - b q), the independent oracle.

    The integration window is wide enough that the discarded tail is
    below 1e-15 of the result; a ConvergenceError is raised when the
    adaptive scheme cannot certify rel_tol * (1 + |result|).
    """
    from scipy import integrate

    a, b, n = p.a, p.b, p.n
    half_width = max(20.0, (abs(b) + 10.0 * math.sqrt(n + 1)) / a + 10.0 / math.sqrt(a))

    def integrand(q: float) -> float:
        return q**n * math.exp(-a * q * q - b * q)

    val, err = integrate.quad(
        integrand, -half_width, half_width, epsabs=1e-13, epsrel=1e-12, limit=400
    )
    if err > rel_tol * (1.0 + abs(val)):
        raise ConvergenceError(
            f"quadrature_moment(a={a}, b={b}, n={n}): error {err:.2e} above tolerance"
        )
    return val
