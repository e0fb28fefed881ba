"""Joint photon-number statistics and multiphoton correlations.

The two-detector field is a Gaussian mixture of two-mode coherent states
|alpha, beta>: (alpha, beta) is circular complex Gaussian with mean
mu = (mu1, mu2) and covariance C = [[n1, g s], [g s, n2]], s = sqrt(n1 n2).
Each member of the mixture gives independent Poisson counts of means
|alpha|^2 and |beta|^2, so the joint distribution p(N, M) is read off the
count generating function (Mandel's photodetection formula; Mandel & Wolf,
Optical Coherence and Quantum Optics, ch. 14)

    sum_{N,M} p(N, M) z1^N z2^M = E[exp(-(1 - z1) |alpha|^2 - (1 - z2) |beta|^2)]
        = e^c exp(m^H (I - Z CS)^-1 Z m) / det(I - Z CS),    Z = diag(z1, z2).

With S = (I + C)^-1, D = det(I + C) = 1 + n1 + n2 + n1 n2 (1 - g^2),
k = g s / D and m = S mu, _gaussian_form evaluates six reals and c:

    x_i = CS_ii = (n_i + n1 n2 (1 - g^2)) / D,    kappa = CS12 CS21 = k^2,
    beta_i = |m_i|^2,    gamma = 2 k Re(conj(m1) m2),    c = -Re(mu^H m) - ln D.

CS is real and symmetric, so every Taylor coefficient is real, and
moment_ladder expands the function in float64 by an explicit O(n^2)
recurrence and two (n+1) x (n+1) matrix products, as documented there.
No inverse of C appears, so g = 1 and nbar -> 0 are ordinary inputs.
The off-diagonal density-matrix elements <N,M|rho|K,L> and their phase
convention belong to the four-variable generating function that
tests/oracles.py (rho_element) expands; no output needs them.

The single-detector marginals are displaced-thermal for every g.
single_mode_pnd evaluates their Laguerre closed form by one three-term
recurrence on the probabilities themselves, the same for thermal,
coherent and mixed modes.  joint_pnd calls it once per mode, up to
HARD_CAP, and takes the cumulative tails t_i(n) = 1 - sum_{k<=n} m_i(k)
of both arrays once.  The truncation n_eff is one lookup, the first
n >= n_max with t_1(n) + t_2(n) < tail_tol / 2, where the caller sets the
floor n_max and the cap is HARD_CAP; the checks read t_1 and
t_2 at n_eff and compare against the marginal prefixes, and JointPND
carries those prefixes for wavepacket_g2.

There is no cancellation bookkeeping inside either recurrence.  After the
fact, joint_pnd checks the normalization against the certified marginal
tails, both marginals against the closed form and the positivity of
every cell, and raises PrecisionLossError when one fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InsufficientCountsError,
    PrecisionLossError,
    TruncationError,
)
from .source_model import TwoPointParams

DEFAULT_TAIL_TOL = 1e-6
# wavepacket_g2 keeps high-photon-number rows defined at large
# separations, where the exact marginals are far below any fixed absolute
# floor but the positive-sum evaluation is still relatively accurate.
_MARGINAL_FLOOR = 1e-300
# joint_pnd's truncation lookup reaches up to HARD_CAP, whatever the floor
HARD_CAP = 40
# absolute slack of the after-the-fact checks on p(N, M); roundoff in the
# recurrence and in the closed-form marginals is ~1e-16 per cell.  It is
# also the smallest tail_tol joint_pnd accepts: the normalization check
# cannot tell a smaller tail from roundoff.
_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class JointPND:
    """Truncated joint photon-number distribution p(N, M).

    p is a (n_max+1) x (n_max+1) matrix of diagonal matrix elements;
    tail_mass certifies the probability weight beyond the truncation.
    marginals holds the closed-form single-detector distributions
    single_mode_pnd of both modes for N = 0 .. n_max, the prefixes the
    checks of joint_pnd compare against.
    """

    n_max: int
    p: np.ndarray
    tail_mass: float
    params: TwoPointParams
    marginals: tuple[np.ndarray, np.ndarray]


def _gaussian_form(p: TwoPointParams):
    """(x1, x2, kappa), (beta1, beta2, gamma) and c, the closed forms of the module docstring."""
    nn = p.n1 * p.n2 * ((1.0 - p.g) * (1.0 + p.g))
    det = 1.0 + p.n1 + p.n2 + nn
    k = p.g * math.sqrt(p.n1 * p.n2) / det
    m1 = (1.0 + p.n2) / det * p.mu1 - k * p.mu2
    m2 = (1.0 + p.n1) / det * p.mu2 - k * p.mu1
    b = ((m1.conjugate() * m1).real, (m2.conjugate() * m2).real, 2 * k * (m1.conjugate() * m2).real)
    c = -(p.mu1.conjugate() * m1 + p.mu2.conjugate() * m2).real - math.log(det)
    return ((p.n1 + nn) / det, (p.n2 + nn) / det, k * k), b, c


def _binomial_thinning(x: float, n: int) -> np.ndarray:
    """T[N, j] = C(N, j) x^(N - j) for N, j = 0 .. n, by Pascal's rule."""
    t = np.zeros((n + 1, n + 1))
    t[0, 0] = 1.0
    for N in range(n):
        t[N + 1] = x * t[N]
        t[N + 1, 1:] += t[N, :-1]
    return t


def moment_ladder(x: tuple, b: tuple, n_max: int) -> np.ndarray:
    """p(N, M) / exp(c) for N, M = 0 .. n_max, in float64.

    x = (x1, x2, kappa) and b = (beta1, beta2, gamma) are the six reals of
    the module docstring as _gaussian_form returns them: the thinnings x_i,
    the coupling kappa and the displacement terms beta_i and gamma.  With
    u_i = z_i / (1 - x_i z_i) the count generating function factors as

        det(I - Z CS) = (1 - x1 z1) (1 - x2 z2) (1 - kappa u1 u2),
        m^H (I - Z CS)^-1 Z m = (beta1 u1 + beta2 u2 + gamma u1 u2) / (1 - kappa u1 u2).

    Since u^j / (1 - x z) = sum_N C(N, j) x^(N-j) z^N, the table is the
    coefficient table h of H(u1, u2) = exp(X / (1 - kappa u1 u2)) / (1 - kappa u1 u2),
    X = beta1 u1 + beta2 u2 + gamma u1 u2, thinned binomially along both
    axes.  From (1 - kappa u1 u2)^2 dH/du1 = H (beta1 + (gamma + kappa) u2
    + kappa beta2 u2^2 - kappa^2 u1 u2^2), each row of h is explicit:

        (j+1) h[j+1, k] = beta1 h[j, k] + (gamma + (2j+1) kappa) h[j, k-1]
                          + kappa beta2 h[j, k-2] - j kappa^2 h[j-1, k-2],

    from h[0, k] = beta2^k / k!.  The thinning sums are positive, and for a
    beam with gamma >= 0 so is every term of the recurrence but the last;
    at m = 0 it is a three-term recurrence along the diagonal whose second
    solution grows only like log j.  The expansion in z1, z2 themselves,
    with det(I - Z CS) = 1 - x1 z1 - x2 z2 + det(CS) z1 z2, subtracts at
    every step instead.

    The name and the position of n_max are relied on by bench/tracing.py,
    which wraps qgs.fock_stats.moment_ladder and reads its third argument
    as the order.
    """
    x1, x2, kappa = x
    beta1, beta2, gamma = b
    h = np.zeros((n_max + 1, n_max + 1))
    h[0] = np.cumprod(np.concatenate([[1.0], beta2 / np.arange(1, n_max + 1)]))
    for j in range(n_max):
        row = beta1 * h[j]
        row[1:] += (gamma + (2 * j + 1) * kappa) * h[j, :-1]
        # at j = 0 the last term vanishes with its factor j
        row[2:] += kappa * beta2 * h[j, :-2] - j * kappa * kappa * h[j - 1, :-2]
        h[j + 1] = row / (j + 1)
    return _binomial_thinning(x1, n_max) @ h @ _binomial_thinning(x2, n_max).T


def single_mode_pnd(nbar: float, mu: complex, n_max: int) -> np.ndarray:
    """Photon-number distribution of one coherent + thermal mode.

    The Laguerre closed form p(n) = r^n L_n(-y / r) e^(-|mu|^2 / (1 + nbar))
    / (1 + nbar), with r = nbar / (1 + nbar) and y = |mu|^2 / (1 + nbar)^2,
    is evaluated by the three-term Laguerre recurrence applied to p itself:

        (n + 1) p(n + 1) = ((2n + 1) r + y) p(n) - n r^2 p(n - 1).

    Neither coefficient blows up as nbar -> 0, so Bose-Einstein (mu = 0),
    Poisson (nbar = 0) and every beam between take the same path, and no
    factor overflows while another underflows.  Serves as the independent
    marginal oracle.
    """
    if nbar < 0:
        raise DomainError(f"nbar must be nonnegative, got {nbar}")
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    # products, not ** 2: a huge beam goes to inf rather than raise OverflowError
    m2 = abs(mu) * abs(mu)
    r = nbar / (1.0 + nbar)
    y = m2 / ((1.0 + nbar) * (1.0 + nbar))
    q = [0.0, math.exp(-m2 / (1.0 + nbar)) / (1.0 + nbar)]
    for n in range(n_max):
        q.append((((2 * n + 1) * r + y) * q[-1] - n * r * r * q[-2]) / (n + 1))
    return np.array(q[1:])


def _marginal_tail_order(tails: np.ndarray, n_start: int, tail_tol: float) -> int:
    """First n >= n_start whose summed marginal tail tails[n] is below tail_tol / 2.

    tails[n] = t1(n) + t2(n) bounds P(N > n or M > n); its length, the
    length of the closed-form marginals, sets the hard cap.  One lookup
    on the array returns the smallest certified truncation.
    """
    passing = np.flatnonzero(tails[n_start:] < 0.5 * tail_tol)
    if passing.size == 0:
        raise TruncationError(
            f"tail tolerance {tail_tol} not reachable below n_max = {tails.size - 1}"
        )
    return n_start + int(passing[0])


def _certify(
    marginals: tuple[np.ndarray, np.ndarray], t1: float, t2: float, q: np.ndarray
) -> np.ndarray:
    """Four after-the-fact checks on the table q; returns p(N, M).

    The checks are normalization, both marginals and positivity.
    marginals are the closed-form single_mode_pnd of both modes, one
    entry per row (column) of q, and t1, t2 their tails beyond the
    truncation.  The joint tail lies in [max(t1, t2), t1 + t2] and each
    truncated row (column) sum falls short of the closed-form marginal by
    at most t2 (t1).
    """
    n = q.shape[0] - 1
    m1, m2 = marginals
    tail = 1.0 - float(q.sum())
    short1 = m1 - q.sum(axis=1)
    short2 = m2 - q.sum(axis=0)
    tol = _CHECK_TOL
    failed = [
        name
        for name, ok in (
            ("normalization", max(t1, t2) - tol <= tail <= t1 + t2 + tol),
            ("marginal 1", np.all((-tol <= short1) & (short1 <= t2 + tol))),
            ("marginal 2", np.all((-tol <= short2) & (short2 <= t1 + tol))),
            ("positivity", q.min() >= -tol),
        )
        if not ok
    ]
    if failed:
        raise PrecisionLossError(
            f"joint distribution at n_max = {n} fails its checks: {', '.join(failed)}"
        )
    return np.clip(q, 0.0, None)


def joint_pnd(
    p: TwoPointParams, n_max: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> JointPND:
    """Joint photon-number distribution at the smallest certified truncation.

    The caller sets the floor n_max (requested indices stay available).
    The truncation is the first n >= n_max whose summed marginal tail is
    below tail_tol / 2, searched up to the cap HARD_CAP; a floor above
    the cap raises TruncationError.  A
    tail_tol below _CHECK_TOL cannot be certified in double precision and
    raises TruncationError.  The reported tail_mass is 1 - sum p, clamped
    at 0 where roundoff takes it below.
    """
    if tail_tol < _CHECK_TOL:
        raise TruncationError(
            f"tail tolerance {tail_tol} is below {_CHECK_TOL}, the resolution of "
            "the double-precision normalization check"
        )
    full = (single_mode_pnd(p.n1, p.mu1, HARD_CAP), single_mode_pnd(p.n2, p.mu2, HARD_CAP))
    t1, t2 = (1.0 - np.cumsum(m) for m in full)
    n_eff = _marginal_tail_order(t1 + t2, n_max, tail_tol)
    marginals = (full[0][: n_eff + 1], full[1][: n_eff + 1])
    x, b, c = _gaussian_form(p)
    mat = _certify(marginals, t1[n_eff], t2[n_eff], math.exp(c) * moment_ladder(x, b, n_eff))
    tail = max(0.0, 1.0 - float(mat.sum()))
    if tail >= tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} above tolerance {tail_tol} at n_max = {n_eff}"
        )
    return JointPND(n_max=n_eff, p=mat, tail_mass=tail, params=p, marginals=marginals)


def wavepacket_g2(pnd: JointPND, N: int, M: int) -> float:
    """Correlation of N-photon wavepackets at detector 1 with M-photon at 2.

    p(N, M) normalized by the product of the marginal wavepacket
    probabilities p(N) and p(M).  The marginals are displaced-thermal for
    every g (g = 1 included), so they are read from pnd.marginals, the
    closed form single_mode_pnd that joint_pnd evaluated, rather than from
    row and column sums of the truncated matrix, which fall short of the
    true marginals by the tail mass.  A marginal below _MARGINAL_FLOOR, or
    a product of the two that underflows to 0, raises
    InsufficientCountsError.
    """
    if N > pnd.n_max or M > pnd.n_max or N < 0 or M < 0:
        raise DomainError(f"pair ({N}, {M}) outside truncation n_max = {pnd.n_max}")
    row = float(pnd.marginals[0][N])
    col = float(pnd.marginals[1][M])
    if row < _MARGINAL_FLOOR or col < _MARGINAL_FLOOR:
        raise InsufficientCountsError(
            f"marginal probability below floor {_MARGINAL_FLOOR:g} for pair ({N}, {M})"
        )
    denom = row * col
    if denom == 0.0:
        raise InsufficientCountsError(f"marginal product underflows for pair ({N}, {M})")
    return float(pnd.p[N, M]) / denom


def classical_g2(pnd: JointPND) -> float:
    """Intensity correlation <n1 n2> / (<n1> <n2>) from the joint distribution."""
    ns = np.arange(pnd.n_max + 1, dtype=float)
    mean1 = float(ns @ pnd.p.sum(axis=1))
    mean2 = float(pnd.p.sum(axis=0) @ ns)
    cross = float(ns @ pnd.p @ ns)
    if not mean1 * mean2 > 0:  # 0, or near 1e-300 each: <n1 n2> underflows with them
        raise PrecisionLossError("the product of the mean photon numbers vanishes or underflows")
    return cross / (mean1 * mean2)


def classical_g2_closed(p: TwoPointParams) -> float:
    """Second route to the intensity correlation, via Gaussian field moments.

    For the coherent + thermal field the pairing expansion of the fourth
    field moment gives
      <I1 I2> = <I1><I2> + g^2 n1 n2 + 2 g sqrt(n1 n2) Re(mu1* mu2).
    """
    i1 = abs(p.mu1) ** 2 + p.n1
    i2 = abs(p.mu2) ** 2 + p.n2
    if not i1 * i2 > 0:  # near 1e-300 each, as in classical_g2
        raise PrecisionLossError("the product of the mean intensities underflows")
    cross = (
        i1 * i2
        + p.g * p.g * p.n1 * p.n2
        + 2.0 * p.g * math.sqrt(p.n1 * p.n2) * (p.mu1.conjugate() * p.mu2).real
    )
    return cross / (i1 * i2)
