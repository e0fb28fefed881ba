"""Fock-basis density-matrix elements and multiphoton correlations.

The two-detector field is a Gaussian mixture of two-mode coherent states
|alpha, beta>: (alpha, beta) is circular complex Gaussian with mean
m = (mu1, mu2) and covariance C = [[n1, g s], [g s, n2]], s = sqrt(n1 n2).
Under the standard expansion |alpha> = exp(-|alpha|^2/2) sum_n alpha^n / sqrt(n!) |n>,

    <N,M|rho|K,L> = E[exp(-|alpha|^2 - |beta|^2)
                      alpha^N beta^M conj(alpha)^K conj(beta)^L] / sqrt(N! M! K! L!),

and <1,0|rho|0,0> carries the phase of mu1.  Every element is a scaled
Taylor coefficient G[N, M, K, L] of one Gaussian generating function

    E[exp(-|alpha|^2 - |beta|^2 + x1 alpha + x2 beta + x3 conj(alpha) + x4 conj(beta))]
        = exp(x^T A x / 2 + b^T x + c).

With S = (I + C)^-1 and D = det(I + C) = 1 + n1 + n2 + n1 n2 (1 - g^2),
all three are 2x2 closed forms:

    A = [[0, CS], [CS, 0]],   CS = [[n1 + n1 n2 (1-g^2), g s], [g s, n2 + n1 n2 (1-g^2)]] / D,
    b = (S m, S conj(m)),     c = -m^H S m - ln D.

No inverse of C appears, so g = 1 and nbar -> 0 are ordinary inputs.

The joint distribution p(N, M) = G[N, M, N, M] needs only the (n+1)^2
diagonal.  With B = A[:2, 2:], b_a = b[:2], b_c = b[2:] and
Z = diag(z1, z2), its count generating function (Mandel's photodetection
formula; Mandel & Wolf, Optical Coherence and Quantum Optics, ch. 14) is

    sum_{N,M} G[N, M, N, M] e^-c z1^N z2^M
        = exp(b_c^T (I - Z B)^-1 Z b_a) / det(I - Z B),

and moment_ladder expands it by an explicit O(n^2) recurrence and two
(n+1) x (n+1) matrix products, as documented there.

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
tails, both marginals against the closed form, the positivity of every
cell and the imaginary part of the diagonal, and raises
PrecisionLossError when one fails.
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
    """Coefficients (A, b, c) of the generating function.

    Variables are ordered (alpha, beta, conj(alpha), conj(beta)), the axes
    (N, M, K, L) of <N,M|rho|K,L>.
    """
    omg2 = (1.0 - p.g) * (1.0 + p.g)
    gs = p.g * math.sqrt(p.n1 * p.n2)
    det = 1.0 + p.n1 + p.n2 + p.n1 * p.n2 * omg2
    s = np.array([[1.0 + p.n2, -gs], [-gs, 1.0 + p.n1]]) / det
    cs = np.array([[p.n1 + p.n1 * p.n2 * omg2, gs], [gs, p.n2 + p.n1 * p.n2 * omg2]]) / det
    A = np.zeros((4, 4))
    A[:2, 2:] = cs
    A[2:, :2] = cs.T
    m = np.array([p.mu1, p.mu2], dtype=complex)
    b = np.concatenate([s @ m, s @ m.conj()])
    c = -float((m.conj() @ s @ m).real) - math.log(det)
    return A, b, c


def _binomial_thinning(x: float, n: int) -> np.ndarray:
    """T[N, j] = C(N, j) x^(N - j) for N, j = 0 .. n, by Pascal's rule."""
    t = np.zeros((n + 1, n + 1))
    t[0, 0] = 1.0
    for N in range(n):
        t[N + 1] = x * t[N]
        t[N + 1, 1:] += t[N, :-1]
    return t


def moment_ladder(A: np.ndarray, b: np.ndarray, n_max: int) -> np.ndarray:
    """Diagonal G[N, M, N, M] / exp(c) for N, M = 0 .. n_max, complex.

    A must have zero alpha-alpha and conj-conj blocks, as _gaussian_form's
    does.  With B = A[:2, 2:], kappa = B12 B21 and u_i = z_i / (1 - B_ii z_i),
    the count generating function of the module docstring factors as

        det(I - Z B) = (1 - B11 z1) (1 - B22 z2) (1 - kappa u1 u2),
        b_c^T (I - Z B)^-1 Z b_a = (beta1 u1 + beta2 u2 + gamma u1 u2) / (1 - kappa u1 u2),

    with beta_i = b_c,i b_a,i and gamma = B12 b_c,1 b_a,2 + B21 b_c,2 b_a,1.
    Since u^j / (1 - B z) = sum_N C(N, j) B^(N-j) z^N, the diagonal is the
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
    with det(I - Z B) = 1 - B11 z1 - B22 z2 + det(B) z1 z2, subtracts at
    every step instead.

    The name and the position of n_max are relied on by bench/tracing.py,
    which wraps qgs.fock_stats.moment_ladder and reads its third argument
    as the order.
    """
    kappa = A[0, 3] * A[1, 2]
    beta1, beta2 = b[2] * b[0], b[3] * b[1]
    gamma = A[0, 3] * b[2] * b[1] + A[1, 2] * b[3] * b[0]
    h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    h[0] = np.cumprod(np.concatenate([[1.0 + 0j], beta2 / np.arange(1, n_max + 1)]))
    for j in range(n_max):
        row = beta1 * h[j]
        row[1:] += (gamma + (2 * j + 1) * kappa) * h[j, :-1]
        # at j = 0 the last term vanishes with its factor j
        row[2:] += kappa * beta2 * h[j, :-2] - j * kappa * kappa * h[j - 1, :-2]
        h[j + 1] = row / (j + 1)
    return _binomial_thinning(A[0, 2], n_max) @ h @ _binomial_thinning(A[1, 3], n_max).T


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
    """The after-the-fact checks on the diagonal q = G[N, M, N, M]; returns p(N, M).

    marginals are the closed-form single_mode_pnd of both modes, one
    entry per row (column) of q, and t1, t2 their tails beyond the
    truncation.  The joint tail lies in [max(t1, t2), t1 + t2] and each
    truncated row (column) sum falls short of the closed-form marginal by
    at most t2 (t1).
    """
    n = q.shape[0] - 1
    m1, m2 = marginals
    mat = q.real
    tail = 1.0 - float(mat.sum())
    short1 = m1 - mat.sum(axis=1)
    short2 = m2 - mat.sum(axis=0)
    tol = _CHECK_TOL
    failed = [
        name
        for name, ok in (
            ("normalization", max(t1, t2) - tol <= tail <= t1 + t2 + tol),
            ("marginal 1", np.all((-tol <= short1) & (short1 <= t2 + tol))),
            ("marginal 2", np.all((-tol <= short2) & (short2 <= t1 + tol))),
            ("positivity", mat.min() >= -tol),
            ("real diagonal", np.abs(q.imag).max() <= tol),
        )
        if not ok
    ]
    if failed:
        raise PrecisionLossError(
            f"joint distribution at n_max = {n} fails its checks: {', '.join(failed)}"
        )
    return np.clip(mat, 0.0, None)


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
    A, b, c = _gaussian_form(p)
    mat = _certify(marginals, t1[n_eff], t2[n_eff], math.exp(c) * moment_ladder(A, b, n_eff))
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
    if mean1 <= 0 or mean2 <= 0:
        raise DomainError("mean photon numbers vanish; correlation undefined")
    if not mean1 * mean2 > 0:  # near 1e-300 each: <n1 n2> underflows with them
        raise PrecisionLossError("the product of the mean photon numbers underflows")
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
