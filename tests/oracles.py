"""Independent oracles used to freeze and check expected values.

The series oracle sums Kummer terms in 50-digit arithmetic; the moment,
single-mode element and quadrature oracles integrate numerically.  None
of them shares arithmetic with the package: the quadrature builds its own
real mean and covariance (mean_cov) and reads only the fields of
TwoPointParams.

The Hermite slab stream behind rho_element writes out its own
generating-function coefficients (gaussian_form) from the fields of
TwoPointParams, entry by entry, so it shares no code either with the six
reals that moment_ladder expands: qgs.fock_stats's x1, x2, kappa, beta1,
beta2 and gamma.

_block_fields is the Monte Carlo sampler's field draw as one (4, count)
array, the reference that qgs.mc_oracle's chunked block kernel matches
bit for bit.

rho_element evaluates off-diagonal elements too, and pins their phase
convention.  The field (alpha, beta) of the qgs.fock_stats docstring
mixes two-mode coherent states; under the standard expansion
|alpha> = exp(-|alpha|^2/2) sum_n alpha^n / sqrt(n!) |n>,

    <N,M|rho|K,L> = E[exp(-|alpha|^2 - |beta|^2)
                      alpha^N beta^M conj(alpha)^K conj(beta)^L] / sqrt(N! M! K! L!),

so <1,0|rho|0,0> carries the phase of mu1.  Every element is a scaled
Taylor coefficient G[N, M, K, L] of one Gaussian generating function

    E[exp(-|alpha|^2 - |beta|^2 + x1 alpha + x2 beta + x3 conj(alpha) + x4 conj(beta))]
        = exp(x^T A x / 2 + b^T x + c),

with the coefficients of gaussian_form, and rho_element follows the
multidimensional-Hermite recurrence (Miatto & Quesada, Quantum 4, 366
(2020)) for them,

    G[k + e_i] = (b_i G[k] + sum_j A_ij sqrt(k_j) G[k - e_j]) / sqrt(k_i + 1).

The alpha-alpha and conj-conj blocks of A are exactly zero, so a step in
N reads only the slab at N: the table is streamed one (n+1)^3 slab
G[N, :, :, :] at a time.
"""

import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate

from qgs.errors import CertificationError, DomainError
from qgs.source_model import TwoPointParams

mp.mp.dps = 50

# rho_element's bound on N + M + K + L
MAX_ORDER = 64


def series_hyp1f1(a, b, z, terms=200):
    """Term-by-term Kummer series at 50-digit working precision."""
    s = mp.mpf(0)
    t = mp.mpf(1)
    a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
    for k in range(terms):
        s += t
        t = t * (a + k) / ((b + k) * (k + 1)) * z
    return float(s)


def quad_gaussian_moment(a, b, n, half_width=None, epsabs=1e-14):
    """Adaptive quadrature of q^n exp(-a q^2 - b q)."""
    if half_width is None:
        half_width = max(20.0, (abs(b) + 10.0 * np.sqrt(n + 1)) / a + 10.0 / np.sqrt(a))
    val, err = integrate.quad(
        lambda q: q**n * np.exp(-a * q * q - b * q),
        -half_width,
        half_width,
        epsabs=epsabs,
        epsrel=1e-13,
        limit=400,
    )
    return val, err


def dblquad_single_mode_element(nbar, mu, N, K):
    """<N|rho|K> of one coherent + thermal mode by 2D adaptive quadrature.

    Integrates P(alpha) exp(-|alpha|^2) alpha^N conj(alpha)^K / sqrt(N! K!)
    over the plane, with P the Gaussian of mean mu and E|alpha - mu|^2 = nbar,
    on a box around the peak of the Gaussian part of the integrand.
    """
    var = nbar / (1.0 + nbar)
    centre = complex(mu) / (1.0 + nbar)
    half = 12.0 * math.sqrt(var) + math.sqrt(N + K)
    norm = 1.0 / (math.pi * nbar * math.sqrt(math.factorial(N) * math.factorial(K)))

    def part(take):
        def fn(y, x):
            a = complex(x, y)
            w = math.exp(-abs(a - mu) ** 2 / nbar - abs(a) ** 2)
            return take(w * a**N * a.conjugate() ** K)

        val, _ = integrate.dblquad(
            fn,
            centre.real - half,
            centre.real + half,
            centre.imag - half,
            centre.imag + half,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        return val

    return norm * complex(part(lambda v: v.real), part(lambda v: v.imag))


@dataclass(frozen=True)
class MeanCov:
    """Mean 4-vector and 4x4 covariance of (Re a, Im a, Re b, Im b)."""

    mu: np.ndarray
    gamma: np.ndarray
    degenerate: bool = False


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


def _block_fields(p: TwoPointParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """One block of correlated field draws as rows (Re alpha, Im alpha, Re beta, Im beta).

    Explicit Cholesky factor of the 2x2 complex covariance, exact at g = 1:
    alpha = mu1 + sqrt(n1/2) w1 and
    beta = mu2 + sqrt(n2/2) (g w1 + sqrt(1 - g^2) w2), where the rows of
    standard_normal((4, count)) are (Re w1, Im w1, Re w2, Im w2).
    """
    f = rng.standard_normal((4, count))
    s2 = math.sqrt(p.n2 / 2.0)
    # beta's rows first: they read w1 from rows 0 and 1
    f[2:] *= s2 * math.sqrt((1.0 - p.g) * (1.0 + p.g))
    f[2:] += (s2 * p.g) * f[:2]
    f[:2] *= math.sqrt(p.n1 / 2.0)
    f += np.array([[p.mu1.real], [p.mu1.imag], [p.mu2.real], [p.mu2.imag]])
    return f


@dataclass(frozen=True)
class FockIndex:
    """Index (N, M, K, L) of the projector |N,M><K,L|."""

    N: int
    M: int
    K: int
    L: int

    def __post_init__(self) -> None:
        if min(self.N, self.M, self.K, self.L) < 0:
            raise DomainError("Fock indices must be nonnegative")

    @property
    def order(self) -> int:
        return self.N + self.M + self.K + self.L


def gaussian_form(p: TwoPointParams):
    """Coefficients (A, b, c) of the generating function, on the axes (N, M, K, L).

    With the field covariance C = [[n1, g s], [g s, n2]], s = sqrt(n1 n2),
    and mean m = (mu1, mu2): D = det(I + C), S = (I + C)^-1 and CS = C S,
    A = [[0, CS], [CS, 0]], b = (S m, conj(S m)) and c = -m^H S m - ln D.
    """
    w = (1.0 - p.g) * (1.0 + p.g)  # 1 - g^2 without cancellation near g = 1
    gs = p.g * math.sqrt(p.n1 * p.n2)
    d = 1.0 + p.n1 + p.n2 + p.n1 * p.n2 * w
    s11, s12, s22 = (1.0 + p.n2) / d, -gs / d, (1.0 + p.n1) / d
    cs11, cs12, cs22 = (p.n1 + p.n1 * p.n2 * w) / d, gs / d, (p.n2 + p.n1 * p.n2 * w) / d
    A = np.zeros((4, 4))
    A[0, 2:] = A[2:, 0] = cs11, cs12
    A[1, 2:] = A[2:, 1] = cs12, cs22
    sm1 = s11 * p.mu1 + s12 * p.mu2
    sm2 = s12 * p.mu1 + s22 * p.mu2
    b = np.array([sm1, sm2, sm1.conjugate(), sm2.conjugate()])
    cross = (p.mu1.conjugate() * p.mu2).real
    c = -(s11 * abs(p.mu1) ** 2 + s22 * abs(p.mu2) ** 2 + 2.0 * s12 * cross) - math.log(d)
    return A, b, c


def _raise_index(t: np.ndarray, bi: complex, a_k: float, a_l: float, sq: np.ndarray):
    """One recurrence step along an unconjugated axis, before the 1/sqrt(k_i + 1).

    t is indexed [..., K, L]; a_k and a_l are the couplings of that axis
    to the K and L axes, the only nonzero entries of its row of A.
    """
    out = bi * t
    out[..., 1:, :] += a_k * sq[1:, None] * t[..., :-1, :]
    out[..., :, 1:] += a_l * sq[1:] * t[..., :, :-1]
    return out


def _slabs(A: np.ndarray, b: np.ndarray, n: int):
    """Yield G[N, :, :, :] / exp(c) for N = 0 .. n, each indexed [M, K, L] up to n."""
    sq = np.sqrt(np.arange(n + 1))
    ones = np.ones(1, dtype=complex)
    row_k = np.cumprod(np.concatenate([ones, b[2] / sq[1:]]))
    row_l = np.cumprod(np.concatenate([ones, b[3] / sq[1:]]))
    slab = np.empty((n + 1,) * 3, dtype=complex)
    slab[0] = np.outer(row_k, row_l)
    for m in range(n):
        slab[m + 1] = _raise_index(slab[m], b[1], A[1, 2], A[1, 3], sq) / sq[m + 1]
    yield slab
    for N in range(n):
        slab = _raise_index(slab, b[0], A[0, 2], A[0, 3], sq) / sq[N + 1]
        yield slab


def rho_element(p: TwoPointParams, idx: FockIndex) -> complex:
    """Density-matrix element <N,M|rho|K,L> from the Gaussian recurrence.

    Diagonal elements (N = K, M = L) are the joint photon-number
    probabilities, real and nonnegative up to roundoff.
    """
    if idx.order > MAX_ORDER:
        raise DomainError(f"index order {idx.order} exceeds the maximum {MAX_ORDER}")
    A, b, c = gaussian_form(p)
    n = max(idx.N, idx.M, idx.K, idx.L)
    slab = next(itertools.islice(_slabs(A, b, n), idx.N, None))
    return complex(math.exp(c) * slab[idx.M, idx.K, idx.L])


def rho_element_quadrature(p: TwoPointParams, idx: FockIndex) -> complex:
    """Direct tensor-product quadrature of the matrix-element integral.

    Independent numerical oracle: brings the Gaussian weight of the
    4-dimensional field integral to standard form and applies a
    Gauss-Hermite grid that is exact for the polynomial part.  Certified
    by node refinement.  At g = 1 the covariance is singular and there is
    no density to integrate, so it raises DomainError.
    """
    if p.is_degenerate:
        raise DomainError("quadrature oracle requires g < 1")
    N, M, K, L = idx.N, idx.M, idx.K, idx.L
    if idx.order > 20:
        raise DomainError("quadrature oracle supports N+M+K+L <= 20")
    nodes = max(10, (idx.order + 2) // 2 + 4)

    mc = mean_cov(p)
    mu, gamma = mc.mu, mc.gamma

    def evaluate(nq: int) -> complex:
        gi = np.linalg.inv(gamma)
        a_mat = gi + 2.0 * np.eye(4)
        m = np.linalg.solve(a_mat, gi @ mu)
        c0 = 0.5 * m @ a_mat @ m - 0.5 * mu @ gi @ mu
        chol = np.linalg.cholesky(a_mat)
        b_mat = math.sqrt(2.0) * np.linalg.inv(chol).T
        t, wt = np.polynomial.hermite.hermgauss(nq)
        grid = np.stack(np.meshgrid(t, t, t, t, indexing="ij"), axis=-1).reshape(-1, 4)
        weights = (
            wt[:, None, None, None]
            * wt[None, :, None, None]
            * wt[None, None, :, None]
            * wt[None, None, None, :]
        ).reshape(-1)
        r = m + grid @ b_mat.T
        alpha = r[:, 0] + 1j * r[:, 1]
        beta = r[:, 2] + 1j * r[:, 3]
        poly = alpha**N * np.conj(alpha) ** K * beta**M * np.conj(beta) ** L
        pref = (
            math.exp(c0)
            * abs(np.linalg.det(b_mat))
            / (4.0 * math.pi**2 * math.sqrt(np.linalg.det(gamma)))
        )
        scale = math.exp(
            -0.5
            * (math.lgamma(N + 1) + math.lgamma(M + 1) + math.lgamma(K + 1) + math.lgamma(L + 1))
        )
        return pref * scale * complex(np.sum(weights * poly))

    val, ref = evaluate(nodes), evaluate(nodes + 4)
    if abs(val - ref) > 1e-8 * (1.0 + abs(ref)):
        raise CertificationError(f"quadrature for {idx} did not converge: {val} vs {ref}")
    return ref
