"""Independent brute-force oracles used to freeze and check expected values.

Nothing here shares code with the package paths under test: the series
oracle sums Kummer terms directly in 50-digit arithmetic, and the moment
and element oracles integrate numerically.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate

mp.mp.dps = 50


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
