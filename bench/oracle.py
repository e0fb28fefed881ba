"""Independent reference for `qgs` outputs: the count generating function.

The detector fields (alpha, beta) of a coherent + Gaussian-Schell beam are
complex Gaussian with mean m = (mu1, mu2) and covariance
C = [[n1, c], [c, n2]], c = g sqrt(n1 n2).  Photodetection turns them into
counts whose two-variable generating function is (Mandel & Wolf, *Optical
Coherence and Quantum Optics*, ch. 14)

    E[z1^N z2^M] = exp(-m^H L (I + C L)^-1 m) / det(I + C L),
    L = diag(1 - z1, 1 - z2).

Sampling it on a grid of the unit torus and taking a 2-D FFT gives every
p(N, M) at once, aliased only by the mass at N or M >= GRID.  Nothing here
shares code with `qgs.fock_stats`: the beam reduction, the marginals (a
Laguerre sum) and the classical g2 (a closed form) are all written out
again below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID = 128
# Cells at least this large are compared relatively; the FFT's absolute
# round-off (~1e-17 per cell) keeps them within REL_TOL.
CELL_FLOOR = 1e-10
REL_TOL = 1e-6
# The program's classical g2 comes from the truncated table: it matches the
# reference truncated at the same n_eff to round-off, and the untruncated
# closed form only to the tail's weight.
CLASSICAL_TRUNC_TOL = 1e-9
CLASSICAL_CLOSED_TOL = 1e-4
TAIL_MATCH_TOL = 1e-12
HARD_CAP = 40
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class Beam:
    """Beam profile: peak thermal photon number, peak coherent amplitude, widths."""

    n_peak: float
    mu_peak: complex = 1.0
    sigma0: float = 4.0
    sigma1: float = 1.0


def default_n_peak(target: float = 1.7, mu_peak: float = 1.0) -> float:
    """n_peak whose zero-separation g2 is target: thermal fraction f = 1 - sqrt(2 - target)."""
    f = 1.0 - math.sqrt(2.0 - target)
    return f * mu_peak**2 / (1.0 - f)


@dataclass(frozen=True)
class Reference:
    """Generating-function results for one detector separation."""

    separation: float
    n1: float
    n2: float
    g: float
    mu1: complex
    mu2: complex
    p: np.ndarray
    tails: np.ndarray  # tails[n] = 1 - sum of p over N, M <= n

    def marginal(self, detector: int, n: int) -> float:
        nbar, mu = (self.n1, self.mu1) if detector == 1 else (self.n2, self.mu2)
        return laguerre_marginal(nbar, mu, n)

    def classical_closed(self) -> float:
        i1 = abs(self.mu1) ** 2 + self.n1
        i2 = abs(self.mu2) ** 2 + self.n2
        c = self.g * math.sqrt(self.n1 * self.n2)
        return 1.0 + (c * c + 2.0 * c * (self.mu1.conjugate() * self.mu2).real) / (i1 * i2)

    def classical_truncated(self, n_eff: int) -> float:
        q = self.p[: n_eff + 1, : n_eff + 1]
        ns = np.arange(n_eff + 1, dtype=float)
        return float(ns @ q @ ns) / (float(ns @ q.sum(axis=1)) * float(q.sum(axis=0) @ ns))


def laguerre_marginal(nbar: float, mu: complex, n: int) -> float:
    """Displaced-thermal p(n) = r^n/(1+nbar) e^{-|mu|^2/(1+nbar)} sum_k C(n,k) x^k/k!."""
    m2 = abs(mu) ** 2
    x = m2 / (nbar * (1.0 + nbar))
    lag = sum(math.comb(n, k) * x**k / math.factorial(k) for k in range(n + 1))
    return (nbar / (1.0 + nbar)) ** n / (1.0 + nbar) * math.exp(-m2 / (1.0 + nbar)) * lag


def count_pmf(n1, n2, g, mu1, mu2) -> np.ndarray:
    """p(N, M) for N, M < GRID from the generating function on the unit torus."""
    z = np.exp(2j * np.pi * np.arange(GRID) / GRID)
    l1 = (1.0 - z)[:, None]
    l2 = (1.0 - z)[None, :]
    c = g * math.sqrt(n1 * n2)
    a11 = 1.0 + n1 * l1
    a22 = 1.0 + n2 * l2
    det = a11 * a22 - c * c * l1 * l2
    # m^H L (I + C L)^-1 m with L (I + C L)^-1 = [[l1 a22, -c l1 l2], [-c l1 l2, l2 a11]] / det
    quad = (
        abs(mu1) ** 2 * l1 * a22
        + abs(mu2) ** 2 * l2 * a11
        - 2.0 * c * (mu1.conjugate() * mu2).real * l1 * l2
    ) / det
    gen = np.exp(-quad) / det
    return np.fft.fft2(gen).real / (GRID * GRID)


def reference(beam: Beam, separation: float) -> Reference:
    """Detector 1 at the beam centre (the CLI's fixed_position 0), detector 2 at separation."""
    env = math.exp(-separation * separation / beam.sigma0)
    n1, n2 = beam.n_peak, beam.n_peak * env
    mu1, mu2 = complex(beam.mu_peak), complex(beam.mu_peak) * env
    g = math.exp(-separation * separation / beam.sigma1)
    p = count_pmf(n1, n2, g, mu1, mu2)
    cum = np.cumsum(np.cumsum(p, axis=0), axis=1)
    tails = 1.0 - np.diagonal(cum)
    return Reference(separation, n1, n2, g, mu1, mu2, p, tails)


def self_check(ref: Reference) -> list[str]:
    """The FFT route against its own closed-form marginals (N <= HARD_CAP) and normalization."""
    errors = []
    for detector, sums in ((1, ref.p.sum(axis=1)), (2, ref.p.sum(axis=0))):
        want = np.array([ref.marginal(detector, n) for n in range(HARD_CAP + 1)])
        dev = float(np.max(np.abs(sums[: HARD_CAP + 1] - want)))
        if dev > 1e-13:
            errors.append(f"oracle: marginal {detector} off by {dev:.2e} at separation {ref.separation:g}")
    if abs(float(ref.p.sum()) - 1.0) > 1e-13:
        errors.append(f"oracle: p sums to {ref.p.sum()!r} at separation {ref.separation:g}")
    return errors


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_row(row: dict, ref: Reference, tail_tol: float) -> list[str]:
    """Every check on one parsed CSV row of `qgs scan` (strings as written)."""
    n, m = int(row["N"]), int(row["M"])
    where = f"row separation={ref.separation:g} pair=({n},{m})"
    flags = tuple(f for f in row["flags"].split(";") if f)
    want_flags = ("degenerate-g",) if ref.g >= 1.0 - DEGENERACY_TOL else ()
    if flags != want_flags:
        return [f"{where}: flags {flags} != {want_flags}"]
    try:
        g2 = float(row["g2_tilde"])
        log2g2 = float(row["log2_g2_tilde"])
        classical = float(row["classical_g2"])
        tail = float(row["tail_mass"])
    except ValueError as exc:
        return [f"{where}: unparsable value ({exc})"]
    errors = []
    if not (math.isfinite(g2) and g2 > 0.0):
        errors.append(f"{where}: g2_tilde {g2!r} not finite and positive")
    elif abs(log2g2 - math.log2(g2)) > 1e-12 * max(1.0, abs(log2g2)):
        errors.append(f"{where}: log2_g2_tilde {log2g2!r} != log2({g2!r})")
    if not (0.0 <= tail < tail_tol):
        errors.append(f"{where}: tail_mass {tail!r} outside [0, {tail_tol})")
    if ref.p[n, m] >= CELL_FLOOR:
        want = float(ref.p[n, m]) / (ref.marginal(1, n) * ref.marginal(2, m))
        if not _rel(g2, want) <= REL_TOL:
            errors.append(f"{where}: g2_tilde {g2!r} vs generating function {want!r}")
    if not _rel(classical, ref.classical_closed()) <= CLASSICAL_CLOSED_TOL:
        errors.append(f"{where}: classical_g2 {classical!r} vs closed form {ref.classical_closed()!r}")
    n_eff = matching_truncation(ref, tail)
    if n_eff is None:
        errors.append(f"{where}: tail_mass {tail!r} matches no truncation of the reference")
    elif not _rel(classical, ref.classical_truncated(n_eff)) <= CLASSICAL_TRUNC_TOL:
        errors.append(
            f"{where}: classical_g2 {classical!r} vs reference truncated at n_eff={n_eff} "
            f"{ref.classical_truncated(n_eff)!r}"
        )
    return errors


def matching_truncation(ref: Reference, tail: float) -> int | None:
    """The truncation n <= HARD_CAP whose reference tail equals the reported tail_mass."""
    hits = np.nonzero(np.abs(ref.tails[: HARD_CAP + 1] - tail) <= TAIL_MATCH_TOL)[0]
    return int(hits[0]) if hits.size == 1 else None


def check_scan(rows: list[dict], refs: dict, pairs, tail_tol: float) -> list[str]:
    """Row set, order and values of one scan output against the references.

    refs maps each expected separation, in scan order, to its Reference.
    """
    expected = [(sep, pair) for sep in refs for pair in pairs]
    got = [(float(r["separation"]), (int(r["N"]), int(r["M"]))) for r in rows]
    if len(got) != len(expected) or any(
        abs(gs - es) > 1e-12 or gp != ep for (gs, gp), (es, ep) in zip(got, expected)
    ):
        return [f"scan rows {got[:3]}... do not match the expected {len(expected)} rows"]
    errors = []
    for row, (sep, _) in zip(rows, expected):
        errors += check_row(row, refs[sep], tail_tol)
    return errors


def check_validate(doc: dict, separations, n_samples: int, seed: int) -> list[str]:
    """Verdict and make-up of one `qgs validate` report."""
    errors = []
    results = doc.get("results", [])
    seen = [(r["separation"], r["n_samples"], r["seed"]) for r in results]
    want = [(s, n_samples, seed + i) for i, s in enumerate(separations)]
    if seen != want:
        errors.append(f"validate report covers {seen}, expected {want}")
    for r in results:
        if r["report"]["passed"] is not True:
            errors.append(f"validate failed at separation {r['separation']}: {r['report']}")
    if doc.get("passed") is not True:
        errors.append("validate report is not passed")
    return errors
