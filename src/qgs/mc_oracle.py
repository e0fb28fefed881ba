"""Monte Carlo realization of the two-detector state.

Sampling proceeds in two stages that mirror the physics: draw the
complex field amplitudes (alpha, beta) from their joint Gaussian law,
then draw photon counts as independent Poisson variables with means
|alpha|^2 and |beta|^2, since each ensemble member is a coherent
excitation.  The empirical joint count distribution is the brute-force
oracle for every analytic quantity in :mod:`qgs.fock_stats`.

Reproducibility: samples are generated in fixed-size blocks, each block
owning an SFC64 stream seeded by SeedSequence([master seed, block
index]).  Workers are assigned whole blocks, so results are bit-for-bit
identical for any worker count.

compare holds every gate of the analytic-versus-counts verdict as a
module constant; the total-variation gate scales with the sample count.

Each block works on four contiguous real rows: standard normals drawn as
one (4, count) array are turned in place into (Re alpha, Im alpha,
Re beta, Im beta), and the Poisson means are sums of squared rows.  The
count histogram masks overflowing draws only in a block that has one.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientCountsError
from .source_model import TwoPointParams

_BLOCK = 1 << 16
_COUNT_CAP = 512  # counts beyond this go to overflow_count
_MIN_MARGINAL_COUNTS = 100  # empirical_g2's floor on row-N and column-M counts
# compare's gates
_Z_THRESHOLD = 4.0
_MIN_EXPECTED = 25.0
_MAX_FAIL_FRACTION = 0.005
# the TV gate at 1e7 samples; the statistical TV noise floor scales as
# 1/sqrt(samples), and so does the gate
_TV_GATE_1E7 = 3e-3


@dataclass(frozen=True)
class EmpiricalPND:
    """Joint count matrix from a finished sampling run."""

    counts: np.ndarray
    total: int
    overflow_count: int
    params: TwoPointParams


@dataclass(frozen=True)
class G2Estimate:
    """Empirical wavepacket correlation with a delta-method standard error."""

    estimate: float
    std_error: float
    reliable: bool = True


@dataclass(frozen=True)
class ComparisonReport:
    """Analytic-versus-empirical verdict for one parameter set."""

    n_cells: int
    n_qualifying: int
    n_failing: int
    max_abs_z: float
    tv_distance: float
    passed: bool
    failing_cells: tuple = ()  # (N, M, z, expected count, observed count) per failing cell


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, block])))


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


def _block_plan(n_samples: int) -> list:
    return [(b, min(_BLOCK, n_samples - s)) for b, s in enumerate(range(0, n_samples, _BLOCK))]


@contextmanager
def sampling_pool(n_workers: int, n_samples: int):
    """The map empirical_pnd counts blocks with: a process pool's, or the builtin map.

    A fork pool starts all its workers at the first task, so it gets none
    beyond the blocks of one run or the CPUs; one worker is no pool.  Its
    map hands out one block at a time, so no worker idles at the end.
    """
    workers = min(n_workers, len(_block_plan(n_samples)), os.cpu_count() or 1)
    if workers < 2:
        yield map
    else:
        from concurrent.futures import ProcessPoolExecutor  # one-worker runs never load it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map


def _count_block(args):
    params, seed, block, count = args
    rng = _block_rng(seed, block)
    f = _block_fields(params, rng, count)
    np.square(f, out=f)
    n1 = rng.poisson(f[0] + f[1])
    n2 = rng.poisson(f[2] + f[3])
    over = 0
    if n1.max() >= _COUNT_CAP or n2.max() >= _COUNT_CAP:
        keep = (n1 < _COUNT_CAP) & (n2 < _COUNT_CAP)
        over = count - int(np.count_nonzero(keep))
        n1, n2 = n1[keep], n2[keep]
        if n1.size == 0:
            return np.zeros((1, 1), dtype=np.int64), over
    m1 = int(n1.max()) + 1
    m2 = int(n2.max()) + 1
    n1 *= m2
    n1 += n2
    mat = np.bincount(n1, minlength=m1 * m2).reshape(m1, m2)
    return mat.astype(np.int64, copy=False), over


def _merge_counts(blocks):
    m1 = max(b.shape[0] for b, _ in blocks)
    m2 = max(b.shape[1] for b, _ in blocks)
    out = np.zeros((m1, m2), dtype=np.int64)
    over = 0
    for mat, ov in blocks:
        out[: mat.shape[0], : mat.shape[1]] += mat
        over += ov
    return out, over


def empirical_pnd(params: TwoPointParams, n_samples: int, seed: int, count_map=map) -> EmpiricalPND:
    """Joint count matrix over n_samples independent field-then-count draws.

    Deterministic for a fixed seed and invariant under count_map, a
    sampling_pool's map: workers process disjoint whole blocks and the merge
    is a commutative matrix addition.  The caller checks the settings:
    MCSettings the sample and worker counts, ScanConfig the seed range.
    """
    tasks = [(params, seed, b, c) for b, c in _block_plan(n_samples)]
    counts, over = _merge_counts(list(count_map(_count_block, tasks)))
    return EmpiricalPND(counts=counts, total=n_samples, overflow_count=over, params=params)


def empirical_g2(e: EmpiricalPND, N: int, M: int) -> G2Estimate:
    """Empirical wavepacket correlation counts(N,M) total / (row(N) col(M)).

    The standard error comes from the delta method on the multinomial
    cell proportions, including row/column/cell covariances.
    """
    if N >= e.counts.shape[0] or M >= e.counts.shape[1]:
        raise InsufficientCountsError(f"no counts observed for pair ({N}, {M})")
    x = float(e.counts[N, M])
    row = float(e.counts[N, :].sum())
    col = float(e.counts[:, M].sum())
    t = float(e.total)
    if row < _MIN_MARGINAL_COUNTS or col < _MIN_MARGINAL_COUNTS:
        raise InsufficientCountsError(
            f"marginal counts ({row:.0f}, {col:.0f}) below floor {_MIN_MARGINAL_COUNTS}"
        )
    reliable = x >= 1
    if x == 0:
        return G2Estimate(estimate=0.0, std_error=float("nan"), reliable=False)
    est = x * t / (row * col)
    px, pr, pc = x / t, row / t, col / t
    var_log = (
        (1.0 - px) / x
        - (1.0 - pr) / row
        - (1.0 - pc) / col
        + 2.0 * (px - pr * pc) / (t * pr * pc)
    )
    se = est * math.sqrt(max(var_log, 0.0))
    return G2Estimate(estimate=est, std_error=se, reliable=reliable)


def compare(analytic, empirical: EmpiricalPND) -> ComparisonReport:
    """Per-cell z-score and total-variation comparison of the two routes.

    Cells with expected count >= _MIN_EXPECTED qualify for the z test; the
    verdict fails when no cell qualifies, when more than _MAX_FAIL_FRACTION
    of qualifying cells exceed _Z_THRESHOLD, or when the total variation
    distance reaches _TV_GATE_1E7 * sqrt(1e7 / total).
    """
    if analytic.params != empirical.params:
        raise DomainError("analytic and empirical distributions use different parameters")
    t = float(empirical.total)
    n_an = analytic.p.shape[0]
    n1 = max(n_an, empirical.counts.shape[0])
    n2 = max(n_an, empirical.counts.shape[1])
    pa = np.zeros((n1, n2))
    pa[:n_an, :n_an] = analytic.p
    obs = np.zeros((n1, n2))
    obs[: empirical.counts.shape[0], : empirical.counts.shape[1]] = empirical.counts

    expected = t * pa
    qual = expected >= _MIN_EXPECTED
    sd = np.sqrt(expected * (1.0 - pa))
    # a cell of p = 1 has no spread: any miss is an infinite z, an exact hit z = 0
    z = np.where(qual & (obs != expected), np.copysign(np.inf, obs - expected), 0.0)
    np.divide(obs - expected, sd, out=z, where=qual & (sd > 0))
    n_fail = int(np.sum(np.abs(z[qual]) > _Z_THRESHOLD))
    n_qual = int(np.sum(qual))
    failing = tuple(
        (int(i), int(j), float(z[i, j]), float(expected[i, j]), int(obs[i, j]))
        for i, j in zip(*np.nonzero(qual & (np.abs(z) > _Z_THRESHOLD)))
    )

    # lump the analytic tail against the empirical mass outside the grid
    emp_out = float(empirical.overflow_count)
    tv = 0.5 * (
        float(np.sum(np.abs(obs / t - pa))) + abs(emp_out / t - analytic.tail_mass)
    )

    tv_gate = _TV_GATE_1E7 * math.sqrt(1e7 / t)
    passed = (n_qual > 0) and (n_fail <= _MAX_FAIL_FRACTION * n_qual) and (tv < tv_gate)
    max_z = float(np.max(np.abs(z[qual]))) if n_qual else float("nan")
    return ComparisonReport(
        n_cells=int(pa.size),
        n_qualifying=n_qual,
        n_failing=n_fail,
        max_abs_z=max_z,
        tv_distance=tv,
        passed=passed,
        failing_cells=failing,
    )
