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
identical for any worker count; block counts are summed as they arrive.

compare holds every gate of the analytic-versus-counts verdict as a
module constant; the total-variation gate scales with the sample count.

Each block holds three count-length float64 rows: |alpha|^2, s2 g Re w1
(which becomes |beta|^2) and s2 g Im w1, with s2 = sqrt(n2/2).  The stream's
normals, read as the rows (Re w1, Im w1, Re w2, Im w2) of a (4, count)
array, arrive as one whole row and then _CHUNK at a time, and each chunk
is folded into the rows.  Every float operation keeps the order of the
one-shot (4, count) formula, because test_sample_stream_is_frozen pins
the draws bit for bit.  The third row is freed before the Poisson draws,
which are also taken _CHUNK at a time and overwrite the means they read.
A block with an overflowing draw counts it at (0, 0) and takes it off
there.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .source_model import TwoPointParams

_BLOCK = 1 << 16
_COUNT_CAP = 512  # counts beyond this go to overflow_count
_CHUNK = 8192  # draws taken at a time after a block's first row of normals
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


def _spans(count: int) -> list:
    return [(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]


def _block_means(p: TwoPointParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Poisson means (|alpha|^2, |beta|^2) of one block of correlated field draws, as rows.

    Explicit Cholesky factor of the 2x2 complex covariance, exact at g = 1:
    alpha = mu1 + sqrt(n1/2) w1 and
    beta = mu2 + sqrt(n2/2) (g w1 + sqrt(1 - g^2) w2), where the stream's
    normals are the rows (Re w1, Im w1, Re w2, Im w2) of a (4, count) array.
    Row 0 is drawn whole, rows 1 to 3 _CHUNK at a time.
    """
    s1 = math.sqrt(p.n1 / 2.0)
    s2 = math.sqrt(p.n2 / 2.0)
    c2 = s2 * math.sqrt((1.0 - p.g) * (1.0 + p.g))
    s2g = s2 * p.g
    lam = np.empty((2, count))
    lam1, lam2 = lam
    rng.standard_normal(out=lam1)
    np.multiply(lam1, s2g, out=lam2)  # s2 g Re w1 until row 2 turns it into (Re beta)^2
    gw1i = np.empty(count)  # s2 g Im w1
    lam1 *= s1
    lam1 += p.mu1.real
    np.square(lam1, out=lam1)
    chunk = np.empty(min(_CHUNK, count))
    spans = _spans(count)
    for lo, hi in spans:  # Im w1
        w = rng.standard_normal(out=chunk[: hi - lo])
        np.multiply(w, s2g, out=gw1i[lo:hi])
        w *= s1
        w += p.mu1.imag
        np.square(w, out=w)
        lam1[lo:hi] += w
    for lo, hi in spans:  # Re w2
        w = rng.standard_normal(out=chunk[: hi - lo])
        w *= c2
        w += lam2[lo:hi]
        w += p.mu2.real
        np.square(w, out=lam2[lo:hi])
    for lo, hi in spans:  # Im w2
        w = rng.standard_normal(out=chunk[: hi - lo])
        w *= c2
        w += gw1i[lo:hi]
        w += p.mu2.imag
        np.square(w, out=w)
        lam2[lo:hi] += w
    return lam


def _count_block(args):
    params, seed, block, count = args
    rng = _block_rng(seed, block)
    lam = _block_means(params, rng, count)
    # each chunk's counts overwrite the means they were drawn from: separate
    # count rows made a worker's heap give back and re-fault pages every block
    counts = lam.view(np.int64)
    spans = _spans(count)
    for row in (0, 1):
        for lo, hi in spans:
            counts[row, lo:hi] = rng.poisson(lam[row, lo:hi])
    n1, n2 = counts
    over = 0
    if n1.max() >= _COUNT_CAP or n2.max() >= _COUNT_CAP:
        # an overflowing draw is counted at (0, 0) and taken off there below,
        # so no copy of the kept draws is made
        lost = (n1 >= _COUNT_CAP) | (n2 >= _COUNT_CAP)
        over = int(np.count_nonzero(lost))
        np.copyto(n1, 0, where=lost)
        np.copyto(n2, 0, where=lost)
    m1 = int(n1.max()) + 1
    m2 = int(n2.max()) + 1
    n1 *= m2
    n1 += n2
    mat = np.bincount(n1, minlength=m1 * m2).reshape(m1, m2).astype(np.int64, copy=False)
    mat[0, 0] -= over
    return mat, over


def _padded(mat: np.ndarray, shape) -> np.ndarray:
    """mat in the top-left corner of a zero matrix of the given shape."""
    return np.pad(mat, [(0, n - m) for n, m in zip(shape, mat.shape)])


def empirical_pnd(params: TwoPointParams, n_samples: int, seed: int, count_map=map) -> EmpiricalPND:
    """Joint count matrix over n_samples independent field-then-count draws.

    Blocks are added to one count matrix as count_map yields them, so memory
    is that matrix plus the block results in flight, whatever the sample
    count.  Deterministic for a fixed seed and invariant under count_map, a
    sampling_pool's map: workers process disjoint whole blocks and the sum
    is a commutative matrix addition.  The caller checks the settings:
    MCSettings the sample and worker counts, ScanConfig the seed range.
    """
    tasks = [(params, seed, b, c) for b, c in _block_plan(n_samples)]
    counts, over = np.zeros((1, 1), dtype=np.int64), 0
    for mat, ov in count_map(_count_block, tasks):
        if mat.shape[0] > counts.shape[0] or mat.shape[1] > counts.shape[1]:
            counts = _padded(counts, np.maximum(counts.shape, mat.shape))
        counts[: mat.shape[0], : mat.shape[1]] += mat
        over += ov
    return EmpiricalPND(counts=counts, total=n_samples, overflow_count=over, params=params)


def compare(analytic, empirical: EmpiricalPND) -> ComparisonReport:
    """Per-cell z-score and total-variation comparison of the two routes.

    The total variation runs over the cells of the analytic grid plus one
    cell that holds the analytic tail_mass against every count off the
    grid, overflow_count included.

    Cells with expected count >= _MIN_EXPECTED qualify for the z test; the
    verdict fails when no cell qualifies, when more than _MAX_FAIL_FRACTION
    of qualifying cells exceed _Z_THRESHOLD, or when the total variation
    distance reaches _TV_GATE_1E7 * sqrt(1e7 / total).
    """
    if analytic.params != empirical.params:
        raise DomainError("analytic and empirical distributions use different parameters")
    t = float(empirical.total)
    n_an = analytic.p.shape[0]
    shape = np.maximum(analytic.p.shape, empirical.counts.shape)
    pa = _padded(analytic.p, shape)
    obs = _padded(empirical.counts, shape)

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

    # cells on the analytic grid, then its tail lumped against every count off it
    inside = obs[:n_an, :n_an]
    emp_out = float(obs.sum() - inside.sum()) + empirical.overflow_count
    tv = 0.5 * (
        float(np.sum(np.abs(inside / t - analytic.p))) + abs(emp_out / t - analytic.tail_mass)
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
