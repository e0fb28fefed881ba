"""Monte Carlo sampler: the field-draw rule, the chunked block kernel against
the one-shot reference and its working set, the frozen sample stream and
worker-count invariance, and compare's verdict on constructed count matrices."""

import math
import multiprocessing
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qgs import mc_oracle
from qgs.errors import DomainError
from qgs.fock_stats import JointPND
from qgs.mc_oracle import (
    EmpiricalPND,
    _block_means,
    _block_rng,
    _count_block,
    compare,
    empirical_pnd,
    sampling_pool,
)
from qgs.scan import default_config
from qgs.source_model import TwoPointParams, two_point_params

from oracles import _block_fields, mean_cov


@pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.999])
def test_block_matches_matmul_route(g):
    # the same normals pushed through a Cholesky factor of the real 4x4 covariance
    p = TwoPointParams(n1=0.8, n2=1.3, g=g, mu1=0.6 - 0.2j, mu2=0.1 + 0.4j)
    fields = _block_fields(p, _block_rng(7, 3), 4096)
    mc = mean_cov(p)
    z = _block_rng(7, 3).standard_normal((4, 4096))
    r = mc.mu[:, None] + np.linalg.cholesky(mc.gamma) @ z
    assert np.max(np.abs(fields - r)) < 1e-13


def test_g1_block_locks_fluctuations():
    p = TwoPointParams(n1=0.5, n2=2.0, g=1.0, mu1=0.5 + 0j, mu2=1.0 + 0j)
    fields = _block_fields(p, _block_rng(1, 0), 4096)
    mu = mean_cov(p).mu[:, None]
    d = fields - mu
    assert np.max(np.abs(d[2:] - d[:2] * math.sqrt(p.n2 / p.n1))) < 1e-14


def reference_count_block(p, seed, block, count):
    """_count_block's Poisson means, counts and overflow, built from the one-shot field draw."""
    rng = _block_rng(seed, block)
    f = _block_fields(p, rng, count)
    np.square(f, out=f)
    lam1, lam2 = f[0] + f[1], f[2] + f[3]
    n1 = rng.poisson(lam1)
    n2 = rng.poisson(lam2)
    keep = (n1 < mc_oracle._COUNT_CAP) & (n2 < mc_oracle._COUNT_CAP)
    if not keep.any():
        return (lam1, lam2), np.zeros((1, 1), dtype=np.int64), count
    n1, n2 = n1[keep], n2[keep]
    mat = np.zeros((n1.max() + 1, n2.max() + 1), dtype=np.int64)
    np.add.at(mat, (n1, n2), 1)
    return (lam1, lam2), mat, count - n1.size


CHUNK = mc_oracle._CHUNK


@pytest.mark.parametrize("count", [1, 17, CHUNK - 1, CHUNK, CHUNK + 1, 40000, 65536])
@pytest.mark.parametrize("g", [0.0, 0.5, 0.999, 1.0])
@pytest.mark.parametrize(
    # means of 400 and 1e12 photons put some and all draws past _COUNT_CAP
    "n1", [0.8, 400.0, 1e12], ids=["dim", "overflowing", "all-overflowing"]
)
def test_count_block_matches_one_shot_reference(n1, g, count):
    # the means bit for bit: a change of rounding moves almost no count
    p = TwoPointParams(n1=n1, n2=1.3, g=g, mu1=0.6 - 0.2j, mu2=0.1 + 0.4j)
    want_means, want, want_over = reference_count_block(p, 11, 2, count)
    assert np.array_equal(_block_means(p, _block_rng(11, 2), count), want_means)
    mat, over = _count_block((p, 11, 2, count))
    assert np.array_equal(mat, want)
    assert over == want_over
    if n1 == 1e12:
        assert over == count
    elif n1 == 400.0 and count >= CHUNK:
        assert over > 0


@pytest.mark.parametrize("n1", [0.8, 400.0], ids=["dim", "overflowing"])
def test_count_block_working_set(n1):
    # three count-length float64 rows and one chunk make 1.56 MiB; the one-shot
    # (4, count) draw with its beta temporary peaked at 3.51 MiB
    p = TwoPointParams(n1=n1, n2=1.3, g=0.5, mu1=0.6 - 0.2j, mu2=0.1 + 0.4j)
    task = (p, 11, 2, 65536)
    _count_block(task)
    tracemalloc.start()
    try:
        _count_block(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 2**20


def test_empirical_pnd_working_set_does_not_grow_with_blocks():
    # the n_peak 10 beam at separation 0, whose block matrices are about 140 x 140
    # int64 (150 KiB): holding every block until one merge grew the peak by one
    # such matrix per block, 2.0 MiB at 4 blocks and 7.1 MiB at 40
    p = TwoPointParams(n1=10.0, n2=10.0, g=1.0, mu1=1.0 + 0j, mu2=1.0 + 0j)
    empirical_pnd(p, 65536, 5)
    peaks = []
    for n_blocks in (4, 40):
        tracemalloc.start()
        try:
            emp = empirical_pnd(p, n_blocks * 65536, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + emp.counts.nbytes


def sample(p, n_samples, seed, n_workers):
    with sampling_pool(n_workers, n_samples) as pool:
        return empirical_pnd(p, n_samples, seed, pool)


def test_counts_identical_across_worker_counts(monkeypatch):
    # 6 blocks: 4 workers take uneven shares of 2, 2, 1 and 1
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    runs = [sample(p, 5 * 65536 + 123, 99, w) for w in (1, 2, 3, 4)]
    for run in runs[1:]:
        assert np.array_equal(run.counts, runs[0].counts)
        assert run.overflow_count == runs[0].overflow_count


def test_overflow_counted_and_worker_invariant():
    # a mean of 400 photons puts about a quarter of the draws past _COUNT_CAP = 512
    p = TwoPointParams(n1=400.0, n2=0.6, g=0.3, mu1=1.0 + 0j, mu2=0.5j)
    n = 2 * 65536 + 17
    runs = [sample(p, n, 5, w) for w in (1, 2)]
    assert runs[0].overflow_count > 0
    assert runs[0].counts.sum() + runs[0].overflow_count == n
    assert np.array_equal(runs[1].counts, runs[0].counts)
    assert runs[1].overflow_count == runs[0].overflow_count


@pytest.mark.parametrize(
    "n_blocks, n_workers, cpus, sizes",
    [
        (2, 4, 8, [2]),  # no more workers than blocks
        (92, 2, 8, [2]),  # 6e6 samples
        (92, 4, 3, [3]),  # no more workers than CPUs
        (92, 4, 1, []),
        (92, 4, None, []),  # an unknown CPU count counts as one
        (1, 4, 8, []),
    ],
)
def test_sampling_pool_is_capped(pool_sizes, monkeypatch, n_blocks, n_workers, cpus, sizes):
    # the cap changes the pool only: every block, with its own seed, is still
    # counted once, share by share (blocks k, k + shares, ... in share k)
    seen = []

    def count_block(task):
        seen.append(task[1:])
        return np.array([[task[3]]], dtype=np.int64), 0

    monkeypatch.setattr(mc_oracle, "_count_block", count_block)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    n = (n_blocks - 1) * mc_oracle._BLOCK + 17
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    emp = sample(p, n, 99, n_workers)
    assert pool_sizes == [(size, "fork") for size in sizes]
    shares = (sizes or [1])[0]
    order = [b for k in range(shares) for b in range(k, n_blocks, shares)]
    assert seen == [(99, b, mc_oracle._BLOCK if b < n_blocks - 1 else 17) for b in order]
    assert emp.counts.tolist() == [[n]]


# Stand-ins for _count_block that a real pool runs: defined at module level,
# so the pool pickles them by name.
def count_block_stub(task):
    return np.array([[task[3]]], dtype=np.int64), 0


def count_block_failing_at_3(task):
    if task[2] == 3:
        raise DomainError("block 3 failed")
    return count_block_stub(task)


def test_pool_memory_does_not_grow_with_blocks(monkeypatch):
    # a ProcessPoolExecutor's map holds one future per block before it yields
    # the first result: its traced peak went from 98 KB at 40 blocks to
    # 4.29 MB at 2,000, a lazy per-block imap's from at most 34 KB to at most
    # 215 KB, on a loaded machine too, and one share per worker reads 12-14 KB
    # at both; the bound allows 512 KiB of growth
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc_oracle, "_count_block", count_block_stub)
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    peaks = []
    with sampling_pool(2, 2000 * mc_oracle._BLOCK) as pool:
        empirical_pnd(p, 4 * mc_oracle._BLOCK, 5, pool)
        for n_blocks in (40, 2000):
            n = n_blocks * mc_oracle._BLOCK
            tracemalloc.start()
            try:
                emp = empirical_pnd(p, n, 5, pool)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert emp.counts.tolist() == [[n]]
    assert peaks[1] - peaks[0] <= 512 * 2**10


def test_pool_gets_one_task_per_worker(monkeypatch):
    # a task per block had the parent feed the pool and read a result once
    # per block; one share per worker is two tasks at any block count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc_oracle, "_count_block", count_block_stub)
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    handed = []
    with sampling_pool(2, 2000 * mc_oracle._BLOCK) as (pool_map, shares):

        def counted_map(fn, tasks):
            tasks = list(tasks)
            handed.append(len(tasks))
            return pool_map(fn, tasks)

        for n_blocks in (40, 2000):
            n = n_blocks * mc_oracle._BLOCK
            emp = empirical_pnd(p, n, 5, (counted_map, shares))
            assert emp.counts.tolist() == [[n]]
    assert handed == [2, 2]


def test_worker_error_reaches_caller_and_leaves_no_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(mc_oracle, "_count_block", count_block_failing_at_3)
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    n = 40 * mc_oracle._BLOCK
    with pytest.raises(DomainError, match="block 3 failed"):
        with sampling_pool(2, n) as pool:
            empirical_pnd(p, n, 5, pool)
    assert multiprocessing.active_children() == []


# The counts of a run of 2 * 65536 + 17 samples at seed 5, frozen: a change
# to the draws fails here instead of showing as a new roll of validate's
# gates at some seed.
FROZEN_COUNTS = [
    [22709, 10618, 4683, 2059, 865, 370, 105, 52, 21, 11, 4, 1, 0, 0, 0],
    [17396, 7994, 3491, 1523, 640, 310, 121, 43, 21, 10, 2, 1, 1, 0, 0],
    [11982, 5445, 2376, 1062, 468, 214, 100, 46, 18, 5, 1, 2, 0, 0, 0],
    [7497, 3641, 1739, 739, 349, 176, 71, 32, 21, 10, 0, 2, 0, 0, 1],
    [4509, 2237, 1184, 580, 251, 116, 63, 25, 7, 4, 5, 1, 0, 1, 0],
    [2696, 1367, 693, 372, 194, 91, 30, 18, 4, 4, 4, 1, 0, 0, 0],
    [1432, 853, 437, 240, 118, 60, 26, 13, 6, 0, 1, 3, 0, 0, 2],
    [807, 497, 282, 176, 82, 52, 19, 14, 4, 4, 0, 0, 0, 0, 0],
    [428, 288, 177, 88, 44, 24, 15, 6, 1, 1, 1, 0, 0, 0, 0],
    [218, 137, 114, 60, 30, 20, 5, 5, 2, 3, 0, 0, 0, 1, 0],
    [129, 96, 64, 49, 17, 9, 6, 2, 0, 1, 0, 0, 0, 0, 0],
    [56, 61, 32, 20, 9, 10, 6, 2, 0, 0, 0, 0, 0, 0, 0],
    [30, 22, 19, 8, 4, 7, 3, 1, 1, 1, 0, 0, 0, 0, 0],
    [19, 7, 9, 5, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [6, 10, 6, 7, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
    [8, 3, 4, 2, 2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
    [3, 3, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    [1, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def test_sample_stream_is_frozen():
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    emp = empirical_pnd(p, 2 * 65536 + 17, 5)
    assert emp.overflow_count == 0
    assert emp.counts.tolist() == FROZEN_COUNTS


def test_default_beam_never_overflows():
    cfg = default_config()
    p = two_point_params(cfg.profile, cfg.fixed_position, cfg.fixed_position)
    emp = empirical_pnd(p, 65536 + 1, 3)
    assert emp.overflow_count == 0
    assert emp.counts.sum() == emp.total


P = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)


def uniform_analytic(tail_mass=0.0, params=P):
    """100 cells of equal probability and tail_mass beyond them."""
    p = np.full((10, 10), (1.0 - tail_mass) / 100)
    return JointPND(9, p, tail_mass, params, marginals=(p.sum(axis=1), p.sum(axis=0)))


def checkerboard(total, d):
    """total / 100 counts per cell, moved by +d and -d on alternate cells."""
    sign = np.where(np.add.outer(np.arange(10), np.arange(10)) % 2 == 0, 1, -1)
    return EmpiricalPND(counts=total // 100 + d * sign, total=total, overflow_count=0, params=P)


@pytest.mark.parametrize(
    "total, gate", [(10_000_000, 3e-3), (6_000_000, 3.873e-3)], ids=["1e7", "6e6"]
)
@pytest.mark.parametrize("side, passed", [(0.999, True), (1.001, False)], ids=["under", "over"])
def test_tv_gate(total, gate, side, passed):
    # the checkerboard's TV is 50 d / total, and no cell's |z| reaches 2
    d = round(side * gate * total / 50)
    report = compare(uniform_analytic(), checkerboard(total, d))
    assert report.n_failing == 0 and report.max_abs_z < 2
    assert report.tv_distance == pytest.approx(50 * d / total, rel=1e-9)
    assert report.passed is passed


def test_tv_counts_overflow_against_tail_mass():
    # 1 % of the mass lies beyond the grid: the counts match the cells
    # exactly, and the overflow either matches the tail or is missing
    counts = np.full((10, 10), 99_000)
    emp = EmpiricalPND(counts=counts, total=10_000_000, overflow_count=100_000, params=P)
    matched = compare(uniform_analytic(tail_mass=0.01), emp)
    assert matched.tv_distance < 1e-12 and matched.passed
    missing = compare(uniform_analytic(tail_mass=0.01), replace(emp, overflow_count=0))
    assert missing.tv_distance == pytest.approx(5e-3, rel=1e-9)
    assert missing.n_failing == 0 and not missing.passed


def test_tv_lumps_counts_off_the_grid_with_overflow():
    # counts past the 2 x 2 grid but below the overflow cap belong to the
    # tail too: scored once against tail_mass, not again against empty cells
    p = np.array([[0.5, 0.2], [0.2, 0.09]])
    analytic = JointPND(1, p, 0.01, P, marginals=(p.sum(axis=1), p.sum(axis=0)))
    counts = np.zeros((4, 2), dtype=np.int64)
    counts[:2, :2] = [[50, 20], [20, 9]]
    counts[3, 0] = 1
    emp = EmpiricalPND(counts=counts, total=100, overflow_count=0, params=P)
    assert compare(analytic, emp).tv_distance == pytest.approx(0.0, abs=1e-15)


def test_compare_working_set_is_bounded_by_the_analytic_grid():
    # counts that reach (399, 399) on a 10 x 10 grid: every array scored on the
    # union of the two shapes was 400 x 400 float64 (1.2 MiB)
    counts = np.zeros((400, 400), dtype=np.int64)
    counts[:10, :10] = 100_000
    counts[399, 399] = 1
    total = 10_000_001
    emp = EmpiricalPND(counts=counts, total=total, overflow_count=0, params=P)
    compare(uniform_analytic(), emp)
    tracemalloc.start()
    try:
        report = compare(uniform_analytic(), emp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10
    assert report.n_cells == 100
    # the grid's cells fall short of their 0.01 by 1 / total in all, and the
    # one count off it is scored once, as the tail cell against tail_mass 0
    assert report.tv_distance == pytest.approx(1 / total, rel=1e-6)


def test_mismatched_params_rejected():
    with pytest.raises(DomainError):
        compare(uniform_analytic(params=replace(P, g=0.5)), checkerboard(10_000_000, 0))


def test_no_qualifying_cell_fails():
    # one count expected per cell, below the 25 a z test needs
    report = compare(uniform_analytic(), checkerboard(100, 0))
    assert report.n_qualifying == 0 and report.tv_distance < 1e-12
    assert math.isnan(report.max_abs_z) and not report.passed


def vacuum_analytic():
    """The 1 x 1 distribution p = [[1.0]] of a beam with no photons."""
    p = np.ones((1, 1))
    return JointPND(0, p, 0.0, P, marginals=(p.sum(axis=1), p.sum(axis=0)))


def test_zero_variance_cell_exact_counts_pass():
    emp = EmpiricalPND(counts=np.array([[20_000]]), total=20_000, overflow_count=0, params=P)
    report = compare(vacuum_analytic(), emp)
    assert report.n_qualifying == 1 and report.n_failing == 0
    assert report.max_abs_z == 0 and report.passed


def test_zero_variance_cell_moved_count_fails():
    # one count moved from the certain cell (0, 0) into (0, 1)
    counts = np.array([[19_999, 1]])
    emp = EmpiricalPND(counts=counts, total=20_000, overflow_count=0, params=P)
    report = compare(vacuum_analytic(), emp)
    assert report.n_qualifying == 1 and report.n_failing == 1
    assert report.max_abs_z == math.inf and not report.passed
    assert report.failing_cells == ((0, 0, -math.inf, 20_000.0, 19_999),)
