"""Monte Carlo sampler: the field-draw rule and worker-count invariance."""

import math

import numpy as np
import pytest

from qgs.mc_oracle import SamplerConfig, _block_fields, _block_rng, empirical_pnd
from qgs.source_model import TwoPointParams, mean_cov


@pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.999])
def test_block_matches_matmul_route(g):
    # the same normals pushed through a Cholesky factor of the real 4x4 covariance
    p = TwoPointParams(n1=0.8, n2=1.3, g=g, mu1=0.6 - 0.2j, mu2=0.1 + 0.4j)
    alpha, beta = _block_fields(p, _block_rng(7, 3), 4096)
    mc = mean_cov(p)
    z = _block_rng(7, 3).standard_normal((4096, 4))
    r = mc.mu + z @ np.linalg.cholesky(mc.gamma).T
    assert np.max(np.abs(alpha - (r[:, 0] + 1j * r[:, 1]))) < 1e-13
    assert np.max(np.abs(beta - (r[:, 2] + 1j * r[:, 3]))) < 1e-13


def test_g1_block_locks_fluctuations():
    p = TwoPointParams(n1=0.5, n2=2.0, g=1.0, mu1=0.5 + 0j, mu2=1.0 + 0j)
    alpha, beta = _block_fields(p, _block_rng(1, 0), 4096)
    assert np.max(np.abs((beta - p.mu2) - (alpha - p.mu1) * math.sqrt(p.n2 / p.n1))) < 1e-14


def test_counts_identical_across_worker_counts():
    p = TwoPointParams(n1=0.8, n2=0.6, g=0.7, mu1=1.0 + 0j, mu2=0.5j)
    runs = [
        empirical_pnd(SamplerConfig(params=p, n_samples=5 * 65536 + 123, seed=99, n_workers=w))
        for w in (1, 2, 3)
    ]
    for run in runs[1:]:
        assert np.array_equal(run.counts, runs[0].counts)
        assert run.overflow_count == runs[0].overflow_count
