"""Two-point source statistics: anchors, dual-path checks, invariants."""

import math

import numpy as np
import pytest

from qgs.errors import DomainError
from qgs.source_model import (
    BeamProfile,
    TwoPointParams,
    degree_of_coherence,
    mean_cov,
    profile_at,
    two_point_params,
)


@pytest.fixture
def profile():
    return BeamProfile(n_peak=2.0, mu_peak=1.0 + 0.0j, sigma0=1.0, sigma1=1.0)


class TestProfile:
    def test_peak(self, profile):
        n, mu = profile_at(profile, 0.0)
        assert n == 2.0
        assert mu == 1.0 + 0.0j

    def test_decay(self, profile):
        n, mu = profile_at(profile, 50.0)
        assert n < 1e-300
        assert abs(mu) < 1e-300

    def test_direct_substitution(self):
        prof = BeamProfile(n_peak=1.0, mu_peak=1e-12 + 0j, sigma0=4.0, sigma1=1.0)
        n, mu = profile_at(prof, 2.0)
        assert n == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            BeamProfile(n_peak=0.0, mu_peak=1.0, sigma0=1.0, sigma1=1.0)
        with pytest.raises(DomainError):
            BeamProfile(n_peak=1.0, mu_peak=1.0, sigma0=-1.0, sigma1=1.0)


class TestDegreeOfCoherence:
    def test_zero_separation(self, profile):
        assert degree_of_coherence(profile, 0.7, 0.7) == 1.0

    def test_unit_separation(self, profile):
        assert degree_of_coherence(profile, 1.0, 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-14, abs=0
        )

    def test_direct_substitution(self):
        prof = BeamProfile(n_peak=1.0, mu_peak=1.0, sigma0=1.0, sigma1=2.0)
        assert degree_of_coherence(prof, 3.0, 0.0) == pytest.approx(
            math.exp(-4.5), rel=1e-14, abs=0
        )


class TestTwoPointParams:
    def test_coincident(self, profile):
        p = two_point_params(profile, 0.0, 0.0)
        assert (p.n1, p.n2, p.g) == (2.0, 2.0, 1.0)
        assert p.mu1 == p.mu2 == 1.0 + 0.0j
        assert p.is_degenerate

    def test_distant(self, profile):
        p = two_point_params(profile, 0.0, 20.0)
        assert p.g < 1e-150
        assert p.n2 < 1e-150

    def test_direct_substitution(self):
        prof = BeamProfile(n_peak=2.0, mu_peak=1.0 + 0j, sigma0=1.0, sigma1=1.0)
        p = two_point_params(prof, 0.0, 1.0)
        assert p.n1 == 2.0
        assert p.n2 == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14, abs=0)
        assert p.g == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0)
        assert p.mu2 == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            TwoPointParams(n1=1.0, n2=1.0, g=1.5, mu1=0j, mu2=0j)
        with pytest.raises(DomainError):
            TwoPointParams(n1=-1.0, n2=1.0, g=0.5, mu1=0j, mu2=0j)


class TestMeanCov:
    def test_uncorrelated_identity(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=0.0, mu1=0j, mu2=0j)
        mc = mean_cov(p)
        assert np.allclose(mc.mu, 0.0)
        assert np.allclose(mc.gamma, 0.5 * np.eye(4))
        assert not mc.degenerate

    def test_degenerate_limit(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=1.0, mu1=0j, mu2=0j)
        mc = mean_cov(p)
        assert mc.degenerate
        assert np.linalg.det(mc.gamma) == pytest.approx(0.0, abs=1e-14)
        assert mc.gamma[0, 2] == 0.5

    def test_off_diagonal_value(self):
        p = TwoPointParams(n1=2.0, n2=8.0, g=0.5, mu1=0j, mu2=0j)
        mc = mean_cov(p)
        assert mc.gamma[0, 2] == pytest.approx(1.0)
        assert mc.gamma[1, 3] == pytest.approx(1.0)

    @pytest.mark.parametrize("n1", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("n2", [0.5, 2.0])
    @pytest.mark.parametrize("g", [0.0, 0.3, 0.9, 0.999])
    def test_determinant_closed_form(self, n1, n2, g):
        p = TwoPointParams(n1=n1, n2=n2, g=g, mu1=0.3 + 0.1j, mu2=-0.2j)
        mc = mean_cov(p)
        expected = (n1 * n2 * (1 - g * g) / 4.0) ** 2
        assert np.linalg.det(mc.gamma) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_symmetry(self):
        p = TwoPointParams(n1=1.7, n2=0.4, g=0.6, mu1=1j, mu2=2.0 + 0j)
        mc = mean_cov(p)
        assert np.array_equal(mc.gamma, mc.gamma.T)
