"""Special-function suite: trivial anchors, frozen oracles, and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgs.errors import DomainError
from specfun import (
    MomentParams,
    gaussian_moment,
    hyp1f1,
)

from oracles import quad_gaussian_moment, series_hyp1f1


class TestHyp1f1:
    def test_at_zero(self):
        assert hyp1f1(2.5, 1.5, 0.0) == 1.0

    def test_exponential_case(self):
        assert hyp1f1(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_frozen_series_oracle(self):
        # series oracle: 200 terms at 50-digit working precision
        assert hyp1f1(1.5, 0.5, 2.0) == pytest.approx(36.94528049465325113615, rel=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5, 8.5, 32.5])
    @pytest.mark.parametrize("z", [0.3, 4.0, 17.0, 50.0])
    def test_against_series_oracle(self, a, z):
        for b in (0.5, 1.5):
            ref = series_hyp1f1(a, b, z, terms=400)
            assert hyp1f1(a, b, z) == pytest.approx(ref, rel=1e-12)

    def test_forbidden_b(self):
        for b in (0.0, -1.0, -5.0):
            with pytest.raises(DomainError):
                hyp1f1(1.0, b, 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("z", [-10.0, -4.5, -1.0, 0.0, 1.0, 4.5, 10.0])
    def test_kummer_transformation(self, a, b, z):
        lhs = hyp1f1(a, b, z)
        rhs = math.exp(z) * hyp1f1(b - a, b, -z)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


class TestGaussianMoment:
    def test_trivials(self):
        assert gaussian_moment(MomentParams(1.0, 0.0, 0)) == pytest.approx(
            math.sqrt(math.pi), rel=1e-14
        )
        assert gaussian_moment(MomentParams(1.0, 0.0, 1)) == 0.0
        assert gaussian_moment(MomentParams(1.0, 0.0, 2)) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14
        )

    def test_frozen_quadrature_oracle(self):
        # adaptive quadrature over [-20, 20], tolerance 1e-12
        assert gaussian_moment(MomentParams(2.0, 1.0, 3)) == pytest.approx(
            -0.2884762919808744, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            MomentParams(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            MomentParams(-1.0, 0.0, 0)
        with pytest.raises(DomainError):
            MomentParams(1.0, 0.0, -1)

    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_parity_property(self, a, b, n):
        plus = gaussian_moment(MomentParams(a, b, n))
        minus = gaussian_moment(MomentParams(a, -b, n))
        expected = plus if n % 2 == 0 else -plus
        assert minus == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [-2.0, 0.5, 3.0])
    @pytest.mark.parametrize("n", [0, 1, 4, 9])
    def test_derivative_recurrence(self, a, b, n):
        # d f / d b = -f(a, b, n+1), central differences with step 1e-5
        h = 1e-5
        deriv = (
            gaussian_moment(MomentParams(a, b + h, n))
            - gaussian_moment(MomentParams(a, b - h, n))
        ) / (2 * h)
        target = -gaussian_moment(MomentParams(a, b, n + 1))
        scale = max(abs(target), abs(deriv), 1e-30)
        assert abs(deriv - target) <= 1e-5 * scale

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("b", [-3.0, 0.0, 1.0, 4.0])
    def test_oracle_equivalence_grid(self, a, b):
        for n in range(13):
            closed = gaussian_moment(MomentParams(a, b, n))
            quad, err = quad_gaussian_moment(a, b, n)
            assert err <= 1e-10 * (1.0 + abs(quad))
            if closed == 0.0:
                assert abs(quad) < 1e-12
            else:
                assert quad == pytest.approx(closed, rel=1e-8)

