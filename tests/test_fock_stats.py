"""Fock statistics: frozen oracles, limits, and cross-route agreement."""

import math
from dataclasses import replace

import numpy as np
import pytest

import qgs.fock_stats as fock_stats
from qgs.errors import (
    DomainError,
    InsufficientCountsError,
    PrecisionLossError,
    TruncationError,
)
from qgs.fock_stats import (
    DEFAULT_TAIL_TOL,
    JointPND,
    _gaussian_form,
    _marginal_tail_order,
    classical_g2,
    classical_g2_closed,
    joint_pnd,
    moment_ladder,
    single_mode_pnd,
    wavepacket_g2,
)
from qgs.mc_oracle import empirical_pnd
from qgs.scan import default_profile
from qgs.source_model import TwoPointParams, two_point_params

from oracles import (
    FockIndex,
    _slabs,
    dblquad_single_mode_element,
    gaussian_form,
    rho_element,
    rho_element_quadrature,
)


def split_thermal(n1, n2, n_max):
    """g = 1, mu = 0: Bose-Einstein law of mean n1 + n2, split binomially n1 : n2."""
    nt = n1 + n2
    return np.array(
        [
            [
                math.comb(N + M, N) * n1**N * n2**M / (1 + nt) ** (N + M + 1)
                for M in range(n_max + 1)
            ]
            for N in range(n_max + 1)
        ]
    )


def slab_diagonal(A, b, n):
    """G[N, M, N, M] / exp(c) read off the Hermite slab stream behind rho_element."""
    ms = np.arange(n + 1)
    return np.stack([slab[ms, N, ms] for N, slab in enumerate(_slabs(A, b, n))])


def marginals_to(p, n):
    """Both closed-form marginals up to n, the arrays joint_pnd evaluates."""
    return single_mode_pnd(p.n1, p.mu1, n), single_mode_pnd(p.n2, p.mu2, n)


def summed_tails(p, n):
    """t1 + t2 up to n, the array joint_pnd's truncation lookup reads."""
    m1, m2 = marginals_to(p, n)
    return (1.0 - np.cumsum(m1)) + (1.0 - np.cumsum(m2))


def scan_position(n_peak, separation, fixed=0.0):
    profile = default_profile()
    if n_peak is not None:
        profile = replace(profile, n_peak=n_peak)
    return two_point_params(profile, fixed, fixed + separation)


@pytest.fixture(scope="module")
def generic_params():
    return TwoPointParams(n1=1.0, n2=1.0, g=0.5, mu1=0.5 + 0j, mu2=0.5j)


class TestRhoElement:
    def test_thermal_vacuum(self):
        p = TwoPointParams(n1=1.5, n2=1.5, g=0.0, mu1=0j, mu2=0j)
        val = rho_element(p, FockIndex(0, 0, 0, 0))
        assert val.real == pytest.approx(1.0 / (1 + 1.5) ** 2, rel=1e-12, abs=0)
        assert val.imag == 0.0

    def test_vacuum_general_g_closed_form(self):
        # at mu = 0 the vacuum weight is 1/((1+n1)(1+n2) - g^2 n1 n2)
        for g in (0.0, 0.5, 0.9):
            p = TwoPointParams(n1=0.8, n2=1.7, g=g, mu1=0j, mu2=0j)
            expected = 1.0 / ((1 + 0.8) * (1 + 1.7) - g * g * 0.8 * 1.7)
            assert rho_element(p, FockIndex(0, 0, 0, 0)).real == pytest.approx(
                expected, rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("g", [0.0, 0.4, 0.9])
    def test_offdiagonals_vanish_at_zero_mean(self, g):
        p = TwoPointParams(n1=1.0, n2=0.5, g=g, mu1=0j, mu2=0j)
        for idx in [(1, 0, 0, 0), (2, 1, 1, 0), (3, 0, 1, 0), (2, 2, 1, 1)]:
            assert rho_element(p, FockIndex(*idx)) == 0
        # diagonals survive
        assert rho_element(p, FockIndex(1, 1, 1, 1)).real > 0

    def test_hermiticity_grid(self, generic_params):
        for N in range(4):
            for M in range(3):
                for K in range(4):
                    for L in range(3):
                        a = rho_element(generic_params, FockIndex(N, M, K, L))
                        b = rho_element(generic_params, FockIndex(K, L, N, M))
                        assert abs(a - b.conjugate()) < 1e-10

    def test_diagonal_positivity(self, generic_params):
        for N in range(6):
            for M in range(6):
                val = rho_element(generic_params, FockIndex(N, M, N, M))
                assert val.real >= -1e-10
                assert abs(val.imag) < 1e-14

    def test_max_order_contract(self, generic_params):
        with pytest.raises(DomainError):
            rho_element(generic_params, FockIndex(20, 20, 20, 20))

    def test_phase_convention(self):
        # g = 0: <1,0|rho|0,0> = mu1/(1+n1)^2 exp(-|mu1|^2/(1+n1)) / (1+n2) under
        # the standard expansion |alpha> = exp(-|alpha|^2/2) sum alpha^n/sqrt(n!) |n>
        p = TwoPointParams(n1=0.01, n2=1.0, g=0.0, mu1=0.5j, mu2=0j)
        expected = 0.5j / 1.01**2 * math.exp(-0.25 / 1.01) / 2.0
        assert expected.imag == pytest.approx(0.1913, abs=5e-5)
        idx = FockIndex(1, 0, 0, 0)
        assert rho_element(p, idx) == pytest.approx(expected, rel=1e-12, abs=0)
        assert rho_element_quadrature(p, idx) == pytest.approx(expected, rel=1e-8, abs=0)

    @pytest.mark.parametrize("idx", [(1, 0, 0, 0), (2, 1, 0, 3), (0, 2, 1, 1), (3, 1, 2, 0)])
    def test_factorized_against_dblquad(self, idx):
        # at g = 0 the element is a product of single-mode elements, each
        # integrated over the complex plane
        p = TwoPointParams(n1=0.6, n2=1.3, g=0.0, mu1=0.7 - 0.4j, mu2=0.3 + 0.9j)
        N, M, K, L = idx
        ref = dblquad_single_mode_element(p.n1, p.mu1, N, K) * dblquad_single_mode_element(
            p.n2, p.mu2, M, L
        )
        assert abs(rho_element(p, FockIndex(*idx)) - ref) <= 1e-10 * abs(ref)

    def test_derived_against_mc(self, generic_params):
        # Poisson mixing over joint field samples as the brute-force route
        pnd = joint_pnd(generic_params, 6)
        emp = empirical_pnd(generic_params, 2_000_000, 424242)
        val = rho_element(generic_params, FockIndex(1, 1, 1, 1)).real
        phat = emp.counts[1, 1] / emp.total
        se = math.sqrt(phat * (1 - phat) / emp.total)
        assert abs(val - phat) < 4 * se


class TestRhoElementQuadrature:
    def test_two_mode_thermal_vacuum(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=0.0, mu1=0j, mu2=0j)
        assert rho_element_quadrature(p, FockIndex(0, 0, 0, 0)).real == pytest.approx(
            0.25, rel=1e-10, abs=0
        )

    def test_offdiagonal_zero_mean(self):
        p = TwoPointParams(n1=0.7, n2=1.1, g=0.5, mu1=0j, mu2=0j)
        assert abs(rho_element_quadrature(p, FockIndex(1, 0, 0, 0))) < 1e-12

    def test_matches_closed_form(self, generic_params):
        idx = FockIndex(2, 1, 2, 1)
        a = rho_element(generic_params, idx)
        b = rho_element_quadrature(generic_params, idx)
        assert abs(a - b) <= 1e-8 * (1 + abs(a))

    def test_order_bound(self, generic_params):
        with pytest.raises(DomainError):
            rho_element_quadrature(generic_params, FockIndex(8, 8, 8, 8))


class TestMomentLadder:
    """The float64 count-generating-function table against the Hermite slab stream.

    The engine expands the six reals of its own form (_gaussian_form):
    x1, x2, kappa, beta1, beta2 and gamma.  The slab stream expands the
    oracle's form (oracles.gaussian_form), so the two sides share no code.
    """

    @staticmethod
    def assert_matches_slabs(p, n):
        x, b, _ = _gaussian_form(p)
        q = moment_ladder(x, b, n)
        A, b, c = gaussian_form(p)
        ref = slab_diagonal(A, b, n)
        live = math.exp(c) * ref.real > 1e-300
        assert q.shape == (n + 1, n + 1)
        assert q.dtype == np.float64
        assert np.max(np.abs(q - ref)[live] / np.abs(ref)[live]) <= 1e-10

    @pytest.mark.parametrize("separation", [0.5 * k for k in range(9)])
    @pytest.mark.parametrize("n_peak", [None, 1.5])
    def test_scan_profiles(self, n_peak, separation):
        p = scan_position(n_peak, separation)
        n = _marginal_tail_order(summed_tails(p, 40), 16, DEFAULT_TAIL_TOL)
        self.assert_matches_slabs(p, n)

    def test_beyond_hard_cap(self):
        self.assert_matches_slabs(scan_position(2.0, 1.0), 47)

    @pytest.mark.parametrize(
        "p",
        [
            TwoPointParams(n1=0.8, n2=1.3, g=0.0, mu1=0.7 + 0j, mu2=0.4 + 0j),
            TwoPointParams(n1=1.0, n2=2.0, g=1.0, mu1=0.5 + 0j, mu2=0.5 * math.sqrt(2) + 0j),
            TwoPointParams(n1=1e-3, n2=1e-3, g=0.5, mu1=1.0 + 0j, mu2=1.0 + 0j),
            TwoPointParams(n1=1.0, n2=0.7, g=0.6, mu1=0.3 + 0.8j, mu2=-0.6 + 0.2j),
        ],
        ids=["g0", "g1", "near-coherent", "complex-mu"],
    )
    def test_limits(self, p):
        self.assert_matches_slabs(p, 30)


def matrix_form(p):
    """The count generating function's inputs by 2x2 matrices: S, CS, m = S mu."""
    omg2 = (1.0 - p.g) * (1.0 + p.g)
    gs = p.g * math.sqrt(p.n1 * p.n2)
    det = 1.0 + p.n1 + p.n2 + p.n1 * p.n2 * omg2
    s = np.array([[1.0 + p.n2, -gs], [-gs, 1.0 + p.n1]]) / det
    cs = np.array([[p.n1 + p.n1 * p.n2 * omg2, gs], [gs, p.n2 + p.n1 * p.n2 * omg2]]) / det
    mu = np.array([p.mu1, p.mu2], dtype=complex)
    m = s @ mu
    c = -float((mu.conj() @ s @ mu).real) - math.log(det)
    beta1, beta2 = m.real**2 + m.imag**2
    gamma = (cs[0, 1] * m[0].conj() * m[1] + cs[1, 0] * m[1].conj() * m[0]).real
    return (cs[0, 0], cs[1, 1], cs[0, 1] * cs[1, 0]), (beta1, beta2, gamma), c, m


# thermal, aligned, complex, opposite-phase real and opposite-phase complex amplitudes
FORM_MUS = [(0j, 0j), (0.7, 0.4), (0.3 + 0.8j, -0.6 + 0.2j), (2.0, -2.0), (1.5 - 3j, -1.5 + 3j)]
FORM_NS = (1e-3, 1.0, 30.0)


@pytest.mark.parametrize("g", [0.0, 0.5, 1.0 - 1e-6, 1.0], ids=["g0", "g0.5", "g1-1e-6", "g1"])
def test_gaussian_form_matches_the_matrix_route(g):
    # Over these 192 beams the closed forms of x1, x2, kappa, beta1 and beta2
    # equal the matrix route bit for bit.  gamma, which cancels for complex
    # mu, deviates by at most 2.78 u of 2 kappa^(1/2) |m1| |m2|, and c by
    # 2.12 u relative (u = 2^-53), as measured.
    u = 2.0**-53
    beams = [TwoPointParams(n1, n2, g, *mu) for n1 in FORM_NS for n2 in FORM_NS for mu in FORM_MUS]
    beams += [replace(scan_position(30.0, s), g=g) for s in (0.0, 1.0, 4.0)]
    for p in beams:
        (x1, x2, kappa), (beta1, beta2, gamma), c = _gaussian_form(p)
        x_ref, (b1_ref, b2_ref, gamma_ref), c_ref, m = matrix_form(p)
        assert (x1, x2, kappa, beta1, beta2) == (*x_ref, b1_ref, b2_ref)
        scale = 2.0 * math.sqrt(kappa) * abs(m[0]) * abs(m[1])
        assert abs(gamma - gamma_ref) <= 4 * u * scale
        assert abs(c - c_ref) <= 4 * u * abs(c_ref)


class TestSingleModePnd:
    def test_bose_einstein(self):
        p = single_mode_pnd(1.0, 0j, 8)
        for n in range(9):
            assert p[n] == pytest.approx(0.5 ** (n + 1), rel=1e-12, abs=0)

    def test_poisson(self):
        p = single_mode_pnd(0.0, 1.0 + 0j, 10)
        for n in range(11):
            assert p[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-12, abs=0)

    def test_derived_against_mc(self):
        # 1D Monte Carlo: Poisson mixing over a single displaced Gaussian
        rng = np.random.default_rng(11)
        nbar, mu = 0.5, 1.0
        z = rng.standard_normal((2, 2_000_000))
        alpha = mu + math.sqrt(nbar / 2) * (z[0] + 1j * z[1])
        counts = rng.poisson(np.abs(alpha) ** 2)
        emp = np.bincount(counts, minlength=12)[:12] / counts.size
        ref = single_mode_pnd(nbar, mu, 11)
        se = np.sqrt(ref * (1 - ref) / counts.size)
        assert np.all(np.abs(emp - ref) < 5 * se + 1e-9)

    def test_normalization(self):
        p = single_mode_pnd(0.8, 1.2 - 0.3j, 60)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "nbar,mu,n",
        [
            (1e-9, 1.0 + 0j, 40),
            (0.0, 1.0 + 0j, 40),
            (1.0, 0j, 40),
            (default_profile().n_peak, default_profile().mu_peak, 60),
            (10.0, 1.0 + 0j, 150),
        ],
        ids=["near-coherent", "poisson", "bose-einstein", "default", "bright"],
    )
    def test_against_positive_sum(self, nbar, mu, n):
        # p(n) = e^(-|mu|^2/(1+nbar))/(1+nbar) sum_k C(n,k) r^(n-k) y^k/k!, every
        # term nonnegative; r = nbar/(1+nbar), y = |mu|^2/(1+nbar)^2
        m2 = abs(mu) ** 2
        r, y = nbar / (1 + nbar), m2 / (1 + nbar) ** 2
        pref = math.exp(-m2 / (1 + nbar)) / (1 + nbar)
        ref = np.array(
            [
                pref
                * math.fsum(
                    math.comb(j, k) * r ** (j - k) * y**k / math.factorial(k)
                    for k in range(j + 1)
                )
                for j in range(n + 1)
            ]
        )
        got = single_mode_pnd(nbar, mu, n)
        assert got.shape == (n + 1,)
        assert np.all(np.isfinite(got))
        live = ref > 1e-300
        assert np.max(np.abs(got - ref)[live] / ref[live]) <= 1e-12


class TestJointPnd:
    def test_thermal_product(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=0.0, mu1=0j, mu2=0j)
        pnd = joint_pnd(p, 6)
        for n in range(5):
            for m in range(5):
                assert pnd.p[n, m] == pytest.approx(2.0 ** (-n - m - 2), rel=1e-10, abs=0)

    def test_normalization_improves_with_truncation(self):
        p = TwoPointParams(n1=0.9, n2=0.9, g=0.7, mu1=0.5 + 0j, mu2=0.5 + 0j)
        masses = [
            float(np.sum(joint_pnd(p, 4, tail_tol=tol).p))
            for tol in (1e-4, 1e-6, 1e-8)
        ]
        assert masses[0] < masses[1] < masses[2]
        assert masses[2] == pytest.approx(1.0, abs=1e-8)

    def test_factorization_at_g_zero(self):
        p = TwoPointParams(n1=0.8, n2=1.3, g=0.0, mu1=0.7 + 0.2j, mu2=-0.3 + 0.5j)
        pnd = joint_pnd(p, 8)
        m1 = single_mode_pnd(p.n1, p.mu1, pnd.n_max)
        m2 = single_mode_pnd(p.n2, p.mu2, pnd.n_max)
        assert np.max(np.abs(pnd.p - np.outer(m1, m2))) < 1e-9

    def test_split_thermal_limit(self):
        # g -> 1 with zero mean approaches binomial splitting of a
        # Bose-Einstein distribution of the summed mean
        p = TwoPointParams(n1=0.7, n2=0.4, g=1 - 1e-6, mu1=0j, mu2=0j)
        pnd = joint_pnd(p, 10)
        split = split_thermal(0.7, 0.4, pnd.n_max)
        tv = 0.5 * np.abs(pnd.p - split).sum()
        assert tv < 1e-3

    @pytest.mark.parametrize("n1,n2", [(0.7, 0.4), (1.1, 1.1), (0.5, 2.0)])
    def test_g1_split_law(self, n1, n2):
        p = TwoPointParams(n1=n1, n2=n2, g=1.0, mu1=0j, mu2=0j)
        pnd = joint_pnd(p, 10)
        ref = split_thermal(n1, n2, pnd.n_max)
        assert np.max(np.abs(pnd.p - ref) / ref) < 1e-13

    def test_near_coherent(self):
        # a near-coherent beam: |mu|^2 / nbar = 1e3
        p = TwoPointParams(n1=1e-3, n2=1e-3, g=0.5, mu1=1.0 + 0j, mu2=1.0 + 0j)
        pnd = joint_pnd(p, 6, tail_tol=1e-12)
        ref = single_mode_pnd(p.n1, p.mu1, pnd.n_max)
        assert np.max(np.abs(pnd.p.sum(axis=1) - ref)) < 1e-12
        assert np.max(np.abs(pnd.p.sum(axis=0) - ref)) < 1e-12

    @pytest.mark.parametrize("g", [0.0, 0.3, 0.8, 0.99])
    def test_marginal_consistency(self, g):
        p = TwoPointParams(n1=0.9, n2=0.6, g=g, mu1=0.8 + 0j, mu2=0.5 + 0j)
        pnd = joint_pnd(p, 6, tail_tol=1e-9)
        marg1 = pnd.p.sum(axis=1)
        ref1 = single_mode_pnd(p.n1, p.mu1, pnd.n_max)
        assert np.max(np.abs(marg1 - ref1)) < 1e-8
        marg2 = pnd.p.sum(axis=0)
        ref2 = single_mode_pnd(p.n2, p.mu2, pnd.n_max)
        assert np.max(np.abs(marg2 - ref2)) < 1e-8

    def test_derived_against_mc(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=0.9, mu1=0.8 + 0j, mu2=0.8 + 0j)
        pnd = joint_pnd(p, 8)
        emp = empirical_pnd(p, 2_000_000, 777)
        k = min(pnd.n_max + 1, emp.counts.shape[0], emp.counts.shape[1])
        tv = 0.5 * np.abs(emp.counts[:k, :k] / emp.total - pnd.p[:k, :k]).sum()
        assert tv < 7e-3  # statistical floor at 2e6 samples

    def test_degenerate_dispatch(self):
        p = TwoPointParams(n1=0.8, n2=0.8, g=1.0, mu1=0.9 + 0j, mu2=0.9 + 0j)
        pnd = joint_pnd(p, 8)
        assert pnd.tail_mass < 1e-6
        assert np.all(pnd.p >= 0)

    def test_unmatched_amplitudes_at_g1(self):
        # at g = 1 the two amplitudes need not be splittings of one mode's
        # amplitude; the same Gaussian form covers every g
        p = TwoPointParams(n1=0.5, n2=1.0, g=1.0, mu1=1.0 + 0j, mu2=0.3 + 0j)
        pnd = joint_pnd(p, 8)
        A, b, c = gaussian_form(p)  # the oracle's own form
        ref = math.exp(c) * slab_diagonal(A, b, pnd.n_max).real
        live = ref > 1e-300
        assert np.max(np.abs(pnd.p - ref)[live] / ref[live]) <= 1e-10
        emp = empirical_pnd(p, 2_000_000, 2718)
        k = min(pnd.n_max + 1, emp.counts.shape[0], emp.counts.shape[1])
        tv = 0.5 * np.abs(emp.counts[:k, :k] / emp.total - pnd.p[:k, :k]).sum()
        assert tv < 7e-3  # statistical floor at 2e6 samples

    def test_tail_search_tries_hard_cap(self):
        # the summed tail falls below 1.5e-11 only at 40 (2.4e-11 at 39),
        # so the cap itself must be a candidate
        p = TwoPointParams(n1=0.9, n2=0.6, g=0.3, mu1=0.8 + 0j, mu2=0.5 + 0j)
        assert _marginal_tail_order(summed_tails(p, 40), 6, 3e-11) == 40
        with pytest.raises(TruncationError):
            _marginal_tail_order(summed_tails(p, 39), 6, 3e-11)

    def test_smallest_certified_truncation(self):
        # the default beam at separation 0 first certifies at 26
        p = scan_position(None, 0.0)
        tails = summed_tails(p, 40)
        assert tails[25] >= 0.5 * DEFAULT_TAIL_TOL > tails[26]
        assert joint_pnd(p, 16).n_max == 26

    def test_tail_tol_below_check_resolution(self):
        p = scan_position(None, 0.0)
        with pytest.raises(TruncationError, match="below 1e-12"):
            joint_pnd(p, 16, tail_tol=1e-13)

    def test_tail_mass_clamped_at_zero(self):
        # far out on the default beam 1 - sum p rounds below zero
        p = scan_position(None, 0.0, fixed=6.0)
        pnd = joint_pnd(p, 16)
        assert 1.0 - float(pnd.p.sum()) < 0.0
        assert pnd.tail_mass == 0.0

    @pytest.mark.parametrize("separation", [2.0, 0.0], ids=["default", "g1"])
    def test_single_marginal_pass(self, monkeypatch, separation):
        # one closed-form pass per mode, up to the cap, feeds the tail
        # search, the checks and the marginals carried on JointPND
        calls = []

        def counted(*args):
            calls.append(args)
            return single_mode_pnd(*args)

        monkeypatch.setattr(fock_stats, "single_mode_pnd", counted)
        p = scan_position(None, separation)
        pnd = joint_pnd(p, 16)
        assert len(calls) == 2
        for got, want in zip(pnd.marginals, marginals_to(p, pnd.n_max)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "corrupt, named",
        [
            ("row-moved", "marginal 1"),
            ("column-moved", "marginal 2"),
            ("negative-corner", "normalization, positivity"),
            ("scaled", "normalization, marginal 1, marginal 2"),
        ],
        ids=["row-moved", "column-moved", "negative-corner", "scaled"],
    )
    def test_corrupted_table_fails_the_named_check(self, monkeypatch, corrupt, named):
        # the default beam at separation 1 certifies at n_eff 25
        monkeypatch.setattr(fock_stats, "moment_ladder", corrupted_ladder(corrupt))
        with pytest.raises(PrecisionLossError, match=f"n_max = 25 fails its checks: {named}$"):
            joint_pnd(scan_position(None, 1.0), 16)


def corrupted_ladder(corrupt):
    """moment_ladder with its table corrupted before joint_pnd's checks read it."""

    def ladder(*args):
        h = moment_ladder(*args)
        if corrupt == "row-moved":  # 1e-6 from row 3 to row 2 of column 1
            h[3, 1] -= 1e-6
            h[2, 1] += 1e-6
        elif corrupt == "column-moved":  # 1e-6 from column 3 to column 2 of row 1
            h[1, 3] -= 1e-6
            h[1, 2] += 1e-6
        elif corrupt == "negative-corner":
            h[-1, -1] = -1e-11
        else:
            h *= 1.001
        return h

    return ladder


class TestWavepacketG2:
    def test_independent_all_pairs(self):
        p = TwoPointParams(n1=0.7, n2=1.2, g=0.0, mu1=0.4 + 0j, mu2=0.9 + 0j)
        pnd = joint_pnd(p, 6)
        for pair in [(0, 0), (1, 2), (3, 1), (4, 4)]:
            assert wavepacket_g2(pnd, *pair) == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_marginals(self):
        # the denominators are the exact displaced-thermal marginals, not the
        # row and column sums of the truncated matrix (short by the tail mass)
        p = TwoPointParams(n1=0.6, n2=0.4, g=0.7, mu1=0.5 + 0j, mu2=0.3j)
        pnd = joint_pnd(p, 6)
        for N, M in [(0, 0), (5, 1), (2, 3)]:
            p1 = single_mode_pnd(p.n1, p.mu1, N)[N]
            p2 = single_mode_pnd(p.n2, p.mu2, M)[M]
            assert wavepacket_g2(pnd, N, M) == pytest.approx(
                pnd.p[N, M] / (p1 * p2), rel=1e-14, abs=0
            )

    def test_independent_unbiased_by_tail(self):
        # truncated row and column sums would leave a bias of order tail_tol
        p = TwoPointParams(n1=0.3, n2=0.5, g=0.0, mu1=0.4 + 0j, mu2=0.2j)
        pnd = joint_pnd(p, 6)
        for N in range(pnd.n_max + 1):
            for M in range(pnd.n_max + 1):
                assert wavepacket_g2(pnd, N, M) == pytest.approx(1.0, abs=1e-12)

    def test_bunching_antibunching_pattern(self):
        p = TwoPointParams(n1=0.83, n2=0.83, g=1 - 1e-7, mu1=1.0 + 0j, mu2=1.0 + 0j)
        pnd = joint_pnd(p, 10)
        for n in (0, 1, 5, 8):
            assert wavepacket_g2(pnd, n, n) > 1.0
        for n in (5, 8):
            assert wavepacket_g2(pnd, n, 1) < 1.0

    def test_derived_anticorrelated_pair_vs_mc(self):
        p = TwoPointParams(n1=1.0, n2=1.0, g=0.9, mu1=1.0 + 0j, mu2=1.0 + 0j)
        pnd = joint_pnd(p, 8)
        assert wavepacket_g2(pnd, 5, 1) < 1.0
        # g2 is p(5, 1) over closed-form marginals, which TestSingleModePnd
        # checks; Monte Carlo checks the cell
        emp = empirical_pnd(p, 2_000_000, 31415)
        phat = emp.counts[5, 1] / emp.total
        se = math.sqrt(phat * (1 - phat) / emp.total)
        assert abs(pnd.p[5, 1] - phat) < 4 * se

    def test_marginal_floor(self):
        # p(9) = 0, below the 1e-300 floor
        p = TwoPointParams(n1=1e-40, n2=1e-40, g=0.0, mu1=1e-30 + 0j, mu2=1e-30j)
        pnd = joint_pnd(p, 9)
        with pytest.raises(InsufficientCountsError):
            wavepacket_g2(pnd, 9, 9)

    def test_out_of_range(self):
        p = TwoPointParams(n1=0.5, n2=0.5, g=0.0, mu1=0.1 + 0j, mu2=0.1 + 0j)
        pnd = joint_pnd(p, 4)
        with pytest.raises(DomainError):
            wavepacket_g2(pnd, pnd.n_max + 1, 0)


class TestClassicalG2:
    def test_thermal_coincident(self):
        p = TwoPointParams(n1=1.1, n2=1.1, g=1.0, mu1=0j, mu2=0j)
        pnd = joint_pnd(p, 12, tail_tol=1e-9)
        assert classical_g2(pnd) == pytest.approx(2.0, abs=2e-4)
        assert classical_g2_closed(p) == pytest.approx(2.0, rel=1e-14, abs=0)

    def test_coherent_limit(self):
        p = TwoPointParams(n1=1e-9, n2=1e-9, g=1.0, mu1=1.0 + 0j, mu2=1.0 + 0j)
        assert classical_g2_closed(p) == pytest.approx(1.0, abs=1e-8)
        pnd = joint_pnd(p, 8)
        assert classical_g2(pnd) == pytest.approx(1.0, abs=1e-5)

    def test_operating_point_fraction(self):
        # thermal fraction solving 1 + 2f - f^2 = 1.7
        f = 1.0 - math.sqrt(0.3)
        assert f == pytest.approx(0.45228, abs=5e-6)
        mu2 = 1.0
        nbar = f * mu2 / (1 - f)
        p = TwoPointParams(n1=nbar, n2=nbar, g=1.0, mu1=1.0 + 0j, mu2=1.0 + 0j)
        assert classical_g2_closed(p) == pytest.approx(1.7, abs=1e-12)
        pnd = joint_pnd(p, 16, tail_tol=1e-9)
        assert classical_g2(pnd) == pytest.approx(1.7, abs=1e-3)

    @pytest.mark.parametrize("g", [0.0, 0.5, 0.9])
    def test_two_paths_agree(self, g):
        p = TwoPointParams(n1=0.8, n2=0.5, g=g, mu1=0.9 + 0j, mu2=0.6 + 0j)
        pnd = joint_pnd(p, 8, tail_tol=1e-10)
        assert classical_g2(pnd) == pytest.approx(classical_g2_closed(p), abs=1e-6)

    def test_underflowing_mean_product_is_precision_loss(self):
        # both means are about 1e-300, so their product and <n1 n2> underflow to 0
        p = TwoPointParams(n1=1e-300, n2=1e-300, g=1.0, mu1=0j, mu2=0j)
        pnd = joint_pnd(p, 16)
        assert pnd.p[1, 0] > 0 and pnd.p[0, 1] > 0
        with pytest.raises(PrecisionLossError, match="underflows"):
            classical_g2(pnd)

    def test_vacuum_table_is_precision_loss(self):
        # both means are exactly 0, so their product is no positive number
        params = TwoPointParams(n1=1e-300, n2=1e-300, g=1.0, mu1=0j, mu2=0j)
        p = np.ones((1, 1))
        pnd = JointPND(0, p, 0.0, params, marginals=(p.sum(axis=1), p.sum(axis=0)))
        with pytest.raises(PrecisionLossError):
            classical_g2(pnd)

    def test_closed_form_underflowing_intensity_product_is_precision_loss(self):
        p = TwoPointParams(n1=1e-300, n2=1e-300, g=1.0, mu1=0j, mu2=0j)
        with pytest.raises(PrecisionLossError, match="underflows"):
            classical_g2_closed(p)
