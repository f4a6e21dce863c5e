import math

import numpy as np
import pytest

from fracsphere import (AlgebraicSpectrum, DomainError, bound_q_combined,
                        bound_qh, bound_qi, gamma_alpha_kappa, holder_envelope,
                        increment_bound, m_alpha, measured_increment_c, psi_h,
                        psi_i, tail_constant)
from fracsphere.specfun import gamma, ml_neg
from fracsphere.spectra import combined_case

from conftest import ml_oracle


@pytest.fixture
def spec_c():
    return AlgebraicSpectrum(1.0, 1.0, 2.3)


@pytest.fixture
def spec_a():
    return AlgebraicSpectrum(1e4, 1e4, 2.5)


def test_spectrum_values(spec_c, spec_a):
    assert spec_c.value(0) == 1.0
    assert spec_a.value(10) == pytest.approx(1e4 * 10 ** -2.5, rel=1e-14)
    assert spec_a.value(10) == pytest.approx(31.6227766, rel=1e-8)
    assert spec_c.value(1) == spec_c.coeff  # 1^-kappa = 1
    assert spec_a.value(np.array([0, 1, 10]))[2] == pytest.approx(spec_a.value(10))


def test_spectrum_array_matches_scalars_bitwise(spec_a):
    ells = np.arange(401)
    vals = spec_a.value(ells)
    assert vals.shape == ells.shape
    assert np.array_equal(vals, [spec_a.value(int(ell)) for ell in ells])
    with pytest.raises(DomainError):
        spec_a.value(np.array([1.5]))


def test_spectrum_validation():
    with pytest.raises(DomainError):
        AlgebraicSpectrum(1.0, 1.0, 2.0)  # kappa must be > 2
    with pytest.raises(DomainError):
        AlgebraicSpectrum(-1.0, 1.0, 2.5)
    with pytest.raises(DomainError):
        AlgebraicSpectrum(1.0, -1.0, 2.5)


def test_tail_constant_values(spec_c, spec_a):
    assert tail_constant(spec_c) == pytest.approx(
        math.sqrt(2.0 / 0.3 + 1.0 / 1.3), rel=1e-14)
    assert tail_constant(spec_a) == pytest.approx(
        math.sqrt(1e4 * (4.0 + 2.0 / 3.0)), rel=1e-14)
    assert tail_constant(AlgebraicSpectrum(3.0, 0.0, 5.0)) == 0.0


def test_tail_constant_dominates_tail():
    # numerically summed tail vs tail_constant^2 * L^(2-kappa)
    for kappa in (2.1, 2.3, 2.5, 3.0, 4.5):
        spec = AlgebraicSpectrum(1.0, 1.7, kappa)
        c2 = tail_constant(spec) ** 2
        ells = np.arange(1, 2_000_000, dtype=float)
        terms = (2 * ells + 1) * spec.coeff * ells ** -kappa
        suffix = np.cumsum(terms[::-1])[::-1]
        # integral bound on the part beyond the summation horizon
        rest = spec.coeff * (2 * ells[-1] ** (2 - kappa) / (kappa - 2)
                             + ells[-1] ** (1 - kappa) / (kappa - 1))
        for L in (1, 2, 5, 17, 100, 500):
            tail = suffix[L] + rest
            assert tail <= c2 * L ** (2.0 - kappa) * (1.0 + 1e-12)


def test_m_alpha_values():
    assert m_alpha(0.5) == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert m_alpha(1.0) == pytest.approx(1.0, rel=1e-14)
    assert m_alpha(0.75) == pytest.approx(2.0 * math.gamma(1.75) ** 2, rel=1e-14)
    with pytest.raises(DomainError):
        m_alpha(0.0)
    with pytest.raises(DomainError):
        m_alpha(1.2)


def test_gamma_alpha_kappa_cases():
    assert gamma_alpha_kappa(0.5, 2.5) == 2.5
    assert gamma_alpha_kappa(0.75, 2.5) == pytest.approx(2.5 + 8.0 / 3.0 - 2.0, rel=1e-14)
    assert gamma_alpha_kappa(1.0, 3.7) == pytest.approx(3.7, rel=1e-14)
    assert gamma_alpha_kappa(0.3, 2.5) == 4.5
    with pytest.raises(DomainError):
        gamma_alpha_kappa(0.5, 2.0)


def test_psi_h_values():
    assert psi_h(0.5, 1.0) == pytest.approx(math.gamma(1.5), rel=1e-14)
    assert psi_h(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert psi_h(0.75, 1e-4) == pytest.approx(math.gamma(1.75) * 1e3, rel=1e-13)
    with pytest.raises(DomainError):
        psi_h(0.5, 0.0)


def test_psi_i_values():
    m75 = 2.0 * math.gamma(1.75) ** 2
    assert psi_i(0.75, 0.123) == pytest.approx(math.sqrt(1.0 + m75), rel=1e-14)
    assert psi_i(0.75, 7.0) == pytest.approx(math.sqrt(1.0 + m75), rel=1e-14)
    # alpha = 1/2: K(t) branches
    assert psi_i(0.5, 0.5) == pytest.approx(math.sqrt(1.0 + math.pi / 2.0), rel=1e-14)
    assert psi_i(0.5, math.e ** 2) == pytest.approx(math.sqrt(1.0 + math.pi), rel=1e-14)
    # alpha < 1/2 grows as t^(1-2 alpha)
    assert psi_i(0.25, 4.0) == pytest.approx(
        math.sqrt(1.0 + m_alpha(0.25) * 4.0 ** 0.5), rel=1e-14)
    with pytest.raises(DomainError):
        psi_i(0.5, 0.0)


def test_bound_qh_regimes(spec_c):
    # deep early-time regime
    v = bound_qh(100, 1e-12, 0.5, spec_c)
    assert v == pytest.approx(math.sqrt(2 / 0.3 + 1 / 1.3) * 100 ** -0.15, rel=1e-12)
    # boundary point goes to the first regime
    lam = 100.0 * 101.0
    t_knee = lam ** -2.0
    assert bound_qh(100, t_knee, 0.5, spec_c) == pytest.approx(
        tail_constant(spec_c) * 100 ** -0.15, rel=1e-12)
    # late-time regime (alpha = 1)
    v = bound_qh(100, 1.0, 1.0, spec_c)
    assert v == pytest.approx(tail_constant(spec_c) * 100 ** -2.15, rel=1e-12)


def test_bound_qi_regimes(spec_a):
    tau = 1e-5
    lam = 100.0 * 101.0
    # regime i at t = tau + knee
    t = tau + lam ** -2.0
    v = bound_qi(100, t, tau, 0.5, spec_a)
    assert v == pytest.approx(tail_constant(spec_a) * 100 ** -2.25, rel=1e-12)
    # regime ii at t = 10 tau (gamma_(1/2) = kappa2)
    v = bound_qi(100, 10 * tau, tau, 0.5, spec_a)
    ref = psi_i(0.5, 9e-5) * tail_constant(spec_a) * 100 ** -1.25
    assert v == pytest.approx(ref, rel=1e-12)
    # zero-noise spectrum gives zero
    assert bound_qi(100, 10 * tau, tau, 0.5, AlgebraicSpectrum(0, 0, 2.5)) == 0.0
    with pytest.raises(DomainError):
        bound_qi(100, tau, tau, 0.5, spec_a)


def test_bound_combined_cases_and_exponents(spec_c, spec_a):
    tau = 1e-5
    # case I at t = 1e-12 (tau is past the knee for L = 100)
    assert combined_case(100, 1e-12, tau, 0.5) == 1
    # case III exponent: slope between two L values on the same regime
    t = 10 * tau
    for alpha, expo in ((0.5, 2.5 / 2.0), (0.75, min(4.3, 2.5 + 8 / 3 - 2) / 2.0)):
        b1 = bound_q_combined(200, t, tau, alpha, spec_c, spec_a)
        b2 = bound_q_combined(400, t, tau, alpha, spec_c, spec_a)
        slope = math.log(b2 / b1) / math.log(2.0)
        assert slope == pytest.approx(-expo, abs=1e-12)
    # case II exponent for alpha = 1/2: min(kappa1+2, kappa2+2) = 4.3
    lam400 = 400.0 * 401.0
    t2 = tau + 0.5 * lam400 ** -2.0
    assert combined_case(400, t2, tau, 0.5) == 2
    b1 = bound_q_combined(398, t2, tau, 0.5, spec_c, spec_a)
    b2 = bound_q_combined(400, t2, tau, 0.5, spec_c, spec_a)
    # the psi_h(t) prefactor is t-only, so the L-ratio isolates the exponent
    slope = math.log(b2 / b1) / math.log(400.0 / 398.0)
    assert slope == pytest.approx(-4.3 / 2.0, abs=1e-9)
    # no case applies: t below the knee but tau below it too
    with pytest.raises(DomainError, match="case I requires"):
        bound_q_combined(5, 1e-12, 1e-9, 0.5, spec_c, spec_a)


def test_bound_combined_monotone_in_L(spec_c, spec_a):
    tau = 1e-5
    for t in (1e-12, 1e-4, 1.0):
        prev = None
        for L in (50, 80, 130, 210, 340, 550):
            try:
                v = bound_q_combined(L, t, tau, 0.5, spec_c, spec_a)
            except DomainError:
                continue
            if prev is not None:
                assert v <= prev * (1.0 + 1e-12)
            prev = v


def test_bound_combined_continuous_in_t(spec_c, spec_a):
    # within case III the bound is continuous in t: relative steps shrink
    # with the grid ratio (psi_h ~ t^-alpha, so ~alpha * step size)
    tau = 1e-5
    ts = np.geomspace(2e-5, 1e-3, 400)
    vals = [bound_q_combined(100, float(t), tau, 0.75, spec_c, spec_a) for t in ts]
    rel_jumps = np.abs(np.diff(vals)) / np.array(vals[:-1])
    assert np.max(rel_jumps) < 0.02


def test_increment_bound_values(spec_c, spec_a):
    tau = 1e-5
    # first term vanishes with a zero initial spectrum
    v = increment_bound(2e-5, 1e-6, tau, 0.5, AlgebraicSpectrum(0, 0, 2.3), spec_a, 1.0)
    assert v == pytest.approx(math.sqrt(2.0) * tail_constant(spec_a) * 1e-3, rel=1e-12)
    # plug-in value
    t = tau + 1e-6
    v = increment_bound(t, 1e-6, tau, 0.5, spec_c, spec_a, 1.0)
    ref = math.sqrt((2 / 0.3 + 1 / 1.3) / t + 2.0 * 1e4 * (4 + 2 / 3)) * 1e-3
    assert v == pytest.approx(ref, rel=1e-12)
    # sqrt(h) law
    assert increment_bound(t, 4e-6, tau, 0.5, spec_c, spec_a, 1.0) == pytest.approx(
        2.0 * v, rel=1e-12)
    with pytest.raises(DomainError):
        increment_bound(tau, 1e-6, tau, 0.5, spec_c, spec_a, 1.0)


def test_measured_increment_c():
    # the sup of (1+x) E_{alpha,alpha}(-x) is its x -> 0 value 1/Gamma(alpha)
    for alpha in np.append(np.linspace(0.01, 1.0, 100), [0.4999999, 0.5000001, 0.9999]):
        assert measured_increment_c(alpha) == 1.0 / gamma(alpha)
    assert measured_increment_c(1.0) == 1.0
    with pytest.raises(DomainError):
        measured_increment_c(0.0)


def test_increment_c_bounds_ml_neg():
    # the evidence for the closed form: (1+x) E_{alpha,alpha}(-x) stays at
    # or below 1/Gamma(alpha) on a dense grid, its largest value at x -> 0
    xs = np.geomspace(1e-8, 1e8, 4001)
    for alpha in (0.08, 0.1, 0.3, 0.5, 0.75, 0.9, 0.99, 1.0):
        scaled = (1.0 + xs) * ml_neg(alpha, xs, beta=alpha)
        assert np.all(scaled <= 1.0 / gamma(alpha)), alpha
        assert xs[np.argmax(scaled)] <= 1e-7, alpha
    # below alpha = 0.08 ml_neg refuses x of about 1.03 to 3 at beta = alpha:
    # the mpmath oracle stands in there (the ratio peaks near 0.990)
    for alpha in (0.02, 0.05):
        for x in np.geomspace(0.01, 3.0, 10):
            scaled = (1.0 + x) * float(ml_oracle(alpha, float(x), alpha, dps=15))
            assert 0.0 < scaled * gamma(alpha) <= 0.991, (alpha, x)


def test_holder_envelope(spec_c, spec_a):
    tau = 1e-5
    # t <= tau: only the initial-spectrum sum contributes
    k_pre = holder_envelope(0.1, tau / 2, tau, spec_c, spec_a, lmax=50_000)
    expo = 1.2
    ells = np.arange(1, 50_001, dtype=float)
    k1 = float(np.sum(ells ** expo * ells ** -2.3))
    k1 += 50_000.0 ** (expo + 1 - 2.3) / (2.3 - expo - 1)
    assert k_pre == pytest.approx(2.0 ** 3.9 * k1, rel=1e-12)
    # t > tau adds the noise term
    k_post = holder_envelope(0.1, 10 * tau, tau, spec_c, spec_a, lmax=50_000)
    assert k_post > k_pre
    # monotone increasing in lmax (remainder makes it an upper bound anyway)
    assert holder_envelope(0.1, tau / 2, tau, spec_c, spec_a, lmax=100_000) >= k_pre * 0.999999
    # assumption violated
    with pytest.raises(DomainError):
        holder_envelope(0.2, tau / 2, tau, spec_c, spec_a)  # needs kappa > 2.4
    k45 = AlgebraicSpectrum(1.0, 1.0, 4.5)
    v = holder_envelope(1.0, tau / 2, tau, k45, AlgebraicSpectrum(0, 0, 4.5), lmax=10_000)
    ref = 2.0 ** 3.0 * (float(np.sum(ells[:10_000] ** 3.0 * ells[:10_000] ** -4.5))
                        + 10_000.0 ** -0.5 / 0.5)
    assert v == pytest.approx(ref, rel=1e-10)
