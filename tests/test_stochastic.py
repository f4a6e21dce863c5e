import math
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from fracsphere import stochastic
from fracsphere import (AccuracyError, AlgebraicSpectrum, CoefficientSet, DomainError,
                        FractionalModel, RngStream, chi_square_power, coefficient_variance,
                        covariance_function, cross_sigma, holder_envelope, ml_neg,
                        sample_combined, sample_combined_pair, sample_combined_times,
                        sigma_squared, sigma_squared_bound)
from fracsphere.stochastic import ROLE_INC_IM, ROLE_INC_RE, ROLE_LAW_IM, ROLE_LAW_RE

from conftest import ml_oracle


def closed_form_sigma2_a1(ell, t):
    lam = ell * (ell + 1.0)
    return -math.expm1(-2.0 * lam * t) / (2.0 * lam) if ell else t


# --------------------------------------------------------------------------
# sigma^2 and cross covariance

def test_sigma_squared_trivial():
    assert sigma_squared(0, 3.0, 0.7) == 3.0
    assert sigma_squared(17, 0.0, 0.7) == 0.0


def test_sigma_squared_alpha1_closed_form():
    # quadrature against the exact (1 - e^(-2 lambda t))/(2 lambda)
    for ell in (1, 2, 7, 30, 100):
        for t in (1e-4, 1e-2, 1.0, 10.0):
            ref = closed_form_sigma2_a1(ell, t)
            assert sigma_squared(ell, t, 1.0) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_sigma_squared_le_t_and_monotone():
    ts = np.logspace(-6, 1, 12)
    for alpha in (0.3, 0.5, 0.75, 1.0):
        for ell in (1, 5, 40, 200):
            vals = [sigma_squared(ell, float(t), alpha) for t in ts]
            assert all(v <= t * (1 + 1e-12) for v, t in zip(vals, ts))
            assert all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
        # non-increasing in ell at fixed t
        for t in (1e-3, 1.0):
            by_ell = [sigma_squared(ell, t, alpha) for ell in (1, 2, 5, 20, 90, 200)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(by_ell, by_ell[1:]))


def test_sigma_squared_bound_values_and_domination():
    # placed examples
    assert sigma_squared_bound(1, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    ref = 30.0 ** -2.0 * (1.0 + math.pi / 4.0 * math.log(900.0 * 10.0))
    assert sigma_squared_bound(5, 10.0, 0.5) == pytest.approx(ref, rel=1e-14, abs=0.0)
    # domination wherever the regime assumptions hold
    for alpha in (0.3, 0.5, 0.75, 1.0):
        for ell in (1, 4, 15, 60, 200):
            for t in np.logspace(-5, 1, 8):
                lam = ell * (ell + 1.0)
                if alpha == 0.5 and lam * lam * t <= 1.0:
                    with pytest.raises(DomainError):
                        sigma_squared_bound(ell, float(t), alpha)
                    continue
                assert sigma_squared(ell, float(t), alpha) <= \
                    sigma_squared_bound(ell, float(t), alpha) * (1 + 1e-10)


def test_cross_sigma_basics():
    assert cross_sigma(3, 0.5, 0.0, 0.6) == sigma_squared(3, 0.5, 0.6)
    assert cross_sigma(0, 0.7, 0.3, 0.6) == 0.7
    # alpha = 1 closed form: e^(-lambda h) sigma^2(s)
    got = cross_sigma(1, 1.0, 0.5, 1.0)
    assert got == pytest.approx(math.exp(-1.0) * closed_form_sigma2_a1(1, 1.0), rel=1e-9)


def test_cross_sigma_cauchy_schwarz():
    for alpha in (0.5, 0.75, 1.0):
        for ell in (1, 9, 50):
            for s, h in ((1e-6, 1e-6), (1e-3, 5e-4), (0.5, 2.0)):
                c = cross_sigma(ell, s, h, alpha)
                hi = math.sqrt(sigma_squared(ell, s, alpha)
                               * sigma_squared(ell, s + h, alpha))
                assert 0.0 <= c <= hi * (1 + 1e-10)


# --------------------------------------------------------------------------
# kernel variances against 20- and 30-digit oracles

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def _kernel_oracle(e_neg, alpha, ell, s, h, w_lo, n_panels, dps=30):
    """int_0^s E(-lambda (r+h)^a) E(-lambda r^a) dr in mpmath, with e_neg(x)
    = E_alpha(-x).  In u = lambda^(1/a) r and then w = ln u the integrand is
    smooth; 24-point Gauss-Legendre panels cover [w_lo, ln S], and the head
    below e^w_lo is taken as e^w_lo times its integrand there."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        scale = (mp.mpf(ell) * (ell + 1)) ** (1 / a)
        big_h = scale * mp.mpf(h)

        def f(w):
            u = mp.exp(w)
            return u * e_neg((u + big_h) ** a) * e_neg(u ** a)

        w_hi = mp.log(scale * mp.mpf(s))
        total = f(mp.mpf(w_lo))
        for k in range(n_panels):
            lo = w_lo + (w_hi - w_lo) * k / n_panels
            hi = w_lo + (w_hi - w_lo) * (k + 1) / n_panels
            total += (hi - lo) / 2 * mp.fsum(
                mp.mpf(wi) * f((lo + hi) / 2 + (hi - lo) / 2 * mp.mpf(xi))
                for xi, wi in zip(_GL_X, _GL_W))
        return total / scale


def _e_half(x):
    return mp.exp(x * x) * mp.erfc(x)


def _e_general(alpha):
    return lambda x: ml_oracle(alpha, x, dps=20)


@pytest.mark.parametrize("ell,h", [(400, 0.0), (346, 1.1e-5)])
def test_kernels_vs_oracle_alpha_half(ell, h):
    # increments-scale inputs; the adaptive quadrature used before missed
    # these by 1.8e-9 (sigma^2) and 1.3e-5 (cross) relative
    ref = _kernel_oracle(_e_half, 0.5, ell, 9e-5, h, -35.0, 17)
    assert cross_sigma(ell, 9e-5, h, 0.5) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("ell,s,h", [(11, 9e-5, 9e-9), (31, 1e-6, 1e-9), (6, 1e-3, 1e-7)])
def test_cross_sigma_vs_oracle_alpha_half_small_h(ell, s, h):
    # h/s = 1e-3 to 1e-4: the head panel used to leave the kink of
    # (u + H)^alpha at u = -H ungraded and raised AccuracyError here
    ref = _kernel_oracle(_e_half, 0.5, ell, s, h, -35.0, 17)
    assert cross_sigma(ell, s, h, 0.5) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_sigma_squared_vs_oracle_alpha_075():
    for ell, n_panels in ((50, 12), (400, 14)):
        ref = _kernel_oracle(_e_general(0.75), 0.75, ell, 9e-5, 0.0, -35.0, n_panels, dps=20)
        assert sigma_squared(ell, 9e-5, 0.75) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_cross_sigma_vs_oracle_alpha_075():
    ref = _kernel_oracle(_e_general(0.75), 0.75, 50, 9e-5, 1.1e-5, -35.0, 12, dps=20)
    assert cross_sigma(50, 9e-5, 1.1e-5, 0.75) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("alpha,ell,s,h", [(0.3, 1, 0.1, 1e-10), (0.9, 2, 1.0, 1e-4),
                                           (0.99, 10, 0.02, 1e-5), (0.9, 1, 1e-4, 1e-6)])
def test_cross_sigma_vs_oracle_below_table_start(alpha, ell, s, h):
    # 0.01 H is below the kernel table's first knot z0 = 1e-3^(1/alpha), so
    # the head and the panels up to z0 evaluate both factors; the panels
    # above read E(-u^alpha) from the table (none in the last case, S < z0)
    scale = (ell * (ell + 1.0)) ** (1.0 / alpha)
    assert 0.01 * scale * h < 1e-3 ** (1.0 / alpha)
    ref = _kernel_oracle(_e_general(alpha), alpha, ell, s, h, -35.0, 20, dps=20)
    assert cross_sigma(ell, s, h, alpha) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_sigma_squared_vs_oracle_alpha_01_degree_1500():
    # lambda^10 s = 3e59: the integrand is algebraic, u^(-0.2), over the
    # last decades, which carry all but e^-30 of the integral
    ref = _kernel_oracle(_e_general(0.1), 0.1, 1500, 9e-5, 0.0, 95.0, 1, dps=20)
    assert sigma_squared(1500, 9e-5, 0.1) == pytest.approx(float(ref), rel=1e-10, abs=0.0)


def test_kernels_alpha1_degree_1500():
    lam, s, h = 1500 * 1501, 9e-5, 1.1e-5
    with mp.workdps(30):
        sig = -mp.expm1(-2 * mp.mpf(lam) * s) / (2 * lam)
        cross = mp.exp(-mp.mpf(lam) * h) * sig
    assert sigma_squared(1500, s, 1.0) == pytest.approx(float(sig), rel=1e-10, abs=0.0)
    assert cross_sigma(1500, s, h, 1.0) == pytest.approx(float(cross), rel=1e-10, abs=0.0)


# --------------------------------------------------------------------------
# kernel variances: evaluation paths

@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
def test_kernel_arrays_match_scalars_bitwise(alpha):
    ells = np.arange(61)
    sig = sigma_squared(ells, 3e-4, alpha)
    cross = cross_sigma(ells, 3e-4, 2e-5, alpha)
    assert sig.shape == cross.shape == ells.shape
    for ell in (0, 1, 7, 33, 60):
        assert sig[ell] == sigma_squared(ell, 3e-4, alpha)
        assert cross[ell] == cross_sigma(ell, 3e-4, 2e-5, alpha)
    assert np.array_equal(cross_sigma(ells, 3e-4, 0.0, alpha), sig)


_ORDER_SCRIPT = """
import numpy as np
from fracsphere.stochastic import sigma_squared
{first}
print(sigma_squared(37, 1e-3, 0.65).hex())
"""


def test_sigma_squared_independent_of_query_order():
    def fresh(first):
        out = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT.format(first=first)],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    alone = fresh("")
    after_far = fresh("sigma_squared(np.arange(3000), 50.0, 0.65)")
    sigma_squared(np.arange(2000), 20.0, 0.65)  # this process: grow the table first
    here = sigma_squared(37, 1e-3, 0.65).hex()
    assert alone == after_far == here


def test_kernel_degree_and_range_checks():
    for bad in (np.array([1.0, -1.0]), np.array([2.5]), np.array([np.nan])):
        with pytest.raises(DomainError):
            sigma_squared(bad, 1e-3, 0.5)
        with pytest.raises(DomainError):
            cross_sigma(bad, 1e-3, 1e-4, 0.5)
    with pytest.raises(DomainError):
        cross_sigma(np.arange(3), 1e-3, 1e-4, 1.5)
    for bad in (math.nan, math.inf, -1e-3):
        with pytest.raises(DomainError):
            sigma_squared(3, bad, 0.5)
        with pytest.raises(DomainError):
            cross_sigma(3, 1e-3, bad, 0.5)
    # lambda^(1/alpha) t overflows: refused, not a silent inf or 0
    with pytest.raises(AccuracyError):
        sigma_squared(10 ** 5, 1.0, 0.01)


@pytest.mark.filterwarnings("error")
def test_sigma_squared_past_table_end_refused():
    # lambda^(1/alpha) t above 1e302 at alpha = 1/2 used to build table
    # knots z0 10^(k/4) that overflow to inf, with three RuntimeWarnings,
    # and end in a DomainError from ml_neg on the NaN nodes (exit 2)
    assert sigma_squared(5, 1e298, 0.5) == pytest.approx(0.2452, rel=1e-3)
    with pytest.raises(AccuracyError, match=r"sigma_squared.*alpha=0.5, t=1e\+300"):
        sigma_squared(5, 1e300, 0.5)
    with pytest.raises(AccuracyError, match="alpha=0.1"):
        sigma_squared(1, 1e279, 0.1)


@pytest.mark.filterwarnings("error")
def test_cross_sigma_past_table_end_refused():
    # cross_sigma reads E(-u^alpha) from the same table, up to S
    assert cross_sigma(5, 1e298, 1.0, 0.5) == pytest.approx(0.2432, rel=1e-3)
    with pytest.raises(AccuracyError, match=r"cross_sigma.*alpha=0.5, s=1e\+300"):
        cross_sigma(5, 1e300, 1.0, 0.5)


@pytest.mark.filterwarnings("error")
def test_cross_sigma_head_underflow_refused():
    # 0.01 lambda^(1/alpha) h underflows to 0 at the least subnormal h: an
    # AccuracyError naming s, h and alpha, with no log10(0) warning first;
    # a subnormal h whose head end stays positive is still evaluated
    with pytest.raises(AccuracyError, match=r"cross_sigma.*s=1.0, h=5e-324, alpha=0.5"):
        cross_sigma(1, 1.0, 5e-324, 0.5)
    assert cross_sigma(2, 1.0, 1e-320, 0.5) == pytest.approx(sigma_squared(2, 1.0, 0.5), rel=1e-12)


# --------------------------------------------------------------------------
# samplers: determinism and shape

@pytest.fixture(scope="module")
def spectra():
    return AlgebraicSpectrum(1.0, 1.0, 2.3), AlgebraicSpectrum(1e4, 1e4, 2.5)


@pytest.fixture(scope="module")
def model(spectra):
    return FractionalModel(0.5, 1e-5, *spectra)


@pytest.fixture(scope="module")
def hom_model(model):
    # tau = inf: the homogeneous part only
    return FractionalModel(model.alpha, math.inf, model.spec_c, model.spec_a)


_ZERO = AlgebraicSpectrum(0.0, 0.0, 2.5)


def _initial_draw(spec_c, L, rng, realization=0):
    # the initial field at exactly t = 0, which the public samplers refuse
    model = FractionalModel(1.0, math.inf, spec_c, _ZERO)
    return stochastic._sample(model, L, [0.0], rng, realization, False)[0]


def test_sampler_determinism(model):
    rng = RngStream(987654321)
    a = sample_combined(model, 40, 1e-4, rng, realization=7)
    b = sample_combined(model, 40, 1e-4, rng, realization=7)
    assert np.array_equal(a.values, b.values)
    c = sample_combined(model, 40, 1e-4, rng, realization=8)
    assert not np.array_equal(a.values, c.values)
    d = sample_combined(model, 40, 1e-4, RngStream(123), realization=7)
    assert not np.array_equal(a.values, d.values)


def test_rng_stream_refuses_fractional_coordinates():
    for bad in (1.5, -1, 2 ** 64, "3"):
        with pytest.raises(DomainError):
            RngStream(bad)
    rng = RngStream(1)
    for args in ((0.5, 0, 0), (0, 2.5, 0), (0, 0, 1.5), (-1, 0, 0), (0, 0, 256),
                 (math.nan, 0, 0)):
        with pytest.raises(DomainError):
            rng.normals(*args, 4)
    # a whole number is the same coordinate in any numeric type
    same = RngStream(3.0).normals(np.int64(2), 1.0, 0, 4)
    assert np.array_equal(same, RngStream(3).normals(2, 1, 0, 4))


def test_rng_stream_packed_order(spectra):
    # variate l(l+1)/2 + m of stream (seed, realization, role) is (l, m)'s
    rng = RngStream(8)
    whole = rng.normals(3, 0, ROLE_LAW_RE, 21)
    for ell in (0, 1, 4):
        assert np.array_equal(rng.normals(3, ell, ROLE_LAW_RE, 2),
                              whole[ell * (ell + 1) // 2:][:2])
    spec_c, _ = spectra
    init = _initial_draw(spec_c, 5, rng, realization=3)
    z_im = rng.normals(3, 0, ROLE_LAW_IM, 21)
    ell, m = 5, 2
    k = ell * (ell + 1) // 2 + m
    amp = math.sqrt(spec_c.value(ell) / 2.0)
    assert init.re[k] == amp * whole[k] and init.im[k] == -(amp * z_im[k])
    assert init.values[ell, m] == pytest.approx(amp * (whole[k] - 1j * z_im[k]),
                                                rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_sampler_prefix_across_degrees(alpha, spectra):
    # rows l <= 50 of a degree-50 draw are those of a degree-400 draw
    m = FractionalModel(alpha, 1e-5, *spectra)
    rng = RngStream(606)
    for t in (m.tau / 2, 10 * m.tau):
        small = sample_combined(m, 50, t, rng, realization=5)
        big = sample_combined(m, 400, t, rng, realization=5)
        assert np.array_equal(small.values, big.values[:51, :51])


def test_pair_prefix_across_degrees(model):
    # alpha = 1/2 only: a general-alpha cross_sigma stack at L = 400 takes ~30 s
    rng = RngStream(606)
    times = [2e-5, 2e-5 + 3e-6]
    small = sample_combined_times(model, 50, times, rng, realization=5)
    big = sample_combined_times(model, 400, times, rng, realization=5)
    for a, b in zip(small, big):
        assert np.array_equal(a.values, b.values[:51, :51])


def test_increment_prefix_across_degrees(model):
    rng = RngStream(606)
    small = sample_combined_pair(model, 50, 2e-5, 3e-6, rng, realization=5)
    big = sample_combined_pair(model, 400, 2e-5, 3e-6, rng, realization=5)
    assert np.array_equal(small.values, big.values[:51, :51])


def test_increment_draws_two_arrays(model, monkeypatch):
    # sqrt(v_l) times one pair of increment roles, nothing else
    roles, real = [], RngStream.normals
    monkeypatch.setattr(RngStream, "normals",
                        lambda self, j, ell, role, n: roles.append(role) or real(self, j, ell, role, n))
    sample_combined_pair(model, 8, 2e-5, 3e-6, RngStream(1))
    assert roles == [ROLE_INC_RE, ROLE_INC_IM]


def _increment_law_reference(model, L, t, h):
    # C_l (E(t+h) - E(t))^2 + A_l D_l from the public kernels
    ells = np.arange(L + 1)
    lam = ells * (ells + 1.0)
    a, s = model.alpha, t - model.tau
    de = ml_neg(a, lam * (t + h) ** a) - ml_neg(a, lam * t ** a)
    d = (sigma_squared(ells, s, a) + sigma_squared(ells, s + h, a)
         - 2.0 * cross_sigma(ells, s, h, a))
    return model.spec_c.value(ells) * de ** 2 + model.spec_a.value(ells) * d


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_increment_law_matches_kernels(spectra, alpha):
    # the reference pins the times, lags and spectra the draw uses; at
    # alpha = 1 ml_neg is its closed form exp(-x)
    m = FractionalModel(alpha, 1e-5, *spectra)
    t, h, L = 2e-5, 3e-6, 60
    v = stochastic._increment_law(m, L, t, t + h)
    assert v == pytest.approx(_increment_law_reference(m, L, t, h), rel=1e-12, abs=0.0)


def test_increment_single_draw_chi_square(model):
    # p_l / v_l ~ chi^2_{2l+1}, so T is close to N(0, 1); a 5% variance
    # error above l = 200 moves T by about 11
    L, t, h = 400, 2e-5, 3e-6
    v = stochastic._increment_law(model, L, t, t + h)
    ells = np.arange(L + 1)
    for j in range(5):
        p = sample_combined_pair(model, L, t, h, RngStream(77),
                                 realization=j).degree_power()
        big_t = np.sum(p / v - (2 * ells + 1)) / math.sqrt(np.sum(2.0 * (2 * ells + 1)))
        assert abs(big_t) < 5.0


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_law_single_draw_chi_square(spectra, alpha):
    # the one-time law draw: p_l / v_l ~ chi^2_{2l+1} with v_l the
    # analytic coefficient variance, so T is close to N(0, 1)
    m = FractionalModel(alpha, 1e-5, *spectra)
    L, t = 400, 1e-4
    ells = np.arange(L + 1)
    v = coefficient_variance(m, ells, t)
    for j in range(5):
        p = sample_combined(m, L, t, RngStream(77), realization=j).degree_power()
        big_t = np.sum(p / v - (2 * ells + 1)) / math.sqrt(np.sum(2.0 * (2 * ells + 1)))
        assert abs(big_t) < 5.0


def test_chi_square_power_matches_sampler_in_law(model):
    # p_l / v_l of a sampler draw and of a one-draw chi-square power are
    # both chi^2_{2l+1}: per degree, the two samples' means and variances
    # agree within 5 standard errors
    L, t, n = 6, 1e-4, 4000
    v = coefficient_variance(model, np.arange(L + 1), t)
    rng = RngStream(41)
    field = np.array([sample_combined(model, L, t, rng, realization=j).degree_power()
                      for j in range(n)]) / v
    chi = np.array([chi_square_power(model, L, t, rng, j, 1) for j in range(n)]) / v
    for x, y in zip(field.T, chi.T):
        se = math.sqrt((x.var() + y.var()) / n)
        assert abs(x.mean() - y.mean()) <= 5.0 * se
        se = math.sqrt((np.mean((x - x.mean()) ** 4) - x.var() ** 2
                        + np.mean((y - y.mean()) ** 4) - y.var() ** 2) / n)
        assert abs(x.var() - y.var()) <= 5.0 * se


@pytest.mark.parametrize("t,h", [(1e-4, None), (2e-5, 3e-6)])
def test_chi_square_power_prefix_across_degrees(model, t, h):
    # rows l <= 50 of a degree-50 chi-square power are those at degree 400
    rng = RngStream(606)
    small = chi_square_power(model, 50, t, rng, 5, 49, h)
    big = chi_square_power(model, 400, t, rng, 5, 49, h)
    assert np.array_equal(small, big[:51])


def _law_draw_reference(v, rng, realization, roles):
    # sqrt(v_l) Z_re at (l, 0); sqrt(v_l / 2) (Z_re - i Z_im) at (l, m >= 1),
    # with Z variate l(l+1)/2 + m of each role's stream
    L = len(v) - 1
    z_re, z_im = (rng.normals(realization, 0, role, (L + 1) * (L + 2) // 2)
                  for role in roles)
    out = np.zeros((L + 1, L + 1), dtype=complex)
    k = 0
    for ell in range(L + 1):
        out[ell, 0] = math.sqrt(v[ell]) * z_re[k]
        sd = math.sqrt(v[ell] / 2.0)
        for m in range(1, ell + 1):
            out[ell, m] = complex(sd * z_re[k + m], -(sd * z_im[k + m]))
        k += ell + 1
    return out


def test_law_draws_bitwise_from_roles(model):
    # roles pinned as numbers: they are part of the RNG scheme
    rng, L, t, h = RngStream(31), 12, 2e-5, 3e-6
    one = sample_combined(model, L, t, rng, realization=3)
    v = coefficient_variance(model, np.arange(L + 1), t)
    assert np.array_equal(one.values, _law_draw_reference(v, rng, 3, (4, 5)))
    inc = sample_combined_pair(model, L, t, h, rng, realization=3)
    v = stochastic._increment_law(model, L, t, t + h)
    assert np.array_equal(inc.values, _law_draw_reference(v, rng, 3, (2, 3)))


def test_increment_without_noise_takes_tiny_h(spectra):
    # with A = 0 the law needs no D_l, so h = 1e-16 is not refused
    spec_c, _ = spectra
    d = sample_combined_pair(FractionalModel(0.5, 1e-5, spec_c, _ZERO), 8, 2e-5, 1e-16,
                             RngStream(1))
    assert np.all(np.isfinite(d.values))
    d = sample_combined_pair(FractionalModel(0.5, 1e-5, _ZERO, _ZERO), 8, 2e-5, 3e-6,
                             RngStream(1))
    assert not np.any(d.values)


def test_increment_without_accurate_digit_refused(model):
    # at l = 0, D_0 = h; against s = 1e-5 a lag of 1e-16 is below the
    # kernels' 1e-10 relative error allowance, so D_0 has no accurate digit
    with pytest.raises(AccuracyError, match=r"l=0, s=1e-05, h=1e-16"):
        sample_combined_pair(model, 8, 2e-5, 1e-16, RngStream(1))


def test_initial_sampler_structure(hom_model):
    rng = RngStream(5)
    c = sample_combined(hom_model, 30, 1e-4, rng)
    assert np.all(c.values[:, 0].imag == 0.0)  # m = 0 row is real
    tri = np.tril(np.ones((31, 31), dtype=bool))
    assert np.all(c.values[~tri] == 0.0)  # m > l entries empty
    zero = FractionalModel(hom_model.alpha, math.inf, _ZERO, _ZERO)
    assert np.all(sample_combined(zero, 10, 1e-4, rng).values == 0.0)


def test_homogeneous_decay(model, hom_model):
    # the homogeneous part at t decays the t = 0 draw by E_alpha(-lambda_l t^alpha)
    rng = RngStream(5)
    init = _initial_draw(model.spec_c, 20, rng)
    same, later = stochastic._sample(hom_model, 20, [0.0, 0.5], rng, 0, False)
    assert np.array_equal(same.values, init.values)
    assert later.values[0, 0] == init.values[0, 0]  # lambda_0 = 0
    fac = ml_neg(model.alpha, 2.0 * 0.5 ** model.alpha)
    assert later.values[1, 1] == pytest.approx(fac * init.values[1, 1], rel=1e-14,
                                               abs=0.0)
    # the one-time draw at 0.5 scales the same variates: Sigma's factor
    # column sqrt(C E(0.5)^2) against C E(0) E(0.5) / sqrt(C E(0)^2)
    alone = sample_combined(hom_model, 20, 0.5, rng)
    assert np.allclose(alone.values, later.values, rtol=1e-14, atol=0.0)


def test_inhomogeneous_zero_until_onset(model):
    # spec_c = 0: the noise-driven part only
    noise = FractionalModel(model.alpha, model.tau, _ZERO, model.spec_a)
    rng = RngStream(5)
    pre = sample_combined(noise, 10, model.tau, rng)
    assert np.all(pre.values == 0.0)
    post = sample_combined(noise, 10, 2 * model.tau, rng)
    assert np.any(post.values != 0.0)
    assert np.all(post.values[:, 0].imag == 0.0)


def test_combined_before_onset_is_homogeneous(model, hom_model):
    rng = RngStream(44)
    t = model.tau / 2
    combined = sample_combined(model, 15, t, rng, realization=2)
    hom = sample_combined(hom_model, 15, t, rng, realization=2)
    assert np.array_equal(combined.values, hom.values)


def test_row_sampler_matches_full(model):
    # row l of a draw at degree l is that row of any larger draw, which
    # _mc_rows relies on
    rng = RngStream(31337)
    for t in (model.tau / 2, 10 * model.tau):
        full = sample_combined(model, 50, t, rng, realization=9)
        for ell in (0, 5, 50):
            row = sample_combined(model, ell, t, rng, realization=9).values[ell]
            assert np.array_equal(row, full.values[ell, : ell + 1])


def test_pair_marginal_bitwise(model):
    rng = RngStream(2024)
    single = sample_combined(model, 30, 1e-4, rng, realization=4)
    a, b = sample_combined_times(model, 30, [1e-4, 1e-4 + 3e-6], rng, realization=4)
    assert np.array_equal(a.values, single.values)


def test_times_sampler_consistency(model, hom_model):
    rng = RngStream(77)
    times = [model.tau / 2, 5 * model.tau, 20 * model.tau]
    outs = sample_combined_times(model, 25, times, rng, realization=1)
    # pre-onset snapshot is the pure homogeneous draw
    hom = sample_combined(hom_model, 25, times[0], rng, realization=1)
    assert np.array_equal(outs[0].values, hom.values)


def test_times_first_snapshot_is_one_time_draw(model):
    # column 0 of the joint law takes the one-time law's roles and weights
    rng = RngStream(91)
    for t in (model.tau / 2, 5 * model.tau):
        outs = sample_combined_times(model, 25, [t, 20 * model.tau], rng, realization=2)
        single = sample_combined(model, 25, t, rng, realization=2)
        assert np.array_equal(outs[0].values, single.values)


def test_times_prefix_bitwise(model):
    # row i of the factor and output i read only the first i + 1 times
    rng = RngStream(92)
    times = [model.tau / 2, 5 * model.tau, 20 * model.tau]
    three = sample_combined_times(model, 25, times, rng, realization=3)
    two = sample_combined_times(model, 25, times[:2], rng, realization=3)
    for a, b in zip(two, three):
        assert np.array_equal(a.values, b.values)


def test_times_count_refused_before_kernels(model, monkeypatch):
    # column j takes roles ROLE_LAW_RE + 2j and ROLE_LAW_IM + 2j, below 256
    calls, real = [], stochastic.cross_sigma
    monkeypatch.setattr(stochastic, "cross_sigma",
                        lambda *a: calls.append(1) or real(*a))
    n = stochastic._MAX_TIMES
    assert ROLE_LAW_IM + 2 * (n - 1) == 255
    times = [2 * model.tau + 1e-7 * k for k in range(n + 1)]
    with pytest.raises(DomainError, match="at most"):
        sample_combined_times(model, 40, times, RngStream(1))
    assert calls == []


def test_cholesky_semidefinite_pivots():
    # a rank-1 stack (the times before the noise onset) gets an exactly
    # zero second column, whatever the sign of its roundoff pivot
    e = np.array([[1.0, 0.3], [0.7, 0.1], [1.0, 1.0 / 3.0], [0.9, 0.9]])
    cov = np.array([[1.0], [2.5], [3.0], [0.1]])[:, :, None] * e[:, :, None] * e[:, None, :]
    f = stochastic._cholesky(cov, (1.0, 2.0))
    assert np.all(f[:, :, 1] == 0.0)
    assert np.allclose(f[:, 1, 0], np.sqrt(cov[:, 1, 1]), rtol=1e-14, atol=0.0)
    bad = np.array([[[1.0, 0.5], [0.5, 1.0]], [[1.0, 2.0], [2.0, 1.0]]])
    with pytest.raises(AccuracyError, match=r"l=1, times=\[1.0, 2.0\]"):
        stochastic._cholesky(bad, (1.0, 2.0))


def test_zero_everything():
    m = FractionalModel(0.5, 1e-5, _ZERO, _ZERO)
    out = sample_combined(m, 12, 1e-4, RngStream(1))
    assert np.all(out.values == 0.0)


# --------------------------------------------------------------------------
# samplers: distribution checks (5 standard errors at moderate N)

def _mc_rows(model, ell, t, n, seed=99):
    # row l of n draws at degree l: the rows of a draw at any larger degree
    rng = RngStream(seed)
    rows = np.empty((n, ell + 1), dtype=complex)
    for j in range(n):
        rows[j] = sample_combined(model, ell, t, rng, realization=j).values[ell]
    return rows


def test_initial_variance_mc(spectra):
    spec_c, _ = spectra
    rng = RngStream(42)
    n, ell = 10_000, 5
    vals = np.empty((n, ell + 1), dtype=complex)
    for j in range(n):
        vals[j] = _initial_draw(spec_c, ell, rng, realization=j).values[ell]
    cl = spec_c.value(ell)
    for m in (0, 1, 4):
        mc = np.mean(np.abs(vals[:, m]) ** 2)
        se = cl * math.sqrt((2.0 if m == 0 else 1.0) / n)
        assert abs(mc - cl) <= 5.0 * se
    # zero means
    assert np.all(np.abs(vals.mean(axis=0)) <= 5.0 * math.sqrt(cl / n))


def test_combined_variance_mc(model):
    n = 10_000
    for t in (model.tau / 2, 10 * model.tau):
        rows = _mc_rows(model, 5, t, n)
        target = coefficient_variance(model, 5, t)
        for m in (0, 3):
            mc = np.mean(np.abs(rows[:, m]) ** 2)
            se = target * math.sqrt((2.0 if m == 0 else 1.0) / n)
            assert abs(mc - target) <= 5.0 * se


def test_cross_coefficient_independence(model):
    n = 10_000
    rows = _mc_rows(model, 7, 10 * model.tau, n, seed=5)
    v = coefficient_variance(model, 7, 10 * model.tau)
    # distinct m are uncorrelated
    for m1, m2 in ((0, 1), (1, 2), (3, 7)):
        corr = np.mean(rows[:, m1] * np.conj(rows[:, m2])) / v
        assert abs(corr) <= 5.0 / math.sqrt(n)


def test_real_imag_split_mc(model):
    # Re and Im of V_{l,m}, m >= 1, are independent N(0, v/2)
    n = 10_000
    rows = _mc_rows(model, 4, 10 * model.tau, n, seed=13)
    v = coefficient_variance(model, 4, 10 * model.tau)
    re, im = rows[:, 2].real, rows[:, 2].imag
    assert abs(np.mean(re ** 2) - v / 2) <= 5.0 * (v / 2) * math.sqrt(2.0 / n)
    assert abs(np.mean(im ** 2) - v / 2) <= 5.0 * (v / 2) * math.sqrt(2.0 / n)
    assert abs(np.mean(re * im) / (v / 2)) <= 5.0 / math.sqrt(n)


def test_pair_increment_variance_alpha1(spectra):
    # alpha = 1 closed forms make the pair law fully checkable
    spec_c, spec_a = spectra
    m1 = FractionalModel(1.0, 1e-5, spec_c, spec_a)
    t, h, ell = 2e-5, 1e-5, 1
    lam = 2.0
    s = t - m1.tau
    n = 20_000
    rng = RngStream(7)
    acc = 0.0
    for j in range(n):
        a, b = sample_combined_times(m1, ell, [t, t + h], rng, realization=j)
        acc += abs(b.values[1, 1] - a.values[1, 1]) ** 2
    mc = acc / n
    e1, e2 = math.exp(-lam * t), math.exp(-lam * (t + h))
    s1, s2 = closed_form_sigma2_a1(1, s), closed_form_sigma2_a1(1, s + h)
    cr = math.exp(-lam * h) * s1
    expect = spec_c.value(1) * (e2 - e1) ** 2 + spec_a.value(1) * (s1 + s2 - 2 * cr)
    assert abs(mc - expect) <= 5.0 * expect * math.sqrt(2.0 / n)


def test_pair_increment_variance_alpha_half(model):
    # same check against the quadrature-based covariance at alpha = 1/2
    t, h, ell = 2e-5, 1e-5, 3
    s = t - model.tau
    n = 20_000
    rng = RngStream(8)
    acc = 0.0
    for j in range(n):
        a, b = sample_combined_times(model, ell, [t, t + h], rng, realization=j)
        acc += abs(b.values[ell, 2] - a.values[ell, 2]) ** 2
    mc = acc / n
    lam = ell * (ell + 1.0)
    de = (ml_neg(0.5, lam * math.sqrt(t + h)) - ml_neg(0.5, lam * math.sqrt(t)))
    expect = (model.spec_c.value(ell) * de ** 2
              + model.spec_a.value(ell) * (sigma_squared(ell, s, 0.5)
                                           + sigma_squared(ell, s + h, 0.5)
                                           - 2 * cross_sigma(ell, s, h, 0.5)))
    assert abs(mc - expect) <= 5.0 * expect * math.sqrt(2.0 / n)


def test_times_covariance_alpha1_mc(spectra):
    # E[Re V(t_i) Re V(t_j)] at (tau/2, 5 tau, 20 tau) against the exp closed
    # forms: C E_i E_j, plus A e^(-lambda (t_j - t_i)) sigma^2(t_i - tau) past tau
    spec_c = spectra[0]
    m1 = FractionalModel(1.0, 0.01, spec_c, AlgebraicSpectrum(10.0, 10.0, 2.5))
    ell, n = 3, 10_000
    lam = ell * (ell + 1.0)
    times = [m1.tau / 2, 5 * m1.tau, 20 * m1.tau]
    rng = RngStream(23)
    re = np.empty((2, n, 3))
    for j in range(n):
        outs = sample_combined_times(m1, ell, times, rng, realization=j)
        re[:, j] = [[o.values[ell, m].real for o in outs] for m in (0, 2)]
    cov = np.empty((3, 3))
    for i, ti in enumerate(times):
        for k, tk in enumerate(times):
            lo, hi = min(ti, tk), max(ti, tk)
            cov[i, k] = spec_c.value(ell) * math.exp(-lam * (ti + tk))
            if lo > m1.tau:
                cov[i, k] += (m1.spec_a.value(ell) * math.exp(-lam * (hi - lo))
                              * closed_form_sigma2_a1(ell, lo - m1.tau))
    for x, sig in zip(re, (cov, cov / 2.0)):  # Re V_{l,m} carries Sigma / 2 at m >= 1
        for i in range(3):
            for k in range(i, 3):
                se = math.sqrt((sig[i, i] * sig[k, k] + sig[i, k] ** 2) / n)
                assert abs(np.mean(x[:, i] * x[:, k]) - sig[i, k]) <= 5.0 * se


def test_increment_variance_alpha1(spectra):
    # the direct increment draw has the pair's law: alpha = 1 closed forms
    spec_c, spec_a = spectra
    m1 = FractionalModel(1.0, 1e-5, spec_c, spec_a)
    t, h, ell = 2e-5, 1e-5, 1
    lam = 2.0
    s = t - m1.tau
    n = 20_000
    rng = RngStream(7)
    acc = 0.0
    for j in range(n):
        d = sample_combined_pair(m1, ell, t, h, rng, realization=j)
        acc += abs(d.values[1, 1]) ** 2
    mc = acc / n
    e1, e2 = math.exp(-lam * t), math.exp(-lam * (t + h))
    s1, s2 = closed_form_sigma2_a1(1, s), closed_form_sigma2_a1(1, s + h)
    cr = math.exp(-lam * h) * s1
    expect = spec_c.value(1) * (e2 - e1) ** 2 + spec_a.value(1) * (s1 + s2 - 2 * cr)
    assert abs(mc - expect) <= 5.0 * expect * math.sqrt(2.0 / n)


def test_increment_variance_alpha_half(model):
    # same check against the quadrature-based covariance at alpha = 1/2
    t, h, ell = 2e-5, 1e-5, 3
    s = t - model.tau
    n = 20_000
    rng = RngStream(8)
    acc = 0.0
    for j in range(n):
        d = sample_combined_pair(model, ell, t, h, rng, realization=j)
        acc += abs(d.values[ell, 2]) ** 2
    mc = acc / n
    lam = ell * (ell + 1.0)
    de = (ml_neg(0.5, lam * math.sqrt(t + h)) - ml_neg(0.5, lam * math.sqrt(t)))
    expect = (model.spec_c.value(ell) * de ** 2
              + model.spec_a.value(ell) * (sigma_squared(ell, s, 0.5)
                                           + sigma_squared(ell, s + h, 0.5)
                                           - 2 * cross_sigma(ell, s, h, 0.5)))
    assert abs(mc - expect) <= 5.0 * expect * math.sqrt(2.0 / n)


def test_pair_marginal_distribution(model):
    # second marginal of the pair matches the single-time variance
    n = 10_000
    rng = RngStream(17)
    ell, t, h = 6, 2e-5, 4e-5
    acc = 0.0
    for j in range(n):
        _, b = sample_combined_times(model, ell, [t, t + h], rng, realization=j)
        acc += abs(b.values[ell, 1]) ** 2
    target = coefficient_variance(model, ell, t + h)
    assert abs(acc / n - target) <= 5.0 * target * math.sqrt(2.0 / n)


# --------------------------------------------------------------------------
# analytic second moments

def test_coefficient_variance_cases(model):
    assert coefficient_variance(model, 0, model.tau / 2) == pytest.approx(
        model.spec_c.value(0), rel=1e-12, abs=0.0)
    nonoise = FractionalModel(model.alpha, model.tau, model.spec_c,
                              AlgebraicSpectrum(0, 0, 2.5))
    t = 10 * model.tau
    lam = 110.0
    e = ml_neg(0.5, lam * math.sqrt(t))
    assert coefficient_variance(nonoise, 10, t) == pytest.approx(
        model.spec_c.value(10) * e * e, rel=1e-11, abs=0.0)
    assert coefficient_variance(model, 10, t) == pytest.approx(
        model.spec_c.value(10) * e * e
        + model.spec_a.value(10) * sigma_squared(10, t - model.tau, 0.5), rel=1e-11, abs=0.0)


def test_coefficient_variance_alpha1_closed_form(spectra):
    # C_l e^(-2 lambda t) + 1_{t>tau} A_l (1 - e^(-2 lambda (t - tau)))/(2 lambda),
    # A_0 (t - tau) at l = 0, written out independently of the sampler's
    # covariance; relative 1e-12, and exactly 0 where the closed form underflows
    spec_c, spec_a = spectra
    tau = 1e-5
    ells = np.arange(401)
    underflows = 0
    for a in (spec_a, AlgebraicSpectrum(0.0, 0.0, 2.5)):
        m = FractionalModel(1.0, tau, spec_c, a)
        for t in (5e-6, tau, 2e-5, 1e-2):  # before, at and after the noise onset
            ref = []
            for ell in range(401):
                lam = ell * (ell + 1.0)
                v = spec_c.value(ell) * math.exp(-2.0 * lam * t)
                if t > tau:
                    v += a.value(ell) * closed_form_sigma2_a1(ell, t - tau)
                ref.append(v)
            ref = np.array(ref)
            var = coefficient_variance(m, ells, t)
            nz = ref > 0.0
            assert var[nz] == pytest.approx(ref[nz], rel=1e-12, abs=0.0)
            assert np.all(var[~nz] == 0.0)
            underflows += int(np.sum(~nz))
    assert underflows > 0  # A = 0 at t = 1e-2 reaches it from l = 193 on


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_coefficient_variance_array_matches_scalars_bitwise(spectra, alpha):
    m = FractionalModel(alpha, 1e-5, *spectra)
    ells = np.arange(61)
    for t in (5e-6, 1e-4):  # before and after the noise onset
        var = coefficient_variance(m, ells, t)
        assert var.shape == ells.shape
        assert np.array_equal(var, [coefficient_variance(m, int(ell), t) for ell in ells])
    with pytest.raises(DomainError):
        coefficient_variance(m, np.array([2.5]), 1e-4)


def test_covariance_function_at_one(model):
    t = 10 * model.tau
    lmax = 60
    total = sum((2 * ell + 1) * coefficient_variance(model, ell, t)
                for ell in range(lmax + 1))
    assert covariance_function(model, t, 1.0, lmax) == pytest.approx(total, rel=1e-12)


def test_covariance_holder_consistency(model):
    # Var[U(x)-U(y)] = 2 (cov(1) - cov(cos theta)) <= K * theta^(2 beta*)
    t = 10 * model.tau
    lmax = 300
    k = holder_envelope(0.1, t, model.tau, model.spec_c, model.spec_a)
    c1 = covariance_function(model, t, 1.0, lmax)
    for theta in np.logspace(-3, math.log10(math.pi), 9):
        v = 2.0 * (c1 - covariance_function(model, t, math.cos(theta), lmax))
        assert v <= k * theta ** 0.2 * (1 + 1e-9)


def test_degree_power():
    values = np.zeros((3, 3), dtype=complex)
    values[1, 0] = 3.0
    values[1, 1] = 1.0 + 2.0j
    p = CoefficientSet.from_square(values).degree_power()
    assert p[1] == pytest.approx(9.0 + 2.0 * 5.0)
    assert p[1:].sum() == pytest.approx(19.0)  # the tail past L = 0


def _random_set(L, seed):
    rng = np.random.default_rng(seed)
    shape = (L + 1, L + 1)
    return CoefficientSet.from_square(rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_degree_power_matches_square_formula():
    c = _random_set(50, 3)
    v = c.values
    ref = np.abs(v[:, 0]) ** 2 + 2.0 * (np.abs(v[:, 1:]) ** 2).sum(axis=1)
    assert c.degree_power() == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_from_square_round_trip(model):
    c = sample_combined(model, 20, 1e-4, RngStream(9), realization=4)
    back = CoefficientSet.from_square(c.values)
    assert back.L == 20
    assert np.array_equal(back.re, c.re) and np.array_equal(back.im, c.im)
    full = np.arange(36.0).reshape(6, 6) * (1.0 - 2.0j)  # nonzero above the diagonal
    c = CoefficientSet.from_square(full)
    assert c.re.size == c.im.size == 21
    assert np.array_equal(c.values, np.tril(full))


def test_values_read_only():
    c = _random_set(4, 5)
    with pytest.raises(ValueError):
        c.values[1, 0] = 1.0
    with pytest.raises(AttributeError):
        c.values = np.zeros((5, 5), dtype=complex)


def test_coefficient_sets_compare_by_identity():
    # ndarray fields made a == b raise ValueError
    a, b = _random_set(3, 1), _random_set(3, 1)
    assert a == a and a != b


def test_law_draw_power_allocates_no_square(model):
    # one warm law draw and its reduction at L = 1500 stay below the
    # (L+1)^2 complex square, 36 MB
    L, t = 1500, 1e-4
    sample_combined(model, L, t, RngStream(1)).degree_power()
    tracemalloc.start()
    try:
        sample_combined(model, L, t, RngStream(1), realization=1).degree_power()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (L + 1) ** 2 * 16
