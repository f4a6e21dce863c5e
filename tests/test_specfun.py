import math
import os
import re
import subprocess
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import lpmv

from fracsphere import (AccuracyError, DomainError, SphPoint, gamma, legendre_p, ml_neg,
                        spherical_harmonic, specfun)
from fracsphere.specfun import (_ml_asymptotic, _ml_contour, _ml_integral, _ml_series,
                                assoc_legendre_norm, assoc_legendre_norm_table)

from conftest import addition_sum, harmonic_table, ml_oracle, unit_points


# --------------------------------------------------------------------------
# gamma

def test_gamma_known_values():
    assert gamma(1.0) == 1.0
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    # frozen from a 40-digit evaluation
    assert gamma(1.75) == pytest.approx(0.9190625268488832, rel=1e-14)


def test_gamma_accuracy_grid():
    with mp.workdps(40):
        for x in np.linspace(0.1, 50.0, 250):
            ref = float(mp.gamma(mp.mpf(float(x))))
            assert gamma(x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_gamma_domain(bad):
    with pytest.raises(DomainError):
        gamma(bad)


# --------------------------------------------------------------------------
# Legendre

def test_legendre_values():
    assert legendre_p(7, 1.0) == 1.0
    assert legendre_p(2, 0.0) == -0.5
    assert legendre_p(3, 0.5) == -0.4375  # (5x^3-3x)/2 at 1/2


def test_legendre_at_one_and_bounds():
    xs = np.linspace(-1, 1, 201)
    for ell in (0, 1, 5, 20, 61):
        assert legendre_p(ell, 1.0) == pytest.approx(1.0, abs=1e-12)
        vals = legendre_p(ell, xs)
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_legendre_vs_numpy():
    xs = np.linspace(-1, 1, 41)
    for ell in (3, 10, 37):
        coeffs = np.zeros(ell + 1)
        coeffs[ell] = 1.0
        ref = np.polynomial.legendre.legval(xs, coeffs)
        assert legendre_p(ell, xs) == pytest.approx(ref, abs=1e-12)


def test_legendre_domain():
    with pytest.raises(DomainError):
        legendre_p(3, 1.5)
    with pytest.raises(DomainError):
        legendre_p(-1, 0.5)


# --------------------------------------------------------------------------
# normalized associated Legendre / spherical harmonics

def test_assoc_legendre_low_orders():
    # N_{0,0} = 1, N_{1,0} = sqrt(3) x, N_{1,1} = -sqrt(3/2) sin(theta)
    for x in (-0.9, 0.0, 0.4, 1.0):
        assert assoc_legendre_norm(0, 0, x) == 1.0
        assert assoc_legendre_norm(1, 0, x) == pytest.approx(math.sqrt(3) * x, abs=1e-15)
        s = math.sqrt(1 - x * x)
        assert assoc_legendre_norm(1, 1, x) == pytest.approx(-math.sqrt(1.5) * s, abs=1e-15)


def test_assoc_legendre_vs_scipy():
    # N_{l,m} = sqrt((2l+1)(l-m)!/(l+m)!) * lpmv(m, l, x)  (lpmv carries the
    # Condon-Shortley phase)
    for ell, m in ((2, 1), (5, 0), (5, 5), (12, 7), (40, 17)):
        norm = math.sqrt((2 * ell + 1) * math.factorial(ell - m) / math.factorial(ell + m))
        for x in (-0.7, 0.0, 0.3, 0.95):
            ref = norm * float(lpmv(m, ell, x))
            assert assoc_legendre_norm(ell, m, x) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_assoc_legendre_self_normalization():
    # addition theorem at x.y = 1: sum_m |Y_{l,m}|^2 = N_{l,0}^2
    # + 2 sum_{m>=1} N_{l,m}^2 = 2l+1
    for ell in (1, 7, 40, 150):
        for x in (-0.6, 0.3, 0.9):
            total = assoc_legendre_norm(ell, 0, x) ** 2
            total += 2.0 * sum(assoc_legendre_norm(ell, m, x) ** 2
                               for m in range(1, ell + 1))
            assert total == pytest.approx(2 * ell + 1, rel=1e-11)


def test_assoc_legendre_no_overflow_high_degree():
    rows = assoc_legendre_norm_table(2000, [0.3])[0, :, 0]
    assert np.all(np.isfinite(rows))
    v = assoc_legendre_norm(2000, 1000, 0.3)
    assert math.isfinite(v)


def test_all_orders_table_bitwise_matches_scalar():
    # the all-orders recurrence and the scalar per-degree one must agree to
    # the last bit for every (l, m)
    L = 60
    xs = [-1.0, -0.77, 0.0, 0.3, 0.999, 1.0]
    table = assoc_legendre_norm_table(L, xs)
    ref = np.zeros_like(table)
    for j, x in enumerate(xs):
        for ell in range(L + 1):
            for m in range(ell + 1):
                ref[j, ell, m] = assoc_legendre_norm(ell, m, x)
    assert np.array_equal(table, ref)


def test_assoc_legendre_domain():
    with pytest.raises(DomainError):
        assoc_legendre_norm(3, 4, 0.5)
    with pytest.raises(DomainError):
        assoc_legendre_norm(3, 1, 1.5)


def test_spherical_harmonic_base_cases():
    p = SphPoint(1.1, 2.2)
    assert spherical_harmonic(0, 0, p) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    north = SphPoint(0.0, 0.0)
    assert spherical_harmonic(1, 0, north) == pytest.approx(math.sqrt(3), abs=1e-14)


def test_spherical_harmonic_matches_table():
    for v in unit_points(4, seed=11):
        p = SphPoint.from_vector(v)
        table = harmonic_table(p, 12)
        for ell in (0, 3, 12):
            for m in range(ell + 1):
                assert spherical_harmonic(ell, m, p) == pytest.approx(
                    table[ell, m], abs=1e-13)


def test_spherical_harmonic_conjugation():
    for v in unit_points(6, seed=3):
        p = SphPoint.from_vector(v)
        for ell in (1, 4, 9):
            for m in range(1, ell + 1):
                lhs = spherical_harmonic(ell, -m, p)
                rhs = (-1) ** m * np.conj(spherical_harmonic(ell, m, p))
                assert lhs == pytest.approx(rhs, abs=1e-13)


def test_addition_theorem():
    pts = unit_points(40, seed=42)
    for i in range(0, 40, 2):
        x, y = pts[i], pts[i + 1]
        tx = harmonic_table(SphPoint.from_vector(x), 60)
        ty = harmonic_table(SphPoint.from_vector(y), 60)
        for ell in (1, 5, 25, 60):
            lhs = addition_sum(tx, ty, ell)
            rhs = (2 * ell + 1) * legendre_p(ell, float(x @ y))
            assert abs(lhs - rhs) <= 1e-9 * (2 * ell + 1)


def test_sph_point_validation():
    with pytest.raises(DomainError):
        SphPoint(-0.1, 0.0)
    with pytest.raises(DomainError):
        SphPoint(1.0, 7.0)
    p = SphPoint(0.7, 5.1)
    assert abs(np.linalg.norm(p.unit_vector()) - 1.0) < 1e-14


def test_spherical_harmonic_domain():
    with pytest.raises(DomainError):
        spherical_harmonic(2, 3, SphPoint(1.0, 1.0))


# --------------------------------------------------------------------------
# Mittag-Leffler

def test_ml_trivial_values():
    assert ml_neg(0.7, 0.0) == 1.0
    assert ml_neg(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # frozen oracle: E_{1/2}(-1) = e * erfc(1)
    assert ml_neg(0.5, 1.0) == pytest.approx(0.4275835761558070, rel=1e-12)
    assert ml_neg(0.5, 0.0, beta=1.5) == pytest.approx(1.0 / gamma(1.5), rel=1e-14)


def test_ml_params_domain():
    for bad in ({"alpha": 0.0}, {"alpha": 1.5}, {"alpha": 0.5, "beta": 0.0},
                {"alpha": math.nan}, {"alpha": True}, {"alpha": "0.5"},
                {"alpha": None}, {"alpha": math.inf}, {"alpha": 0.5, "beta": True},
                {"alpha": 0.5, "beta": "1"}, {"alpha": 0.5, "beta": None},
                {"alpha": 0.5, "beta": math.nan}, {"alpha": 0.5, "beta": math.inf}):
        with pytest.raises(DomainError):
            ml_neg(x=1.0, **{"beta": 1.0, **bad})
    with pytest.raises(DomainError):
        ml_neg(0.5, -1.0)
    with pytest.raises(DomainError):
        ml_neg(2.0, 1.0)
    for alpha in (0.5, 0.75):  # a list is neither a number nor an ndarray
        with pytest.raises(DomainError):
            ml_neg(alpha, [1.0, 2.0])


def test_ml_exponential_identity():
    xs = np.linspace(0.0, 50.0, 101)
    vals = ml_neg(1.0, xs)
    assert np.max(np.abs(vals - np.exp(-xs)) / np.exp(-xs)) <= 1e-12


def test_ml_half_identity_vs_mpmath():
    with mp.workdps(35):
        for x in np.linspace(0.0, 30.0, 61):
            ref = float(mp.e ** (mp.mpf(float(x)) ** 2) * mp.erfc(mp.mpf(float(x))))
            assert ml_neg(0.5, float(x)) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha,beta", [(0.25, 1.0), (0.4, 1.0), (0.6, 1.0),
                                        (0.75, 1.0), (0.9, 1.0),
                                        (0.75, 0.75), (0.75, 1.75), (0.3, 1.3)])
def test_ml_vs_oracle_grid(alpha, beta):
    for x in np.logspace(-3, 5, 17):
        ref = float(ml_oracle(alpha, float(x), beta))
        assert ml_neg(alpha, float(x), beta=beta) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_ml_closed_forms_array_matches_scalar_bitwise(alpha):
    # (1/2, 1/2) has no closed form here: it mixes the two-term series, the
    # contour sum, the asymptotic series and (near x = 5) the branch-cut
    # integral
    rng = np.random.default_rng(11)
    xs = np.concatenate([[0.0], rng.uniform(0.0, 60.0, 997), np.logspace(-9, 6, 203),
                         [10.0, np.nextafter(10.0, 11.0)]])
    for beta in (1.0, 0.5) if alpha == 0.5 else (1.0, 2.0, 1.6):
        vals = ml_neg(alpha, xs, beta=beta)
        assert all(v == ml_neg(alpha, float(x), beta=beta) for v, x in zip(vals, xs))
        assert np.array_equal(ml_neg(alpha, xs[1::7], beta=beta), vals[1::7])  # strided
    with pytest.raises(DomainError):
        ml_neg(alpha, np.array([1.0, -1.0]))


def test_ml_alpha1_general_beta():
    # E_{1,2}(-x) = (1 - exp(-x))/x
    for x in (0.1, 1.0, 10.0, 200.0):
        assert ml_neg(1.0, x, beta=2.0) == pytest.approx(-math.expm1(-x) / x, rel=1e-12)
    for x in (0.5, 4.0):
        ref = float(ml_oracle(1.0, x, 1.6))
        assert ml_neg(1.0, x, beta=1.6) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0])
def test_ml_monotone_and_simon_bound(alpha):
    # for beta = 1: 0 < E <= 1/(1 + x/Gamma(1+alpha)), strictly decreasing;
    # alpha = 1 is exp(-x), which underflows past x ~ 745, so stop before
    hi = math.log10(700.0) if alpha == 1.0 else 6.0
    xs = np.logspace(-4, hi, 300)
    vals = np.array([ml_neg(alpha, float(x)) for x in xs])
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-15)
    simon = 1.0 / (1.0 + xs / gamma(1.0 + alpha))
    assert np.all(vals <= simon + 1e-10)


@pytest.mark.parametrize("alpha,beta", [(0.45, 1.0), (0.75, 1.0), (0.9, 1.0),
                                        (0.75, 0.75)])
def test_ml_cross_regime_continuity(alpha, beta):
    """The four evaluators agree on overlap bands around the switch points."""
    # series and contour sum vs integral on a low band
    xs = np.linspace(0.5, 2.0, 7)
    s, s_rel = _ml_series(alpha, beta, xs)
    i, i_rel = _ml_integral(alpha, beta, xs)
    c, c_rel = _ml_contour(alpha, beta, xs)
    # inside the dispatcher's acceptance regions
    assert np.all(s_rel <= 1e-10) and np.all(i_rel <= 1e-10) and np.all(c_rel <= 1e-12)
    assert s == pytest.approx(i, rel=1e-9)
    assert c == pytest.approx(i, rel=1e-9)
    # asymptotic series and contour sum vs integral on a high band, the sum
    # where its bound accepts it (at beta = alpha it cancels there)
    xs = np.linspace(40.0, 120.0, 5)
    a, a_rel = _ml_asymptotic(alpha, beta, xs)
    assert np.all(a_rel < 1e-12)
    i, i_rel = _ml_integral(alpha, beta, xs)
    assert np.all(i_rel <= 1e-10)
    assert a == pytest.approx(i, rel=1e-9)
    c, c_rel = _ml_contour(alpha, beta, xs)
    ok = c_rel <= 1e-12
    assert ok.any() == (beta == 1.0)
    assert c[ok] == pytest.approx(i[ok], rel=1e-9)


def test_ml_accepts_arrays():
    xs = np.array([0.0, 0.5, 5.0, 500.0])
    vals = ml_neg(0.75, xs)
    assert vals.shape == xs.shape
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.6), (0.8, 0.8), (0.9, 0.9), (0.95, 0.3)])
def test_ml_asymptotic_band_vs_oracle(alpha, beta):
    # a term near a pole of 1/Gamma(beta - alpha k) once ended the asymptotic
    # sum early with a tiny error estimate on a wrong value (31% off at
    # alpha = beta = 0.8, x = 3); the envelope stop does not dip there
    for x in np.append(np.linspace(3.0, 40.0, 13), 16.5):
        ref = float(ml_oracle(alpha, float(x), beta, dps=20))
        assert ml_neg(alpha, float(x), beta=beta) == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("alpha,beta,x", [(0.9, 0.75, 9.0), (0.9, 0.5, 10.0),
                                          (0.8, 0.3, 9.0)])
def test_ml_negative_values(alpha, beta, x):
    # for beta < alpha E_{alpha,beta}(-x) changes sign; a negative value from
    # the integral is a value, not an accuracy failure
    ref = float(ml_oracle(alpha, x, beta, dps=20))
    assert ref < 0.0
    assert ml_neg(alpha, x, beta=beta) == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("alpha", [0.2, 0.45, 0.75, 0.97])
@pytest.mark.parametrize("unit_beta", [True, False])
def test_ml_integral_band_vs_oracle(alpha, unit_beta):
    beta = 1.0 if unit_beta else alpha
    xs = np.geomspace(2.0, 60.0, 12)
    ref = np.array([float(ml_oracle(alpha, float(x), beta, dps=20)) for x in xs])
    val, rel = _ml_integral(alpha, beta, xs)
    assert np.all(rel <= 1e-10)
    assert val == pytest.approx(ref, rel=1e-10, abs=0)


@pytest.mark.parametrize("alpha", [0.3, 0.75, 0.9])
@pytest.mark.parametrize("unit_beta", [True, False])
def test_ml_general_array_matches_scalar_bitwise(alpha, unit_beta, monkeypatch):
    beta = 1.0 if unit_beta else alpha
    rng = np.random.default_rng(5)
    xs = rng.permutation(np.concatenate([[0.0], np.geomspace(1e-9, 1e6, 300),
                                         np.linspace(1.5, 3.0, 100),
                                         np.linspace(3.0, 25.0, 200)]))
    used = {}
    for name in ("_ml_contour", "_ml_asymptotic", "_ml_series", "_ml_integral", "_panels"):
        def counted(*args, _name=name, _real=getattr(specfun, name)):
            used[_name] = used.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(specfun, name, counted)
    vals = ml_neg(alpha, xs, beta=beta)
    # each regime ran at most once: at beta = 1 the contour sum took every
    # element; at beta = alpha the asymptotic series and the integral took
    # what it left, the integral over more than one block of nodes from
    # alpha = 3/4 on
    assert used.pop("_ml_contour") == 1
    panels = used.pop("_panels", 0)
    if unit_beta:
        assert not used and panels == 0
    else:
        assert used.pop("_ml_asymptotic") == 1 and used.pop("_ml_integral") == 1
        assert used.get("_ml_series", 0) <= 1 and panels >= (1 if alpha == 0.3 else 2)
    assert all(v == ml_neg(alpha, float(x), beta=beta) for v, x in zip(vals, xs))
    assert np.array_equal(ml_neg(alpha, xs[1::7], beta=beta), vals[1::7])  # a strided view
    assert np.array_equal(ml_neg(alpha, xs[1:].reshape(20, -1), beta=beta),
                          vals[1:].reshape(20, -1))


# x near a sign change of E_{alpha,beta}(-x) (beta < alpha), where the
# value is 1e-3 or less of the terms: a fixed peak-to-sum rule refused the
# series there, and the integral's 1e-12 absolute error is not 1e-10 of it
_SIGN_CHANGE_X = {
    (0.75, 0.3): [0.5522208883553421, 0.5532846094162641],
    (0.8, 0.3): [0.5076227858802589, 0.5116132557053772],
    (0.8, 0.5): [1.1825365229414395, 1.1884753901560625, 1.1918325522828237,
                 1.2004801920768309, 1.201201658573499, 1.210644416278135, 1.212484993997599],
    (0.9, 0.3): [0.4478475740731756],
    (0.9, 0.5): [0.9647102199434751, 0.9722938965036083, 0.9723889555822329,
                 0.9799371890489108, 0.9843937575030013, 0.9876405662261782],
    (0.95, 0.3): [0.4239605677709087, 0.4272933611359602],
    (0.95, 0.5): [0.8974126051002315, 0.8990643105317788, 0.9003601440576231,
                  0.9061319385063514, 0.9123649459783914, 0.9132551257602791],
    (0.97, 0.3): [0.4173727634304748, 0.42016806722689076, 0.42065376945428323],
    (0.97, 0.5): [0.8763505402160865, 0.8781904656575371, 0.8850940024005461,
                  0.8883553421368547, 0.8920518084865154],
    (0.99, 0.3): [0.41088732513378723],
    (0.99, 0.5): [0.8578012550800079, 0.8643457382953181, 0.8645445103466318,
                  0.8713407749686566],
    (0.999, 0.3): [0.4076824952076953, 0.40816326530612246],
    (0.999, 0.5): [0.8511105957075765, 0.8523409363745499, 0.8578012550800079,
                   0.8643457382953181, 0.8645445103466318],
}


@pytest.mark.parametrize("alpha,beta", list(_SIGN_CHANGE_X))
def test_ml_near_sign_change_vs_oracle(alpha, beta):
    xs = np.array(_SIGN_CHANGE_X[alpha, beta])
    ref = np.array([float(ml_oracle(alpha, float(x), beta)) for x in xs])
    assert ml_neg(alpha, xs, beta=beta) == pytest.approx(ref, rel=1e-10, abs=0)


_SWEEP_X = np.array([1e-10, 1e-7, 1e-4, 0.01, 0.3, 0.9, 2.0, 4.0, 8.0, 15.0, 30.0, 300.0,
                     1e6])


@pytest.fixture(scope="module")
def ml_sweep():
    """(alpha, beta) -> the oracle over _SWEEP_X, for nine alpha from 0.1 to
    0.999 and beta in {1, alpha, 1/2, 3/4, 2}."""
    alphas = (0.1, 0.2, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)
    return {(a, b): np.array([float(ml_oracle(a, float(x), b, dps=20)) for x in _SWEEP_X])
            for a in alphas for b in sorted({1.0, a, 0.5, 0.75, 2.0})}


@pytest.mark.parametrize("alpha,beta,x", [(0.6, 0.5, 3.0449101796407185), (0.75, 0.5, 1.3794),
                                          (0.9, 0.75, 2.4848), (0.95, 0.75, 2.0909)])
def test_ml_refuses_at_known_sign_changes(alpha, beta, x):
    # the value is 5e-5 to 2e-4 of the terms' size here and no regime's
    # relative bound is within 1e-10 of it: a refusal, never a wrong value.
    # An absolute error floor near the roots would turn these into values
    # to check against the oracle.
    where = re.escape(f"alpha={alpha}, beta={beta}, x={x} ")
    with pytest.raises(AccuracyError, match=where):
        ml_neg(alpha, x, beta=beta)


def test_ml_oracle_sweep(ml_sweep):
    for (alpha, beta), ref in ml_sweep.items():
        vals = ml_neg(alpha, _SWEEP_X, beta=beta)
        assert vals == pytest.approx(ref, rel=1e-10, abs=0), (alpha, beta)


@pytest.mark.parametrize("alpha,beta", [(0.03, 0.03), (0.03, 0.015), (0.05, 0.05),
                                        (0.05, 0.025)])
def test_ml_small_alpha_vs_oracle(alpha, beta):
    # below the sweep's alpha = 0.1 only the asymptotic series meets the
    # tolerance from x = 3 on: at alpha = 0.05 the branch-cut integral's
    # estimate is about 2e-9 and the contour sum's bound 7e-12 to 2e-6
    xs = np.geomspace(3.0, 1e150, 13)
    ref = np.array([float(ml_oracle(alpha, float(x), beta)) for x in xs])
    assert ml_neg(alpha, xs, beta=beta) == pytest.approx(ref, rel=1e-10, abs=0)


def test_ml_contour_bound_covers_error(ml_sweep):
    # wherever the dispatcher would accept the contour sum, its bound is
    # above the error the oracle shows
    accepted = 0
    for (alpha, beta), ref in ml_sweep.items():
        val, rel = _ml_contour(alpha, beta, _SWEEP_X)
        ok = rel <= 1e-12
        bound = rel[ok] * np.abs(val[ok])
        assert np.all(np.abs(val[ok] - ref[ok]) <= bound), (alpha, beta)
        accepted += ok.sum()
    assert accepted >= 0.6 * len(ml_sweep) * _SWEEP_X.size


def test_ml_huge_x_underflows_to_zero():
    # E_{a,a}(-x) ~ -x^-2 / Gamma(-a): the asymptotic sum is an exact zero
    # once x^-2 underflows (1/Gamma(0) = 0 kills the first term); it is the
    # value, not a cue to try the integral, whose (x sin(pi a))^2 overflows
    xs = np.array([1e150, 1e200, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = ml_neg(0.75, xs, beta=0.75)
    assert vals[0] == pytest.approx(float(ml_oracle(0.75, 1e150, 0.75)), rel=1e-10, abs=0)
    for x, v in zip(xs[1:], vals[1:]):
        assert v == 0.0
        assert abs(ml_oracle(0.75, float(x), 0.75)) < mp.mpf(2) ** -1074


def test_ml_oracle_asymptotic_pin():
    # past x = 1e5 the oracle sums the algebraic series: its branch-cut
    # quadrature is 2.1e-5 off at x = 1e150, where E_{3/4,3/4}(-x) is
    # -x^-2 / Gamma(-3/4) to relative x^-2
    assert float(ml_oracle(0.75, 1e150, 0.75)) == pytest.approx(2.068617e-301, rel=1e-6, abs=0)


@pytest.mark.parametrize("alpha,x,ref", [(0.25, 3.0, 0.2190044275604068),
                                         (0.2, 3.0, 0.22585454512648809),
                                         (0.1, 2.0, 0.3200153359597274)])
def test_ml_oracle_small_alpha_pin(alpha, x, ref):
    # the series' terms peak near exp(x^(1/alpha)) here: summed at a fixed
    # 35 digits they gave 0.2223, 3.1e68 and -inf; the pins agree to 35
    # digits between the series at 480 digits and the branch-cut quadrature
    assert float(ml_oracle(alpha, x)) == pytest.approx(ref, rel=1e-15, abs=0)


def test_ml_integral_raises_when_panels_too_coarse(monkeypatch):
    x = np.array([20.0])
    val, rel = _ml_integral(0.95, 0.95, x)
    assert rel[0] <= 1e-10
    ref = float(ml_oracle(0.95, 20.0, 0.95, dps=20))
    assert val[0] == pytest.approx(ref, rel=1e-10, abs=0)
    base, dip = specfun._cut_layout(0.95)
    monkeypatch.setattr(specfun, "_cut_layout", lambda alpha: (base[::6], dip[::4]))
    assert _ml_integral(0.95, 0.95, x)[1][0] > 1e-10
    # x = 20 at alpha = beta = 0.95 is left to the integral (the contour sum
    # cancels, the asymptotic series has not settled, x is past the series)
    with pytest.raises(AccuracyError):
        ml_neg(0.95, np.array([0.5, 20.0, 500.0]), beta=0.95)


def test_cli_import_leaves_out_scipy_integrate():
    code = "import sys, fracsphere.cli; print('scipy.integrate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
