import math

import mpmath as mp
import numpy as np
import pytest

from fracsphere import AlgebraicSpectrum, FractionalModel


@pytest.fixture(scope="session")
def ref_spectra():
    """The reference parameter study's spectra: kappa1=2.3 head/coeff 1,
    kappa2=2.5 head/coeff 1e4."""
    return (AlgebraicSpectrum(1.0, 1.0, 2.3),
            AlgebraicSpectrum(1e4, 1e4, 2.5))


@pytest.fixture(scope="session")
def model05(ref_spectra):
    return FractionalModel(0.5, 1e-5, *ref_spectra)


@pytest.fixture(scope="session")
def model075(ref_spectra):
    return FractionalModel(0.75, 1e-5, *ref_spectra)


@pytest.fixture
def record_calls(monkeypatch):
    """record_calls(owner, *names) wraps each named function of owner so
    that every call appends its name to the returned list (one per test)."""
    calls = []

    def record(owner, *names):
        for name in names:
            def recorded(*args, _name=name, _inner=getattr(owner, name), **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, recorded)
        return calls
    return record


def ml_oracle(alpha, x, beta=1.0, dps=35):
    """High-precision E_{alpha,beta}(-x) oracle (mpmath).

    Power series wherever its largest term (about exp(x^(1/alpha))) has at
    most 40 digits, summed with that many extra digits, as its terms cancel
    to a value below 1; the algebraic asymptotic series for alpha < 1 and
    x > 1e5 (where the branch-cut quadrature loses digits: 2.1e-5 relative
    at x = 1e150); branch-cut integral otherwise.  Independent of the
    package's double-precision evaluator.
    """
    extra = _series_peak_digits(alpha, beta, x) if x <= 1e5 else math.inf
    with mp.workdps(dps):
        a, b, xx = mp.mpf(alpha), mp.mpf(beta), mp.mpf(x)
        if xx == 0:
            return 1 / mp.gamma(b)
        if a == 1:
            # E_{1,b}(z) = M(1, b, z)/Gamma(b); branch-cut form is singular here
            return mp.hyp1f1(1, b, -xx) / mp.gamma(b)
        if extra <= 40:
            with mp.workdps(dps + extra):
                s = mp.mpf(0)
                k = 0
                while True:
                    term = (-xx) ** k / mp.gamma(a * k + b)
                    s += term
                    if k > 4 and abs(term) < mp.mpf(10) ** (-dps - 5):
                        break
                    k += 1
            return +s
        if a < 1 and xx > 1e5:
            return _ml_oracle_asymptotic(a, b, xx, dps)
        if b > 1:
            return (1 / mp.gamma(b - a) - ml_oracle(alpha, x, float(b - a), dps)) / xx

        # substituted branch-cut integrand (v = r^alpha): smooth at 0
        def f(v):
            num = xx * mp.sinpi(b - a) + v * mp.sinpi(b)
            den = v * v + 2 * xx * v * mp.cospi(a) + xx * xx
            return mp.e ** (-v ** (1 / a)) * v ** ((1 - b) / a) * num / den

        knots = [0, 1, 10]
        if mp.cospi(a) < 0:  # denominator dip at v0
            v0 = -xx * mp.cospi(a)
            w = xx * abs(mp.sinpi(a))
            knots += [max(v0 - w, mp.mpf("0.01")), v0, v0 + w]
        knots = sorted(set(float(k) for k in knots))
        return mp.quad(f, knots + [mp.inf], maxdegree=10) / (a * mp.pi)


def _series_peak_digits(alpha, beta, x):
    """Decimal digits of the largest term x^k / Gamma(alpha k + beta) of the
    power series (0 if it is below 1), or inf once they pass 40.  The log
    of a term is concave in k, so the scan stops where it starts to fall."""
    if x <= 0:
        return 0
    top, k = -math.inf, 0
    while True:
        ln = k * math.log(x) - math.lgamma(alpha * k + beta)
        if ln < top:
            return max(0, math.ceil(top / math.log(10.0)))
        if ln > 40 * math.log(10.0):
            return math.inf
        top, k = max(top, ln), k + 1


def _ml_oracle_asymptotic(a, b, x, dps):
    """E_{a,b}(-x) = sum_{k>=1} (-1)^(k+1) x^-k / Gamma(b - a k) for 0 < a < 1,
    summed until a nonzero term is below 10^-dps of the sum; raises if the
    terms start to grow first (terms at poles of 1/Gamma are exact zeros)."""
    s = mp.mpf(0)
    last = mp.inf
    for k in range(1, 10 * dps + 10):
        term = (-1) ** (k + 1) * x ** -k * mp.rgamma(b - a * k)
        if term == 0:
            continue
        s += term
        if abs(term) < mp.mpf(10) ** -dps * abs(s):
            return s
        if abs(term) > last:
            break
        last = abs(term)
    raise RuntimeError(f"ml_oracle: asymptotic terms do not settle at a={a}, b={b}, x={x}")


def unit_points(n, seed):
    """n reproducible random unit vectors."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def legendre_table(lmax, xs):
    """N_{l,m}(x_j) for 0 <= m <= l <= lmax, indexed [j, l, m], zero for
    m > l, read off the ring sums of the package's all-orders recurrence,
    synthesis._norm_assoc_rows.  Coefficient set s has V_{l,m} = 1 at every
    order of the degrees l = 4s, 4s + 1 (in Re V) and 4s + 2, 4s + 3 (in
    Im V), 0 elsewhere; the two degrees of a part differ in the parity of
    l - m, so each of the set's even and odd sums at order m is exactly one
    N_{l,m}(x_j)."""
    from fracsphere.stochastic import _layout
    from fracsphere.synthesis import _norm_assoc_rows

    starts = _layout(lmax)[1]
    re = np.zeros((lmax // 4 + 1, starts[lmax] + lmax + 1))
    im = np.zeros_like(re)
    for ell in range(lmax + 1):
        (re if ell % 4 < 2 else im)[ell // 4, starts[ell]:starts[ell] + ell + 1] = 1.0
    sums = _norm_assoc_rows(list(re), list(im), starts, np.asarray(xs, dtype=float))
    table = np.zeros((len(xs), lmax + 1, lmax + 1))
    for ell in range(lmax + 1):
        even, odd = (part[ell % 4 // 2, :ell + 1] for part in sums[ell // 4])
        own = ((ell - np.arange(ell + 1)) % 2 == 0)[:, None]  # [m, j]: l - m even
        table[:, ell, :ell + 1] = np.where(own, even, odd).T
    return table


def harmonic_table(point, lmax):
    """Y_{l,m}(point) for 0 <= m <= l <= lmax via legendre_table
    (vectorized companion to spherical_harmonic)."""
    radial = legendre_table(lmax, [math.cos(point.theta)])[0]
    phase = np.array([complex(math.cos(m * point.phi), math.sin(m * point.phi))
                      for m in range(lmax + 1)])
    return radial * phase


def addition_sum(table_x, table_y, ell):
    """sum_{m=-l}^{l} Y_{l,m}(x) conj(Y_{l,m}(y)) from m >= 0 tables."""
    z = table_x[ell, 1: ell + 1] @ np.conj(table_y[ell, 1: ell + 1])
    return (table_x[ell, 0] * np.conj(table_y[ell, 0]) + 2.0 * z.real).real
