"""Deterministic special functions.

Gamma, Legendre polynomials, pre-normalized associated Legendre functions,
complex spherical harmonics, and the two-parameter Mittag-Leffler function
E_{alpha,beta}(-x) on the negative real axis.

Spherical-harmonic convention
-----------------------------
Everything here is orthonormal with respect to the *normalized* surface
measure mu on the unit sphere (total mass 1).  With that convention

    Y_{l,m}(theta, phi) = N_{l,m}(cos theta) * exp(i m phi),   m >= 0,
    Y_{l,-m}            = (-1)^m conj(Y_{l,m}),

where N_{l,m}(x) = sqrt((2l+1)(l-m)!/(l+m)!) * P_{l,m}(x) and P_{l,m}
carries the Condon-Shortley phase.  These harmonics are sqrt(4*pi) times
the usual unit-measure orthonormal ones, so the addition theorem reads

    sum_m Y_{l,m}(x) conj(Y_{l,m}(y)) = (2l+1) P_l(x . y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import erfcx as _erfcx, hyp1f1 as _hyp1f1

from .errors import (AccuracyError, DomainError, check_alpha, check_degree,
                     check_real, check_unit_interval, whole)

__all__ = [
    "SphPoint",
    "gamma",
    "legendre_p",
    "assoc_legendre_norm",
    "assoc_legendre_norm_table",
    "spherical_harmonic",
    "ml_neg",
]


# --------------------------------------------------------------------------
# gamma and helpers

def gamma(x):
    """Gamma function for positive real arguments.

    Relative error is at the level of the C library (< 1e-14 on [0.1, 50]).
    Raises DomainError for non-positive or non-finite input.
    """
    return math.gamma(check_real("gamma: argument", x))


def _sinpi(y):
    """sin(pi*y) with exact argument reduction for large |y|."""
    r = y - round(y)
    s = math.sin(math.pi * r)
    return -s if (round(y) % 2) else s


def _cospi(y):
    r = y - round(y)
    c = math.cos(math.pi * r)
    return -c if (round(y) % 2) else c


def _rgamma(y):
    """1/Gamma(y) for any real y (zero at the poles y = 0, -1, -2, ...)."""
    if y > 0.5:
        if y > 170.0:
            return math.exp(-math.lgamma(y))
        return 1.0 / math.gamma(y)
    # reflection: 1/Gamma(y) = sin(pi*y) * Gamma(1-y) / pi
    s = _sinpi(y)
    if s == 0.0:
        return 0.0
    lg = math.lgamma(1.0 - y)
    if lg > 700.0:  # Gamma(1-y) overflows; combine in log space
        ln = math.log(abs(s)) + lg - math.log(math.pi)
        if ln > 708.0:
            raise OverflowError("1/Gamma overflow")
        return math.copysign(math.exp(ln), s)
    return s * math.exp(lg) / math.pi


# --------------------------------------------------------------------------
# Legendre polynomials and normalized associated Legendre functions

def legendre_p(ell, x):
    """Legendre polynomial P_l(x) on [-1, 1] via the three-term recurrence.

    Accepts a scalar or an ndarray for x.
    """
    ell = check_degree("legendre_p: degree", ell)
    xs = check_unit_interval("legendre_p", x)
    if ell == 0:
        out = np.ones_like(xs)
    elif ell == 1:
        out = xs.copy()
    else:
        pkm1 = np.ones_like(xs)
        pk = xs.copy()
        for k in range(1, ell):
            pkp1 = ((2 * k + 1) * xs * pk - k * pkm1) / (k + 1)
            pkm1, pk = pk, pkp1
        out = pk
    return out if isinstance(x, np.ndarray) else float(out)


def _norm_assoc_order(L, m, x):
    """N_{l,m}(x) for l = m..L at one order m, vectorized over x (1-d array).

    Returns an array of shape (L-m+1, len(x)).  The recurrence works on the
    fully normalized functions so magnitudes stay O(sqrt(l)); no overflow up
    to l of a few thousand (values underflow harmlessly to 0 near |x| = 1
    for large m).  This per-degree form is the scalar path's own
    recurrence, kept separate from the all-orders one below so that each
    can check the other.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # diagonal N_{m,m} = prod_{j=1..m} (-s * sqrt((2j+1)/(2j)))
    diag = np.ones_like(x)
    for j in range(1, m + 1):
        diag *= -s * math.sqrt((2 * j + 1) / (2 * j))
    rows = np.empty((L - m + 1, x.size))
    rows[0] = diag
    if L == m:
        return rows
    rows[1] = math.sqrt(2 * m + 3) * x * diag
    for ell in range(m + 2, L + 1):
        a = math.sqrt((2 * ell + 1) * (2 * ell - 1) / ((ell - m) * (ell + m)))
        b = math.sqrt((2 * ell + 1) * (ell - 1 - m) * (ell - 1 + m)
                      / ((2 * ell - 3) * (ell - m) * (ell + m)))
        rows[ell - m] = a * x * rows[ell - m - 1] - b * rows[ell - m - 2]
    return rows


def _norm_assoc_diagonals(L, x):
    """All-orders recurrence: for d = 0..L yield (d, N) with
    N[m, j] = N_{m+d,m}(x_j) for m = 0..L-d.

    One step per d = l - m over every order at once (L numpy steps instead
    of ~L^2/2).  Each element goes through the same floating-point
    operations as in _norm_assoc_order, so the values are bit-identical to
    the per-degree recurrence.  Only the last two steps are kept, so a
    caller that consumes each step as it comes needs O(L len(x)) memory.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    j = np.arange(1, L + 1, dtype=float)[:, None]
    factors = np.empty((L + 1, x.size))
    factors[0] = 1.0
    factors[1:] = -s * np.sqrt((2 * j + 1) / (2 * j))
    prev2 = np.multiply.accumulate(factors, axis=0)  # N_{m,m}
    yield 0, prev2
    if L == 0:
        return
    m = np.arange(L + 1, dtype=float)[:, None]
    prev1 = np.sqrt(2 * m[:L] + 3) * x * prev2[:L]
    yield 1, prev1
    for d in range(2, L + 1):
        k = L - d + 1
        mk = m[:k]
        ell = mk + d
        a = np.sqrt((2 * ell + 1) * (2 * ell - 1) / (d * (2 * mk + d)))
        b = np.sqrt((2 * ell + 1) * (d - 1) * (2 * mk + d - 1)
                    / ((2 * ell - 3) * d * (2 * mk + d)))
        cur = a * x
        cur *= prev1[:k]
        cur -= b * prev2[:k]
        yield d, cur
        prev2, prev1 = prev1, cur


def _norm_assoc_rows(values, x):
    """Ring sums split by the parity of d = l - m: returns (even, odd), each
    of shape (2, L+1, len(x)), where even[:, m, j] holds the real and
    imaginary parts of sum_{l-m even} values[l, m] N_{l,m}(x_j) and odd the
    same over odd l - m.

    `values` is an (L+1, L+1) array of coefficients for 0 <= m <= l.  As
    N_{l,m}(-x) = (-1)^(l-m) N_{l,m}(x), even + odd is the ring sum at x_j
    and even - odd the ring sum at -x_j, so one pass serves a ring and its
    mirror.  The all-orders recurrence adds values[m+d, m] N_{m+d,m}(x)
    into the half of parity d at each step, so the (l, m, ring) table is
    never formed.
    """
    x = np.asarray(x, dtype=float)
    L = values.shape[0] - 1
    sums = np.zeros((2, 2, L + 1, x.size))
    for d, rows in _norm_assoc_diagonals(L, x):
        v = np.diagonal(values, -d)  # values[m+d, m], m = 0..L-d
        half = sums[d & 1, :, :L + 1 - d]
        half[0] += v.real[:, None] * rows
        half[1] += v.imag[:, None] * rows
    return sums[0], sums[1]


def assoc_legendre_norm(ell, m, x):
    """Pre-normalized associated Legendre function N_{l,m}(x).

    N_{l,m}(x) = sqrt((2l+1)(l-m)!/(l+m)!) P_{l,m}(x), the radial factor of
    Y_{l,m}; Condon-Shortley phase included.  Finite for l up to a few
    thousand.
    """
    ell = check_degree("assoc_legendre_norm: degree", ell)
    m = check_degree("assoc_legendre_norm: order", m)
    if m > ell:
        raise DomainError(f"assoc_legendre_norm: need m <= l, got l={ell}, m={m}")
    x = float(check_unit_interval("assoc_legendre_norm", x))
    rows = _norm_assoc_order(ell, m, np.array([x]))
    return float(rows[-1, 0])


def assoc_legendre_norm_table(L, x):
    """N_{l,m}(x_j) for every 0 <= m <= l <= L and every point x_j.

    Returns shape (len(x), L+1, L+1), indexed [j, l, m], zero for m > l;
    one pass of the all-orders recurrence, bit-identical to
    assoc_legendre_norm.
    """
    L = check_degree("assoc_legendre_norm_table: degree", L)
    xs = np.atleast_1d(check_unit_interval("assoc_legendre_norm_table", x))
    table = np.zeros((xs.size, L + 1, L + 1))
    orders = np.arange(L + 1)
    for d, rows in _norm_assoc_diagonals(L, xs):
        table[:, orders[:L + 1 - d] + d, orders[:L + 1 - d]] = rows.T
    return table


# --------------------------------------------------------------------------
# points on the sphere and spherical harmonics

@dataclass(frozen=True)
class SphPoint:
    """A point on the unit sphere: colatitude theta in [0, pi], longitude
    phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = check_real("SphPoint: theta", self.theta, strict=False)
        phi = check_real("SphPoint: phi", self.phi, strict=False)
        if theta > math.pi or phi >= 2.0 * math.pi:
            raise DomainError(f"SphPoint: need theta in [0, pi] and phi in [0, 2*pi), "
                              f"got theta={theta}, phi={phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    def unit_vector(self):
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])

    @staticmethod
    def from_vector(v):
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0:
            raise DomainError("SphPoint.from_vector: zero vector")
        v = v / n
        theta = math.acos(min(1.0, max(-1.0, v[2])))
        phi = math.atan2(v[1], v[0]) % (2.0 * math.pi)
        return SphPoint(theta, phi)


def spherical_harmonic(ell, m, point):
    """Complex spherical harmonic Y_{l,m} at a point (normalized-measure
    convention; see module docstring).

    `point` is a SphPoint or a (theta, phi) pair.  For m < 0 the value is
    obtained from Y_{l,-m} by (-1)^m conjugation.
    """
    ell = check_degree("spherical_harmonic: degree", ell)
    order = whole(m)
    if order is None or abs(order) > ell:
        raise DomainError(f"spherical_harmonic: need an integer m with |m| <= l, "
                          f"got l={ell}, m={m!r}")
    m = order
    if not isinstance(point, SphPoint):
        point = SphPoint(*point)
    am = abs(m)
    n = assoc_legendre_norm(ell, am, math.cos(point.theta))
    y = n * complex(math.cos(am * point.phi), math.sin(am * point.phi))
    if m < 0:
        y = y.conjugate()
        if am % 2:
            y = -y
    return y


# --------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(-x), x >= 0, alpha in (0,1], beta > 0

# the series result is accepted only if the largest partial term did not
# exceed _SERIES_PEAK_MAX times the sum (keeps cancellation error ~1e-13)
_SERIES_PEAK_MAX = 300.0
_ASYM_REL_TOL = 1e-13


def _ml_series(alpha, beta, x, max_terms=4000):
    """Power series sum_k (-x)^k / Gamma(alpha*k + beta), compensated.

    Returns (value, peak_ratio) where peak_ratio = max|term| / |value|.
    """
    total = _rgamma(beta)
    comp = 0.0
    peak = abs(total)
    term_x = 1.0
    for k in range(1, max_terms + 1):
        term_x *= -x
        t = term_x * _rgamma(alpha * k + beta)
        peak = max(peak, abs(t))
        # Kahan step
        y = t - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if abs(t) <= 1e-17 * abs(total) + 1e-300 and k >= 4:
            break
    else:
        return total, math.inf
    ratio = peak / abs(total) if total != 0.0 else math.inf
    return total, ratio


def _ml_asymptotic(alpha, beta, x):
    """Asymptotic series sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha*k),
    truncated at the smallest term.

    Returns (value, relative_error_estimate).
    """
    lnx = math.log(x)
    total = 0.0
    prev_mag = math.inf
    min_rel = math.inf
    k = 0
    while k < 10000:
        k += 1
        y = beta - alpha * k
        try:
            rg = _rgamma(y)
        except OverflowError:
            break
        if rg == 0.0:
            continue
        ln_t = -k * lnx + math.log(abs(rg))
        if ln_t < -745.0:
            # underflow: remaining terms are negligible
            prev_mag = 0.0
            break
        mag = math.exp(ln_t)
        if mag >= prev_mag:
            break  # smallest term reached; stop before it grows
        sign = 1.0 if (k % 2 == 1) else -1.0
        total += sign * math.copysign(mag, rg)
        prev_mag = mag
    if total == 0.0:
        return 0.0, math.inf
    min_rel = prev_mag / abs(total)
    return total, min_rel


def _ml_integral(alpha, beta, x):
    """Spectral (branch-cut) integral for E_{alpha,beta}(-x), 0 < alpha < 1.

    For beta <= 1,

        E_{a,b}(-x) = 1/(a*pi) * int_0^inf exp(-v^(1/a)) v^((1-b)/a)
                      * [x sin(pi(b-a)) + v sin(pi b)]
                      / (v^2 + 2 x v cos(pi a) + x^2) dv,

    obtained from the Hankel contour collapsed onto the negative axis with
    the substitution v = r^a; the integrand is smooth and non-oscillatory.
    For beta > 1 the recursion E_{a,b}(-x) = (1/Gamma(b-a) - E_{a,b-a}(-x))/x
    reduces to the beta <= 1 case.
    """
    if beta > 1.0:
        return (_rgamma(beta - alpha) - _ml_integral(alpha, beta - alpha, x)) / x
    a, b = alpha, beta
    s_ba = _sinpi(b - a)
    s_b = _sinpi(b)
    c_a = _cospi(a)
    pw = (1.0 - b) / a
    inv_a = 1.0 / a

    def f(v):
        if v <= 0.0:
            return 0.0
        den = v * v + 2.0 * x * v * c_a + x * x
        return math.exp(-v ** inv_a) * v ** pw * (x * s_ba + v * s_b) / den

    vmax = max(2.0, 55.0 ** a + 1.0)
    pts = []
    if c_a < 0.0:  # Lorentzian dip of the denominator at v0, width w
        v0 = -x * c_a
        w = x * abs(_sinpi(a))
        if v0 < vmax:
            pts = sorted(p for p in (v0 - 2 * w, v0, v0 + 2 * w) if 0.0 < p < vmax)
    val, err, info = _quad(f, 0.0, vmax, points=pts or None, limit=300,
                           epsabs=1e-280, epsrel=5e-13, full_output=True)[:3]
    val /= a * math.pi
    err /= a * math.pi
    if val <= 0.0 or not math.isfinite(val) or err > 1e-10 * abs(val):
        raise AccuracyError(
            f"ml_neg: integral evaluation failed accuracy target at "
            f"alpha={alpha}, beta={beta}, x={x} (err={err:.2e}, val={val:.2e})")
    return val


def _ml_alpha1(beta, x):
    """Closed/stable forms for alpha = 1, beta != 1."""
    if beta == 2.0:
        return -math.expm1(-x) / x if x > 0.0 else 1.0 / math.gamma(2.0)
    # E_{1,b}(z) = M(1, b, z)/Gamma(b)  (Kummer)
    return float(_hyp1f1(1.0, beta, -x)) * _rgamma(beta)


def _series_peak_prediction(alpha, beta, x):
    """Rough log10 of max-series-term / plausible value; used to skip
    hopeless series attempts."""
    kstar = max(1.0, (x ** (1.0 / alpha) - beta) / alpha)
    peak_ln = kstar * math.log(max(x, 1e-300)) - math.lgamma(alpha * kstar + beta)
    value_ln_lb = -math.log1p(x) - abs(math.lgamma(beta)) - 3.0
    return peak_ln - value_ln_lb


def ml_neg(alpha, x, beta=1.0):
    """Mittag-Leffler function E_{alpha,beta}(-x) for x >= 0.

    alpha in (0, 1], beta > 0.  Relative accuracy ~1e-11 or better across
    x in [0, 1e6]; for beta = 1 the value lies in (0, 1] and is strictly
    decreasing in x.  Accepts a scalar or an ndarray for x.

    For beta = 1 the closed forms E_{1,1}(-x) = exp(-x) and
    E_{1/2,1}(-x) = exp(x^2) erfc(x) are evaluated on the whole array at
    once; a scalar goes through the same array code, so both give the same
    bits.  Otherwise three evaluation regimes are used, element by element:
    the defining power series with compensated summation (accepted only
    when cancellation is provably small), the algebraic asymptotic series
    truncated at its smallest term, and a branch-cut integral for the band
    in between.  A result is never returned from a regime whose internal
    error estimate exceeds the target (AccuracyError instead).
    """
    a = check_alpha("ml_neg: alpha", alpha)
    b = check_real("ml_neg: beta", beta)
    if b == 1.0 and a in (0.5, 1.0):
        xs = np.asarray(x)
        if xs.dtype.kind not in "iuf" or not np.all((xs >= 0.0) & (xs < math.inf)):
            raise DomainError(f"ml_neg: x must be finite and >= 0, got {x!r}")
        # one contiguous buffer: the same ufunc loop for every length
        xs = np.array(xs, dtype=float, order="C")
        out = np.exp(-xs) if a == 1.0 else _erfcx(xs)
        return out if isinstance(x, np.ndarray) else float(out)
    if isinstance(x, np.ndarray):
        flat = [_ml_general(a, b, xi) for xi in x.ravel().tolist()]
        return np.array(flat, dtype=float).reshape(x.shape)
    return _ml_general(a, b, x)


def _ml_general(a, b, x):
    """E_{a,b}(-x) for one x by the first regime that meets its target."""
    x = check_real("ml_neg: x", x, strict=False)
    if x == 0.0:
        return _rgamma(b)
    if a == 1.0:
        return _ml_alpha1(b, x)
    if a == 0.5:
        # exact identity E_{1/2,1/2}(-x) = 1/sqrt(pi) - x exp(x^2) erfc(x);
        # it cancels badly for large x, where the asymptotic series takes over
        if b == 0.5 and x <= 10.0:
            return 1.0 / math.sqrt(math.pi) - x * float(_erfcx(x))
    if x <= 1e-8:
        return _rgamma(b) - x * _rgamma(a + b)
    if x <= 8.0 and _series_peak_prediction(a, b, x) < math.log(1e4):
        val, ratio = _ml_series(a, b, x)
        if ratio <= _SERIES_PEAK_MAX and (b != 1.0 or 0.0 < val <= 1.0):
            return val
    if x >= 3.0:
        val, rel = _ml_asymptotic(a, b, x)
        if rel <= _ASYM_REL_TOL and (b != 1.0 or 0.0 < val <= 1.0):
            return val
    return _ml_integral(a, b, x)
