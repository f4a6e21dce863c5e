"""Deterministic special functions.

Gamma, Legendre polynomials, pre-normalized associated Legendre functions,
complex spherical harmonics, and the two-parameter Mittag-Leffler function
E_{alpha,beta}(-x) on the negative real axis.  The Legendre functions here
are the per-point scalar reference; map synthesis runs its own all-orders
recurrence, fused with the ring sums, in synthesis._norm_assoc_rows.

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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial  # noqa: F401  numpy loads it on first use; load it here

from .errors import (AccuracyError, DomainError, check_alpha, check_degree,
                     check_real, check_unit_interval, whole)

__all__ = [
    "SphPoint",
    "gamma",
    "legendre_p",
    "assoc_legendre_norm",
    "spherical_harmonic",
    "erfcx",
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
        if y > 170.0:  # past y = 180, 1/Gamma(y) rounds to 0; lgamma overflows near 1e306
            return math.exp(-math.lgamma(y)) if y < 200.0 else 0.0
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
    pkm1, pk = np.zeros_like(xs), np.ones_like(xs)  # P_{-1}, P_0
    for k in range(ell):
        pkm1, pk = pk, ((2 * k + 1) * xs * pk - k * pkm1) / (k + 1)
    return pk if isinstance(x, np.ndarray) else float(pk)


def _norm_assoc_order(L, m, x):
    """N_{l,m}(x) for l = m..L at one order m, vectorized over x (1-d array).

    Returns an array of shape (L-m+1, len(x)).  The recurrence works on the
    fully normalized functions so magnitudes stay O(sqrt(l)); no overflow up
    to l of a few thousand (values underflow harmlessly to 0 near |x| = 1
    for large m).  This per-degree form is the scalar path's own recurrence
    and the reference, to the last bit, for the all-orders one fused with
    the ring sums in synthesis._norm_assoc_rows (which the benchmark's
    tracer still names specfun.legendre_rows).
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
# Gauss-Legendre panels

@functools.cache
def _rule():
    """The 20-point Gauss-Legendre rule on [-1, 1]: nodes, weights, the
    weights minus those of an embedded degree-13 interpolatory rule on 14
    of the nodes (their difference is a panel's error estimate), and the
    matrix that maps node values to Legendre coefficients."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(20)
    sub = [0, 1, 3, 5, 7, 8, 9, 10, 11, 12, 14, 16, 18, 19]  # symmetric
    moments = np.zeros(len(sub))
    moments[0] = 2.0
    low = np.zeros_like(w)
    low[sub] = np.linalg.solve(leg.legvander(x[sub], len(sub) - 1).T, moments)
    to_coef = leg.legvander(x, 19).T * w * (np.arange(20) + 0.5)[:, None]
    return x, w, w - low, to_coef


def _nodes(lo, hi):
    """The (panels, 20) Gauss nodes of the panels [lo, hi] (1-d arrays) and
    the panels' half-widths."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * _rule()[0], half


def _panels(fu, half):
    """Gauss-Legendre integrals and error estimates of the panels whose
    integrand fu is given at their (panels, 20) nodes.  Each panel is
    reduced on its own, so its result does not depend on the others."""
    _, w, dw, _ = _rule()
    return half * (fu * w).sum(axis=1), half * np.abs((fu * dw).sum(axis=1))


# --------------------------------------------------------------------------
# erfcx(x) = exp(x^2) erfc(x), which is E_{1/2,1}(-x)

_ERFCX_PIECES = 2000  # quartic pieces, uniform in y = 4/(4 + x)


def _erfcx_reference(x):
    """erfcx at a 1-d array x > -1, to a few ulps: libm's erfc times
    exp(x^2), with x^2 as a double-double (Dekker's product), below 10; the
    Laplace continued fraction 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + ...))))
    to 80 terms above."""
    out = np.empty_like(x)
    near = x < 10.0
    xs = x[near]
    c = 134217729.0 * xs  # 2^27 + 1: splits xs into two 26-bit halves
    hi = c - (c - xs)
    lo = xs - hi
    sq = xs * xs
    ex = np.exp(sq)
    ex += ex * (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo)
    out[near] = np.array([math.erfc(v) for v in xs.tolist()]) * ex
    xf = x[~near]
    f = xf.copy()
    for k in range(80, 0, -1):
        f = xf + 0.5 * k / f
    out[~near] = 1.0 / (math.sqrt(math.pi) * f)
    return out


@functools.cache
def _erfcx_coef():
    """The (5, N + 1) coefficients of erfcx's pieces, built on first use.

    In y = 4/(4 + x) (Cody, Math. Comp. 23 (1969) 631; S. G. Johnson's
    Faddeeva package) g(y) = erfcx(x)/y is smooth on [0, 1], and tends to
    1/(4 sqrt(pi)) as x -> inf.  Piece k holds y in [k - 1/2, k + 1/2]/N
    and the quartic in the centred t = N y - k that interpolates g at the
    five Chebyshev nodes t = sin(pi j/5)/2, j = -2..2; its constant term is
    g at the centre, so erfcx(0) = 1 exactly.  Piece 0 interpolates at the
    nodes moved into t >= 0, where y > 0.
    """
    n = _ERFCX_PIECES
    t = np.tile(0.5 * np.sin(np.pi * np.arange(-2, 3) / 5.0), (n + 1, 1))
    t[0] = 0.25 + 0.5 * t[1]
    y = (np.arange(n + 1.0)[:, None] + t) / n
    g = _erfcx_reference((4.0 * (1.0 - y) / y).ravel()).reshape(y.shape) / y
    coef = np.empty_like(g)
    coef[1:] = np.linalg.solve(np.vander(t[1], 5, increasing=True), g[1:].T).T
    coef[1:, 0] = g[1:, 2]
    coef[0] = np.linalg.solve(np.vander(t[0], 5, increasing=True), g[0])
    coef = np.ascontiguousarray(coef.T)
    coef.flags.writeable = False
    return coef


def erfcx(x):
    """The scaled complementary error function exp(x^2) erfc(x) over an
    ndarray of x >= 0 (unchecked), elementwise.

    y g(y) in y = 4/(4 + x), with g from the quartic of the piece holding
    y (see _erfcx_coef): relative error 1.0e-15 against 40-digit mpmath
    for x up to 1e150, at most 8 ulps from scipy's up to the largest
    double, and the same bits for an element whatever array holds it."""
    coef = _erfcx_coef()
    y = 4.0 / (4.0 + x)
    t = y * _ERFCX_PIECES
    k = np.rint(t)
    t -= k
    k = k.astype(np.intp)
    g = coef[4].take(k)
    for c in coef[3::-1]:
        g *= t
        g += c.take(k)
    g *= y
    return g


# --------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(-x), x >= 0, alpha in (0,1], beta >= alpha

_TALBOT_N = 32           # nodes on the parabola; the sum takes the 16 upper ones
_TALBOT_EPS = 1e-15      # the sum's rounding per unit of sum_k |c_k / (z_k^alpha + x)|
_TALBOT_REL_TOL = 1e-12  # accepted bound / |value|
_TALBOT_X_MAX = 1e150    # keeps (x + Re z_k^alpha)^2 finite
_ASYM_REL_TOL = 1e-13
_SERIES_TERMS = 4000
_REL_TOL = 1e-10         # the series and the branch-cut integral: bound / |value|
_ROUNDOFF = 2.0 ** -53   # the relative error of one rounding
_HALF_ULP = 2.0 ** -54   # a term below this times the sum cannot change it
_TINY = 2.0 ** -1074     # the least subnormal: a value bounded below it rounds to +-0
_CUT_R = 55.0            # the integrand carries exp(-r), r = v^(1/alpha) <= 55
_CUT_BLOCK = 1 << 15     # integrand nodes evaluated at once
_CUT_LEVELS = 1 << 12    # the most beta -> beta - alpha steps the integral takes
_KUMMER_X_MAX = 700.0    # alpha = 1: e^x and the series' sum stay finite up to here


@functools.lru_cache(maxsize=64)
def _talbot(alpha, beta):
    """The 16 upper-half nodes of the Talbot parabola for E_{alpha,beta},
    built on first use.

    The nodes are z_k = z(theta_k) on z(theta) = N (0.1309 - 0.1194 theta^2
    + 0.25 i theta), N = 32, theta_k = (k - 1/2) 2 pi / N, and the weights
    are c_k = 2 e^{z_k} z_k^(alpha - beta) z'(theta_k) / (i N): the
    trapezoidal rule for the Bromwich integral, whose lower half is the
    conjugate of the upper.  Per node it returns, as floats, Re z_k^alpha,
    (Im z_k^alpha)^2, Re c_k, Im c_k Im z_k^alpha and |c_k|; and the bound's
    factor per unit of sum_k |c_k / (z_k^alpha + x)|: _TALBOT_EPS for
    rounding plus the rule's own error at x = 0 (where the sum approximates
    1/Gamma(beta)) per unit of its terms there, which grows with beta
    (7e-13 of the value at beta = 2).
    """
    n = _TALBOT_N
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    z = n * (0.1309 - 0.1194 * theta ** 2 + 0.25j * theta)
    c = 2.0 * np.exp(z) * z ** (alpha - beta) * (0.25 + 0.2388j * theta)  # z' / (i N)
    za = z ** alpha
    at0 = c / za
    eps = _TALBOT_EPS + abs(at0.real.sum() - _rgamma(beta)) / np.abs(at0).sum()
    nodes = zip(za.real.tolist(), (za.imag ** 2).tolist(), c.real.tolist(),
                (c.imag * za.imag).tolist(), np.abs(c).tolist())
    return tuple(nodes), eps


def _ml_contour(alpha, beta, xs):
    """E_{alpha,beta}(-x) = (1/2 pi i) int e^s s^(alpha-beta) / (s^alpha + x) ds
    as sum_k Re[c_k / (z_k^alpha + x)] over the nodes of _talbot, for a
    1-d array xs; returns (value, relative bound).

    For 0 < alpha < 1 and x >= 0 the integrand is analytic off the
    negative real axis, where the parabola keeps its distance, and the rule
    converges like 2.85^-N (Trefethen, Weideman & Schmelzer, BIT 46
    (2006) 653).  The sum runs in real arithmetic, one node at a time in a
    fixed order, so an element has the bits of a scalar call.  The bound
    is eps sum_k |c_k| / |z_k^alpha + x| with _talbot's eps: the terms'
    size, which the value can be far below where they cancel (large x at
    beta = alpha, alpha near 1).
    """
    nodes, eps = _talbot(alpha, beta)
    val, size = np.zeros_like(xs), np.zeros_like(xs)
    for p, q2, cr, ciq, ca in nodes:
        re = xs + p
        den = re * re + q2
        val += (cr * re + ciq) / den
        size += ca / np.sqrt(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        return val, eps * size / np.abs(val)


def _ml_series(alpha, beta, xs):
    """Power series sum_k (-x)^k / Gamma(alpha*k + beta), compensated, for
    a 1-d array xs.

    Returns (value, relative rounding bound), arrays like xs.  Term k
    carries at most k + 10 roundings: k products for (-x)^k, at most 9
    ulps in 1/Gamma below 170 and one more product; the compensated sum
    adds about 2 ulps of the value.  The bound is
    2^-53 (sum_k (k + 10) |term_k| + 2 |value|) / |value|, inf for a zero
    sum or one not settled in _SERIES_TERMS terms.  Each element keeps its
    own Kahan sum and bound and stops at its first term with k >= 4 below
    1e-17 of its sum, so it has the bits of a scalar call.
    """
    total = np.full_like(xs, _rgamma(beta))
    rel = np.full_like(xs, math.inf)
    live, neg = np.arange(xs.size), -xs
    tot, comp, term_x = total.copy(), np.zeros_like(xs), np.ones_like(xs)
    size = 10.0 * np.abs(total)  # term 0 carries at most 10 roundings too
    with np.errstate(all="ignore"):
        for k in range(1, _SERIES_TERMS + 1):
            if live.size == 0:
                break
            term_x = term_x * neg
            t = term_x * _rgamma(alpha * k + beta)
            size = size + (k + 10) * np.abs(t)
            # Kahan step
            y = t - comp
            s = tot + y
            comp = (s - tot) - y
            tot = s
            done = np.abs(t) <= 1e-17 * np.abs(tot) + 1e-300
            if k < 4 or not done.any():
                continue
            i = live[done]  # a zero sum gets rel inf
            total[i] = tot[done]
            rel[i] = _ROUNDOFF * (size[done] + 2.0 * np.abs(tot[done])) / np.abs(tot[done])
            live, neg, tot, comp, size, term_x = (v[~done] for v in (live, neg, tot, comp,
                                                                     size, term_x))
    total[live] = tot
    return total, rel


def _envelope(alpha, beta, k):
    """A bound on |1/Gamma(beta - alpha k)| without zeros: Gamma(1 - y)/pi
    (reflection, |sin| <= 1) for y = beta - alpha k < 1, else 1/Gamma(y)."""
    y = beta - alpha * k
    return math.gamma(1.0 - y) / math.pi if y < 1.0 else _rgamma(y)


def _ml_asymptotic(alpha, beta, xs):
    """Algebraic asymptotic series of E_{alpha,beta}(-x), 0 < alpha < 1:

        sum_{k>=1} (-1)^(k+1) x^-k / Gamma(beta - alpha k),

    for a 1-d array xs; returns (value, relative error estimate), arrays
    like xs.

    Term k is bounded by the envelope env_k = x^-k Gamma(1 - beta + alpha k)
    / pi, which, unlike the terms, does not dip at the poles of 1/Gamma.
    Each element adds terms while its envelope falls, and stops before
    term k at the envelope's minimum (env_{k+1} >= env_k), or earlier once
    env_k and env_{k+1} are below 2^-54 |sum|: no later term up to the
    minimum can then change a bit of the sum.  The estimate is
    max(env_k, env_{k+1}) / |sum|: 0 if that bound is below the least
    subnormal (the value rounds to +-0), inf for another zero sum.
    Elements are independent, so each has the bits of a scalar call.
    """
    inv = 1.0 / xs
    total = np.zeros_like(xs)
    err = np.full_like(xs, math.inf)
    live = np.arange(xs.size)
    pk = inv                                   # x^-k of the live elements
    env = _envelope(alpha, beta, 1) * pk
    for k in range(1, int((169.0 + beta) / alpha)):  # Gamma(1 - y) stays finite
        pn = pk * inv[live]
        env_n = _envelope(alpha, beta, k + 1) * pn
        top = np.maximum(env, env_n)
        tot = total[live]
        done = (top < _HALF_ULP * np.abs(tot)) | (env_n >= env)
        err[live[done]] = top[done]
        keep = ~done
        live = live[keep]
        if live.size == 0:
            break
        pk, pn, env = pk[keep], pn[keep], env_n[keep]
        total[live] = tot[keep] + (-1.0) ** (k + 1) * _rgamma(beta - alpha * k) * pk
        pk = pn
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(err < _TINY, 0.0, err / np.abs(total))
    return total, rel


def _ml1_series(beta, xs):
    """E_{1,beta}(-x) = e^-x / Gamma(beta) sum_k (beta - 1)/(beta - 1 + k)
    x^k / k! (Kummer's transformation of M(1, beta, -x)/Gamma(beta)) for a
    1-d array of 0 < x <= _KUMMER_X_MAX, beta > 1; returns (value, relative
    rounding bound).  The terms are positive, term k carries at most 2k + 3
    roundings, so the bound is 2^-53 (3n + 19) for n terms (1/Gamma(beta) to
    10 ulps: beta <= 170).  An element needs term k until k > x and the term
    is below 2^-54 of the sum; later terms fall and cannot change it, so an
    element has a scalar call's bits.
    """
    b1 = beta - 1.0
    term, total = np.ones_like(xs), np.ones_like(xs)
    for k in itertools.count(1):
        term = term * xs / k
        t = term * (b1 / (b1 + k))
        need = (k <= xs) | (t >= _HALF_ULP * total)
        total += t
        if not need.any():
            return np.exp(-xs) * total * _rgamma(beta), np.full_like(xs, (3 * k + 19) * _ROUNDOFF)


def _ml1_asymptotic(beta, xs):
    """E_{1,beta}(-x) for a 1-d array of x > _KUMMER_X_MAX and 1 < beta <
    180 by 60 terms of the algebraic series sum_{k>=1} (-1)^(k+1) x^-k /
    Gamma(beta - k), with 1/Gamma(beta - k) as prod_{i<k} (beta - 1 - i) /
    Gamma(beta), whose factors stay exact where beta - k would round
    beta - 1 away.  The terms fall by |k - beta|/x < 0.26 per k, and the
    exponential part, below e^-x x of the value, is left out.  Returns
    (value, relative rounding bound 2^-53 * 150 for beta <= 170).
    """
    term, total = -np.ones_like(xs), np.zeros_like(xs)
    for k in range(1, 61):
        term = term * (k - beta) / xs
        total += term
    return total * _rgamma(beta), np.full_like(xs, 150.0 * _ROUNDOFF)


@functools.lru_cache(maxsize=16)
def _cut_layout(alpha):
    """The panel knots in v that every x shares, and the knots of the dip
    in units of its half-width w about its centre v0 (none for
    alpha <= 1/2).

    - geometric toward v = 0: ratio 2 on [1/64, 1], ratio 4 below, down
      to 1.5e-8;
    - across the cut-off exp(-r), r = v^(1/alpha): twelve panels of equal
      width in r up to r = 55 (v = 55^alpha), the first one halved six
      times toward r = 0;
    - the dip at v0 = -x cos(pi alpha), of half-width w = x sin(pi alpha):
      v0 and v0 +- w 0.5 10^(j/4), out to twice v0 / w = cot(pi (1 - alpha))
      and at least to w, so the grading gets finer as alpha -> 1.
    """
    step = _CUT_R / 12.0
    r = step * np.concatenate([2.0 ** -np.arange(6.0, 0.0, -1.0), np.arange(1.0, 13.0)])
    v = np.concatenate([2.0 ** -6 * 4.0 ** -np.arange(10.0, 0.0, -1.0),
                        2.0 ** -np.arange(6.0, -1.0, -1.0)])
    vmax = _CUT_R ** alpha
    base = np.unique(np.concatenate([[0.0], v, np.minimum(r ** alpha, vmax)]))
    dip = np.empty(0)
    if alpha > 0.5:
        reach = max(-2.0 * _cospi(alpha) / _sinpi(alpha), 1.0)
        g = 0.5 * 10.0 ** (np.arange(math.ceil(4.0 * math.log10(2.0 * reach)) + 1) / 4.0)
        dip = np.concatenate([-g[::-1], [0.0], g])
    base.flags.writeable = dip.flags.writeable = False
    return base, dip


def _ml_integral(alpha, beta, xs):
    """Spectral (branch-cut) integral for E_{alpha,beta}(-x), 0 < alpha < 1,
    for a 1-d array xs.  For beta <= 1,

        E_{a,b}(-x) = 1/(a*pi) * int_0^vmax exp(-v^(1/a)) v^((1-b)/a)
                      * [x sin(pi(b-a)) + v sin(pi b)]
                      / ((v + x cos(pi a))^2 + (x sin(pi a))^2) dv,

    the Hankel contour collapsed onto the negative axis, with v = r^a and
    vmax = 55^a (the tail is below exp(-55) of the value).  For beta > 1
    the recursion E_{a,b}(-x) = (1/Gamma(b-a) - E_{a,b-a}(-x))/x, run as a
    loop, reduces to the first of beta - alpha, beta - 2 alpha, ... at or
    below 1 (NaN, with an infinite estimate, past _CUT_LEVELS steps).

    The integrand is smooth and non-oscillatory; it is summed with the
    20-point Gauss-Legendre rule on the fixed panels of _cut_layout, over
    every element at once, in blocks of at most _CUT_BLOCK nodes.  Returns
    (value, relative estimate), arrays like xs: the summed panel estimates,
    carried through the recursion, over |value|.
    """
    a, b = alpha, beta
    steps = []
    while b > 1.0:
        if len(steps) == _CUT_LEVELS:
            return np.full_like(xs, math.nan), np.full_like(xs, math.inf)
        steps.append(b)
        b -= a
    base, dip = _cut_layout(a)
    c, s = _cospi(a), _sinpi(a)
    s_ba, s_b = _sinpi(b - a), _sinpi(b)
    inv_a, pw = 1.0 / a, (1.0 - b) / a
    npan = base.size + dip.size - 1
    per = max(1, _CUT_BLOCK // (20 * npan))
    val, err = np.empty_like(xs), np.empty_like(xs)
    for i in range(0, xs.size, per):
        x = xs[i:i + per, None]
        knots = np.broadcast_to(base, (x.size, base.size))
        if dip.size:
            near = np.clip(-c * x + s * x * dip, base[1], base[-1])
            knots = np.sort(np.concatenate([knots, near], axis=1), axis=1)
        xr = np.repeat(x, npan, axis=0)
        num, shift, width = xr * s_ba, xr * c, (xr * s) ** 2
        v, half = _nodes(knots[:, :-1].ravel(), knots[:, 1:].ravel())
        fv = np.exp(-v ** inv_a) * (num + v * s_b) / ((v + shift) ** 2 + width)
        q, e = _panels(fv * v ** pw if pw else fv, half)
        val[i:i + per] = q.reshape(x.size, npan).sum(axis=1)
        err[i:i + per] = e.reshape(x.size, npan).sum(axis=1)
    val, err = val / (a * math.pi), err / (a * math.pi)
    # beta / alpha steps up this overflows at small alpha and tiny x; such
    # an element's inf or NaN estimate loses to the series
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for b in reversed(steps):
            val, err = (_rgamma(b - a) - val) / xs, err / xs
        return val, err / np.abs(val)


def ml_neg(alpha, x, beta=1.0):
    """Mittag-Leffler function E_{alpha,beta}(-x) for x >= 0.

    alpha in (0, 1], beta >= alpha, where E_{alpha,beta}(-x) is completely
    monotone (Schneider, Expo. Math. 14 (1996) 3): every value lies in
    [0, 1/Gamma(beta)], and one outside is refused.  Each value is
    accepted at an error estimate of 1e-10 or less; where no regime gets
    there AccuracyError is raised.  Of 12,000 log-spaced x in [1e-3, 1e3]
    that happens for x of about 1.03 to 3 at alpha <= 0.07 with beta
    within 0.02 of alpha (932 x at alpha = beta = 0.05), for x of about
    1.02 to 1.09 at alpha <= 0.03, beta = 3 (37 x at alpha = 0.01), and
    nowhere for alpha >= 0.08.  Accepts a scalar or an ndarray for x; a
    scalar goes through the same array code, so an element of an array
    result has the bits of the scalar call.

    Each regime runs once, over all the elements the regimes before it
    left, in this order:
      - E_{1,1}(-x) = exp(-x) and E_{1/2,1}(-x) = exp(x^2) erfc(x), by
        the in-repo erfcx (relative error below 4e-15), on the whole array:
        exact at x = 0 as well, so the decay kernel's hot path (alpha = 1/2
        in the benchmark's increments and simulate runs) takes no mask;
      - x = 0, where the value is 1/Gamma(beta), and every x once that
        bound on the value rounds to 0 (beta above about 180);
      - alpha = 1, where the regimes below do not apply, by Kummer's series
        for x <= 700 and the algebraic series past it (_ml1_series,
        _ml1_asymptotic), accepted at 1e-10;
      - the two-term series for x <= 1e-8, where the contour sum is about
        60 ulps off (7e-15 at alpha = 3/4, x = 1e-9);
      - for x <= 1e150, the Bromwich integral as a 16-term sum on a fixed
        Talbot parabola, accepted where its bound is within 1e-12 of the
        value;
      - for x >= 3, the algebraic asymptotic series, stopped by its
        envelope and accepted at an estimate of 1e-13: large x at
        beta = alpha, where the sum cancels, and x past 1e150.  At small
        alpha it is the only regime within tolerance for every x >= 3:
        at alpha = 0.05 the branch-cut integral's estimate stays near
        2e-9 and the contour sum's bound above 7e-12 from x = 3 to 1e6;
      - the few elements left (alpha near 1 at moderate x, beta = alpha
        just past x = 3): the branch-cut integral on fixed Gauss-Legendre
        panels or, for x <= 16^alpha, the compensated power series,
        whichever error bound is smaller; AccuracyError above 1e-10.
    """
    a = check_alpha("ml_neg: alpha", alpha)
    b = check_real("ml_neg: beta", beta, a, strict=False)
    xs = np.asarray(x)
    if (xs.dtype.kind not in "iuf" or (xs.ndim and not isinstance(x, np.ndarray))
            or not np.all((xs >= 0.0) & (xs < math.inf))):
        raise DomainError(f"ml_neg: x must be a finite number >= 0 or an ndarray "
                          f"of them, got {x!r}")
    # one contiguous buffer: the same ufunc loop for every length
    xs = np.array(xs, dtype=float, order="C")
    out = _ml_general(a, b, xs.ravel()).reshape(xs.shape)
    return out if isinstance(x, np.ndarray) else float(out)


def _ml_general(a, b, xs):
    """E_{a,b}(-x) over a 1-d array: one masked pass per regime of ml_neg,
    in its order, each over the elements still left (todo)."""
    if b == 1.0 and a in (0.5, 1.0):  # exact at x = 0 too: no mask on the hot path
        return erfcx(xs) if a == 0.5 else np.exp(-xs)
    out = np.full_like(xs, _rgamma(b))  # the value at x = 0
    if _rgamma(b) == 0.0:  # every value lies in [0, 1/Gamma(b)], which rounds to 0
        return out
    todo = xs != 0.0
    if a == 1.0:  # the contour sum and the integral below are derived for alpha < 1
        for regime, gate in ((_ml1_series, xs <= _KUMMER_X_MAX),
                             (_ml1_asymptotic, xs > _KUMMER_X_MAX)):
            i = np.flatnonzero(todo & gate)
            if i.size and not _accept(out, todo, i, b, *regime(b, xs[i]), _REL_TOL):
                raise AccuracyError(f"ml_neg: no evaluation met the accuracy target at "
                                    f"alpha=1, beta={b}")
        return out
    tiny = todo & (xs <= 1e-8)
    out[tiny] = _rgamma(b) - xs[tiny] * _rgamma(a + b)
    todo &= ~tiny
    for regime, gate, tol in ((_ml_contour, xs <= _TALBOT_X_MAX, _TALBOT_REL_TOL),
                              (_ml_asymptotic, xs >= 3.0, _ASYM_REL_TOL)):
        i = np.flatnonzero(todo & gate)
        if i.size:
            _accept(out, todo, i, b, *regime(a, b, xs[i]), tol)
    i = np.flatnonzero(todo)
    if i.size == 0:
        return out
    val, err = _ml_integral(a, b, xs[i])
    # the series' largest term, about exp(x^(1/a)), stays below 1e7 here
    near = np.flatnonzero(xs[i] <= 16.0 ** a)
    if near.size:
        s_val, s_err = _ml_series(a, b, xs[i[near]])
        better = ~(err[near] <= s_err)  # an integral with a NaN estimate loses
        val[near[better]], err[near[better]] = s_val[better], s_err[better]
    if not _accept(out, todo, i, b, val, err, _REL_TOL):
        k = int(np.flatnonzero(todo[i])[0])
        raise AccuracyError(
            f"ml_neg: no evaluation met the accuracy target at alpha={a}, beta={b}, "
            f"x={xs[i[k]]} (estimate {err[k]:.2e} of the value {val[k]:.2e})")
    return out


def _accept(out, todo, i, b, val, err, tol):
    """Store val at the indices i where err <= tol and 0 <= val <=
    1/Gamma(b), and take those elements off todo; True if all were."""
    ok = (err <= tol) & (0.0 <= val) & (val <= _rgamma(b))
    out[i[ok]] = val[ok]
    todo[i[ok]] = False
    return bool(ok.all())
