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

import functools
import math
from dataclasses import dataclass

import numpy as np
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
    pkm1, pk = np.zeros_like(xs), np.ones_like(xs)  # P_{-1}, P_0
    for k in range(ell):
        pkm1, pk = pk, ((2 * k + 1) * xs * pk - k * pkm1) / (k + 1)
    return pk if isinstance(x, np.ndarray) else float(pk)


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


_ROWS_BLOCK = 8  # diagonals d = l - m whose rows are buffered per matmul


def _norm_assoc_rows(re, im, starts, x):
    """Ring sums of k coefficient sets split by the parity of d = l - m:
    returns one (even, odd) pair per set, each of shape (2, L+1, len(x)),
    where even[:, m, j] holds the real and imaginary parts of
    sum_{l-m even} V_{l,m} N_{l,m}(x_j) and odd the same over odd l - m.

    `re` and `im` are sequences of k packed arrays, Re V and Im V of each
    set by degree, V_{l,m} at starts[l] + m for 0 <= m <= l <= L
    (CoefficientSet's layout).  As N_{l,m}(-x) = (-1)^(l-m) N_{l,m}(x),
    even + odd is the ring sum at x_j and even - odd the ring sum at -x_j,
    so one pass serves a ring and its mirror.

    One all-orders recurrence serves every set.  The rows of _ROWS_BLOCK
    consecutive diagonals go into an (L+1, block, len(x)) buffer, and at
    each block end every set adds, per order m, one matrix product: its
    (2*2 x block) coefficients V_{m+d,m}, zero at the other parity, times
    that order's rows.  A set's products have the same shapes and operands
    whatever the other sets are, so its sums have the same bits; neither
    the (l, m, ring) table nor an (L+1, L+1) coefficient square is formed.
    """
    x = np.asarray(x, dtype=float)
    L = len(starts) - 1
    orders = np.arange(L + 1)
    sums = [np.zeros((L + 1, 4, x.size)) for _ in re]  # [m, 2 parity + re/im, ring]
    rows = np.zeros((L + 1, _ROWS_BLOCK, x.size))
    coef = np.zeros((len(re), L + 1, 4, _ROWS_BLOCK))
    product = np.empty((L + 1, 4, x.size))
    for d, diagonal in _norm_assoc_diagonals(L, x):
        b = d % _ROWS_BLOCK
        if b == 0:  # rows past a diagonal's last order keep finite values
            coef[:] = 0.0  # of an earlier block; their coefficients are zero
        n = L + 1 - d  # orders m = 0..L-d
        rows[:n, b] = diagonal
        at = starts[d:] + orders[:n]  # V_{m+d,m}
        p = 2 * (d & 1)
        for c, re_s, im_s in zip(coef, re, im):
            c[:n, p, b] = re_s[at]
            c[:n, p + 1, b] = im_s[at]
        if b == _ROWS_BLOCK - 1 or d == L:
            top = n + b  # the orders the block's first diagonal reaches
            for c, s in zip(coef, sums):
                np.matmul(c[:top], rows[:top], out=product[:top])
                s[:top] += product[:top]
    return [(s[:, :2].transpose(1, 0, 2), s[:, 2:].transpose(1, 0, 2)) for s in sums]


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


def _panels(f, lo, hi):
    """Gauss-Legendre integrals of f over the panels [lo, hi] (1-d arrays),
    their error estimates, and f at the (panels, 20) nodes.  Each panel is
    reduced on its own, so its result does not depend on the others."""
    x, w, dw, _ = _rule()
    half = 0.5 * (hi - lo)
    fu = f((0.5 * (lo + hi))[:, None] + half[:, None] * x)
    return half * (fu * w).sum(axis=1), half * np.abs((fu * dw).sum(axis=1)), fu


# --------------------------------------------------------------------------
# Mittag-Leffler E_{alpha,beta}(-x), x >= 0, alpha in (0,1], beta > 0

_TALBOT_N = 32           # nodes on the parabola; the sum takes the 16 upper ones
_TALBOT_EPS = 1e-15      # the sum's rounding per unit of sum_k |c_k / (z_k^alpha + x)|
_TALBOT_REL_TOL = 1e-12  # accepted bound / |value|
_TALBOT_X_MAX = 1e150    # keeps (x + Re z_k^alpha)^2 finite
_KUMMER_BETA_MIN = 1e-4  # alpha = 1: the least beta the Kummer value is trusted at
_ASYM_REL_TOL = 1e-13
_SERIES_TERMS = 4000
_REL_TOL = 1e-10         # the series and the branch-cut integral: bound / |value|
_ROUNDOFF = 2.0 ** -53   # the relative error of one rounding
_HALF_ULP = 2.0 ** -54   # a term below this times the sum cannot change it
_TINY = 2.0 ** -1074     # the least subnormal: a value bounded below it rounds to +-0
_CUT_R = 55.0            # the integrand carries exp(-r), r = v^(1/alpha) <= 55
_CUT_BLOCK = 1 << 15     # integrand nodes evaluated at once


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
    beta = alpha, small values near a sign change, alpha near 1).
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


def _branch_cut(alpha, beta, xs):
    """The branch-cut integral of E_{alpha,beta}(-x) and its summed panel
    error estimate, per element of the 1-d array xs, in blocks of at most
    _CUT_BLOCK nodes; beta > 1 by the recursion."""
    a, b = alpha, beta
    if b > 1.0:
        val, err = _branch_cut(a, b - a, xs)
        return (_rgamma(b - a) - val) / xs, err / xs
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

        def f(v):
            fv = np.exp(-v ** inv_a) * (num + v * s_b) / ((v + shift) ** 2 + width)
            return fv * v ** pw if pw else fv

        q, e, _ = _panels(f, knots[:, :-1].ravel(), knots[:, 1:].ravel())
        val[i:i + per] = q.reshape(x.size, npan).sum(axis=1)
        err[i:i + per] = e.reshape(x.size, npan).sum(axis=1)
    return val / (a * math.pi), err / (a * math.pi)


def _ml_integral(alpha, beta, xs):
    """Spectral (branch-cut) integral for E_{alpha,beta}(-x), 0 < alpha < 1,
    for a 1-d array xs.  For beta <= 1,

        E_{a,b}(-x) = 1/(a*pi) * int_0^vmax exp(-v^(1/a)) v^((1-b)/a)
                      * [x sin(pi(b-a)) + v sin(pi b)]
                      / ((v + x cos(pi a))^2 + (x sin(pi a))^2) dv,

    the Hankel contour collapsed onto the negative axis, with v = r^a and
    vmax = 55^a (the tail is below exp(-55) of the value).  For beta > 1
    the recursion E_{a,b}(-x) = (1/Gamma(b-a) - E_{a,b-a}(-x))/x reduces to
    beta <= 1.

    The integrand is smooth and non-oscillatory; it is summed with the
    20-point Gauss-Legendre rule on the fixed panels of _cut_layout, over
    every element at once.  Returns (value, relative estimate), arrays like
    xs: the summed panel estimates over |value|, inf where E_{a,b}(-x) is
    positive (beta >= alpha) and the value is not.
    """
    val, err = _branch_cut(alpha, beta, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = err / np.abs(val)
    if beta >= alpha:
        rel[~(val > 0.0)] = math.inf
    return val, rel


def ml_neg(alpha, x, beta=1.0):
    """Mittag-Leffler function E_{alpha,beta}(-x) for x >= 0.

    alpha in (0, 1], beta > 0.  Relative accuracy ~1e-11 or better across
    x in [0, 1e6]; for beta = 1 the value lies in (0, 1] and is strictly
    decreasing in x.  Accepts a scalar or an ndarray for x; a scalar goes
    through the same array code, so an element of an array result has the
    bits of the scalar call.

    Each regime runs once, over all the elements the regimes before it
    left, in this order:
      - E_{1,1}(-x) = exp(-x) and E_{1/2,1}(-x) = exp(x^2) erfc(x), on
        the whole array: exact at x = 0 as well, so the decay kernel's hot
        path (alpha = 1/2 in the benchmark's increments and simulate runs)
        takes no mask;
      - x = 0, where the value is 1/Gamma(beta);
      - alpha = 1 by Kummer's M(1, beta, -x)/Gamma(beta), for every
        beta >= 1e-4: the contour sum below is derived for alpha < 1.
        The Kummer value has no error estimate; against mpmath it is
        within 3e-11 for beta >= 1e-4, but 2e-10 off at beta = 3e-5 and
        3e-5 at 1e-12, so alpha = 1, beta < 1e-4, x > 0 raises
        AccuracyError;
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
      - the few elements left (values near a sign change, alpha near 1 at
        moderate x, beta = alpha just past x = 3): the branch-cut integral
        on fixed Gauss-Legendre panels or, for x <= 16^alpha, the
        compensated power series, whichever error bound is smaller;
        AccuracyError above 1e-10.
    For beta = 1 a value must also lie in (0, 1].
    """
    a = check_alpha("ml_neg: alpha", alpha)
    b = check_real("ml_neg: beta", beta)
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
        return _erfcx(xs) if a == 0.5 else np.exp(-xs)
    out = np.full_like(xs, _rgamma(b))  # the value at x = 0
    todo = xs != 0.0
    if a == 1.0:  # E_{1,b}(-x) = M(1, b, -x)/Gamma(b)  (Kummer)
        if b < _KUMMER_BETA_MIN and todo.any():
            raise AccuracyError(f"ml_neg: alpha=1 with beta={b} < {_KUMMER_BETA_MIN:g} "
                                f"has no evaluation that meets the accuracy target")
        out[todo] = _hyp1f1(1.0, b, -xs[todo]) * _rgamma(b)
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
        better = s_err < err[near]
        val[near[better]], err[near[better]] = s_val[better], s_err[better]
    if not _accept(out, todo, i, b, val, err, _REL_TOL):
        k = int(np.flatnonzero(todo[i])[0])
        raise AccuracyError(
            f"ml_neg: no evaluation met the accuracy target at alpha={a}, beta={b}, "
            f"x={xs[i[k]]} (estimate {err[k]:.2e} of the value {val[k]:.2e})")
    return out


def _accept(out, todo, i, b, val, err, tol):
    """Store val at the indices i where err <= tol (and, for beta = 1,
    0 < val <= 1), and take those elements off todo; True if all were."""
    ok = err <= tol
    if b == 1.0:
        ok &= (0.0 < val) & (val <= 1.0)
    out[i[ok]] = val[ok]
    todo[i[ok]] = False
    return bool(ok.all())
