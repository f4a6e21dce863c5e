"""Exact Gaussian sampling of the solution's harmonic coefficients.

The solution of the two-stage equation has independent complex Gaussian
coefficients (m >= 0 stored; m < 0 implied by conjugation for a real field):

    V_{l,0}(t) = E_alpha(-lambda_l t^alpha) sqrt(C_l) Z1_{l,0}
                 + 1_{t>tau} sqrt(A_l) I1_{l,0}(t-tau),
    V_{l,m}(t) = E_alpha(-lambda_l t^alpha) sqrt(C_l/2) (Z1_{l,m} - i Z2_{l,m})
                 + 1_{t>tau} sqrt(A_l/2) (I1_{l,m} - i I2_{l,m}),

with Z ~ N(0,1) iid and I(s) ~ N(0, sigma^2_{l,s,alpha}),
sigma^2_{l,s,alpha} = int_0^s E_alpha(-lambda_l r^alpha)^2 dr.  Across
times, with E_i = E_alpha(-lambda_l t_i^alpha), V_{l,0} has the covariance

    Sigma_l(t_i, t_j) = C_l E_i E_j
                        + 1_{t_i, t_j > tau} A_l cross_sigma(l, s, h),
    cross_sigma(l, s, h) = int_0^s E(-lambda (r+h)^a) E(-lambda r^a) dr,

at the smaller lag s past tau and the lag difference h; Re and Im of
V_{l,m}, m >= 1, each carry Sigma_l / 2.  That is the one law every draw
comes from.  A draw at k times applies F_l, a lower-triangular factor of
Sigma_l built row by row over the times, to k pairs of normal arrays.  A
draw at one time is the case k = 1: sqrt(v_l) times one pair, with
v_l = coefficient_variance(l, t).  A Monte Carlo increment needs only
U(t+h) - U(t), which is again the case k = 1, of variance

    v_l = (E_alpha(-lambda_l (t+h)^alpha) - E_alpha(-lambda_l t^alpha))^2 C_l
          + A_l D_l,
    D_l = sigma^2_{l,s+h} + sigma^2_{l,s} - 2 cross_sigma(l, s, h),  s = t - tau.

Both kernel variances take a degree or an ndarray of degrees; a degree
runs through the array code as a 1-element array.  In the
scaled time u = lambda^(1/alpha) r the kernel is E_alpha(-u^alpha), so

    sigma^2_{l,s,alpha} = lambda^(-1/alpha) F_alpha(lambda^(1/alpha) s),
    F_alpha(z) = int_0^z E_alpha(-u^alpha)^2 du,

one function per alpha, tabulated lazily on fixed 20-point Gauss-Legendre
panels that every degree shares.  cross_sigma integrates each degree over
graded panels in u, passing whole blocks of nodes to ml_neg.  Every panel
carries an error estimate from an embedded lower-order rule; a value whose
summed estimate exceeds 1e-10 of itself raises AccuracyError.

Randomness is counter-based (RNG scheme 7): each (seed, realization,
role) has its own Philox key, and variate number l(l+1)/2 + m of that
stream belongs to coefficient (l, m), the np.tril_indices order.  Column
j of a draw takes roles 4 + 2j (Re) and 5 + 2j (Im), so time 0 of any
joint draw is the one-time draw; an increment takes roles 2 and 3.  A
realization draws each role as one packed array, every variate is a pure
function of its coordinates, and a draw at degree L has the rows of a
draw at any larger degree, bit for bit.  Draws are order-independent and
identical under any work scheduling.

A Monte Carlo curve needs only each draw's per-degree Parseval power p_l,
which is exactly v_l chi^2_{2l+1} for the law's per-degree variance v_l;
the sum of n independent draws' powers is v_l chi^2_{n(2l+1)}.
chi_square_power draws that sum with one variate per degree, in degree
order, from role 0 of the curve row's key, a role no coefficient draw
uses.  Its variates at degree L are a prefix of those at any larger
degree, but a variate is not a function of its degree alone, because
the gamma sampler consumes a variable number of raw values.

A CoefficientSet stores Re V and Im V as two such packed arrays.  Monte
Carlo reductions (degree_power) read them directly; the (L+1)x(L+1) square
that map synthesis reads is built only on request, read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyError, DomainError, check_alpha, check_degree,
                     check_degrees, check_increasing, check_real, check_unit_interval,
                     whole)
from .spectra import AlgebraicSpectrum, m_alpha
from .specfun import _panels, _rule, ml_neg

__all__ = [
    "FractionalModel",
    "CoefficientSet",
    "RngStream",
    "RNG_SCHEME",
    "ROLE_INC_RE",
    "ROLE_INC_IM",
    "ROLE_LAW_RE",
    "ROLE_LAW_IM",
    "ROLE_POWER",
    "sigma_squared",
    "sigma_squared_bound",
    "cross_sigma",
    "sample_combined",
    "sample_combined_pair",
    "sample_combined_times",
    "chi_square_power",
    "coefficient_variance",
    "covariance_function",
]


@dataclass(frozen=True)
class FractionalModel:
    """A full problem instance: fractional order, noise onset time, and the
    two angular power spectra.  tau = inf is a model without noise."""

    alpha: float
    tau: float
    spec_c: AlgebraicSpectrum
    spec_a: AlgebraicSpectrum

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha("FractionalModel: alpha", self.alpha))
        if self.tau != math.inf:
            object.__setattr__(self, "tau", check_real("FractionalModel: tau", self.tau))


# --------------------------------------------------------------------------
# counter-based RNG streams

ROLE_POWER = 0    # the chi-square powers of a curve row (chi_square_power)
ROLE_INC_RE = 2   # an increment draw (sample_combined_pair)
ROLE_INC_IM = 3
ROLE_LAW_RE = 4   # column j of a law draw takes ROLE_LAW_RE + 2j, ROLE_LAW_IM + 2j
ROLE_LAW_IM = 5
_ROLES = 2 ** 8   # role ids fit in one byte of the Philox key
_MAX_TIMES = (_ROLES - ROLE_LAW_RE) // 2

RNG_SCHEME = 7  # version of the map from coordinates to variates


def _coordinate(name, value, bound):
    """value as an int in [0, bound); a fractional value would otherwise
    land on another coordinate's stream."""
    as_int = whole(value)
    if as_int is None or not 0 <= as_int < bound:
        raise DomainError(f"RngStream: {name} must be an integer in [0, {bound}), "
                          f"got {value!r}")
    return as_int


@dataclass(frozen=True)
class RngStream:
    """Reproducible variates: one Philox stream per (seed, realization, role),
    keyed (seed, realization << 8 | role).

    Variate number l(l+1)/2 + m of a normal stream belongs to coefficient
    (l, m), so identical coordinates give bit-identical variates on every
    platform and distinct (realization, role) pairs give independent
    streams.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _coordinate("seed", self.seed, 2 ** 64))

    def _generator(self, realization, role):
        realization = _coordinate("realization index", realization, 2 ** 56)
        role = _coordinate("role", role, _ROLES)
        key = np.array([self.seed, realization << 8 | role], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def normals(self, realization, ell, role, n):
        """The n variates of stream (realization, role) that start at the
        first variate of degree ell; the stream's prefix is drawn and dropped."""
        ell = _coordinate("degree", ell, 2 ** 20)
        gen = self._generator(realization, role)
        skip = ell * (ell + 1) // 2
        return gen.standard_normal(skip + n)[skip:]

    def chi_squares(self, realization, role, dof):
        """One chi-square variate per entry of the array dof, drawn in order
        from stream (realization, role), so a prefix of dof gets a prefix
        of the variates."""
        return self._generator(realization, role).chisquare(dof)


# --------------------------------------------------------------------------
# coefficient sets

@dataclass(eq=False)
class CoefficientSet:
    """Complex coefficients {V_{l,m} : 0 <= m <= l <= L} of a real field,
    packed in np.tril_indices(L + 1) order (entry l(l+1)/2 + m holds (l, m))."""

    L: int
    re: np.ndarray  # Re V_{l,m}, packed
    im: np.ndarray  # Im V_{l,m}, packed

    @classmethod
    def from_square(cls, values):
        """The set of an (L+1, L+1) array's entries values[l, m], m <= l;
        entries with m > l are dropped."""
        values = np.asarray(values, dtype=complex)
        L = values.shape[0] - 1
        packed = values[_layout(L)[2]]
        return cls(L=L, re=packed.real.copy(), im=packed.imag.copy())

    @property
    def values(self):
        """The (L+1, L+1) complex array, zero where m > l; built on each read
        and read-only, so an in-place write raises instead of being lost."""
        mask = _layout(self.L)[2]
        out = np.zeros((self.L + 1, self.L + 1), dtype=complex)
        out.real[mask] = self.re
        out.imag[mask] = self.im
        out.flags.writeable = False
        return out

    def degree_power(self):
        """Per-degree Parseval power p_l = |V_{l,0}|^2 + 2 sum_{m>=1} |V_{l,m}|^2,
        reduced over each degree's packed entries, Re and Im one after the
        other: no square array, no complex modulus."""
        starts = _layout(self.L)[1]
        p = np.add.reduceat(self.re * self.re, starts)
        p += np.add.reduceat(self.im * self.im, starts)
        p *= 2.0
        p -= self.re[starts] ** 2 + self.im[starts] ** 2
        return p


# --------------------------------------------------------------------------
# kernel variances

_PANELS_PER_DECADE = 4   # geometric panels, ratio 10^(1/4) between knots
_REL_TOL = 1e-10         # summed panel error estimates, relative to the value
_HEAD_X = 1e-3           # sigma^2 table: power series while u^alpha <= _HEAD_X
_HEAD_TERMS = 8          # ... truncated at (u^alpha)^8 <= 1e-24
_TABLE_BLOCK = 16        # panels added per table extension (four decades)
_CROSS_NODES = 1 << 15   # nodes per cross_sigma degree block (256 KB per array)


def _accuracy_check(name, val, err, ells, **where):
    # near the underflow limit (1e-300) a value has no relative accuracy
    bad = err > _REL_TOL * val + 1e-300
    if np.any(bad):
        i = int(np.argmax(bad))
        args = ", ".join(f"{k}={v}" for k, v in where.items())
        raise AccuracyError(
            f"{name}: quadrature failed tolerance at l={ells[i]:.0f}, {args} "
            f"(err={err[i]:.2e}, value={val[i]:.2e})")


class _SquaredKernelTable:
    """F(z) = int_0^z E_alpha(-u^alpha)^2 du for one alpha.

    Below z0 = _HEAD_X^(1/alpha) F is the integrated power series.  Above
    it the table holds F and its accumulated error estimate at the knots
    z0 10^(k/4), and for every panel between two knots the Legendre
    coefficients of the antiderivative of the degree-19 polynomial through
    the panel's 20 Gauss nodes, so F anywhere in a panel costs no new
    E_alpha evaluation.  The table grows in blocks of _TABLE_BLOCK panels,
    always from the first block on, so a value never depends on which
    queries came before it.
    """

    def __init__(self, alpha):
        self.alpha = alpha
        self.z0 = _HEAD_X ** (1.0 / alpha)
        # E(-x)^2 = sum_m e_m x^m with x = u^alpha, integrated term by term
        m = np.arange(_HEAD_TERMS)
        e = np.array([(-1.0) ** k / math.gamma(1.0 + alpha * k) for k in m])
        self.head_coef = np.convolve(e, e)[:_HEAD_TERMS] / (1.0 + alpha * m)
        # knots z0 10^(k/4) overflow past the last block end with k/4 <= 308.25
        k_end = _TABLE_BLOCK * int(308.25 * _PANELS_PER_DECADE // _TABLE_BLOCK)
        self.z_end = self.z0 * 10.0 ** (k_end / _PANELS_PER_DECADE)
        self.knots = np.array([self.z0])
        self.cum = self._head(self.knots)
        self.cum_err = np.zeros(1)
        self.anti = np.empty((0, 21))

    def _head(self, z):
        return z * np.polynomial.polynomial.polyval(z ** self.alpha, self.head_coef)

    def _grow(self, zmax):
        _, _, _, to_coef = _rule()
        while self.knots[-1] <= zmax:
            n = len(self.knots) - 1
            k = np.arange(n, n + _TABLE_BLOCK + 1)
            knots = self.z0 * 10.0 ** (k / _PANELS_PER_DECADE)
            q, e, g = _panels(lambda u: ml_neg(self.alpha, u ** self.alpha) ** 2,
                              knots[:-1], knots[1:])
            coef = (g[:, None, :] * to_coef).sum(axis=2)
            self.knots = np.concatenate([self.knots, knots[1:]])
            self.cum = np.concatenate([self.cum, np.cumsum(np.append(self.cum[-1], q))[1:]])
            self.cum_err = np.concatenate(
                [self.cum_err, np.cumsum(np.append(self.cum_err[-1], e))[1:]])
            self.anti = np.concatenate(
                [self.anti, np.polynomial.legendre.legint(coef, lbnd=-1, axis=1)])

    def __call__(self, z):
        """F(z) and its error estimate, elementwise over a 1-d array z > 0."""
        self._grow(z.max())
        val = np.empty_like(z)
        err = np.zeros_like(z)
        head = z <= self.z0
        val[head] = self._head(z[head])
        zt = z[~head]
        k = np.searchsorted(self.knots, zt, side="right") - 1
        lo, hi = self.knots[k], self.knots[k + 1]
        y = (2.0 * zt - lo - hi) / (hi - lo)
        part = 0.5 * (hi - lo) * np.polynomial.legendre.legval(y, self.anti[k].T,
                                                               tensor=False)
        val[~head] = self.cum[k] + part
        err[~head] = self.cum_err[k + 1]  # through the whole panel holding z
        return val, err


@functools.cache
def _table(alpha):
    """The squared-kernel table of alpha, built once and grown in place."""
    return _SquaredKernelTable(alpha)


def _scaled(ells, alpha, t):
    """lambda^(1/alpha) for the degrees, and lambda^(1/alpha) t: the kernel
    E_alpha(-lambda r^alpha) is E_alpha(-u^alpha) in u = lambda^(1/alpha) r."""
    with np.errstate(over="ignore"):
        scale = (ells * (ells + 1.0)) ** (1.0 / alpha)
    if not np.all(np.isfinite(scale * t)):
        raise AccuracyError(
            f"kernel variance: lambda^(1/alpha) t overflows at alpha={alpha}, t={t}")
    return scale, scale * t


def _sigma_squared(ells, t, alpha):
    out = np.full(ells.shape, t)  # lambda_0 = 0: the integrand is identically 1
    pos = ells > 0.0
    if t > 0.0 and np.any(pos):
        scale, z = _scaled(ells[pos], alpha, t)
        table = _table(alpha)
        if z.max() >= table.z_end:
            raise AccuracyError(
                f"sigma_squared: lambda^(1/alpha) t = {z.max():.3e} is past the "
                f"kernel table's last knot {table.z_end:.3e} at alpha={alpha}, t={t}")
        val, err = table(z)
        _accuracy_check("sigma_squared", val, err, ells[pos], t=t, alpha=alpha)
        out[pos] = np.minimum(val / scale, t)  # integrand <= 1, so sigma^2 <= t
    return out


def sigma_squared(ell, t, alpha):
    """Variance of the stochastic integral of the decay kernel:
    int_0^t E_alpha(-lambda_l r^alpha)^2 dr, in [0, t].

    ell is a degree or an ndarray of degrees (then an ndarray comes back);
    every degree reads the same per-alpha table.  A degree runs through the
    array code as a 1-element array, with no per-scalar cache, so an
    element of an array result has the same bits as the scalar call."""
    ells = check_degrees("sigma_squared: degree", ell)
    alpha = check_alpha("sigma_squared: alpha", alpha)
    t = check_real("sigma_squared: t", t, strict=False)
    out = _sigma_squared(ells, t, alpha)
    return out if isinstance(ell, np.ndarray) else float(out[0])


def sigma_squared_bound(ell, t, alpha):
    """Three-regime closed-form upper bound for sigma_squared (l >= 1).

    The alpha = 1/2 branch contains ln(lambda^2 t) and is only valid when
    lambda^2 t > 1; outside that regime a DomainError is raised.
    """
    ell = check_degree("sigma_squared_bound: degree", ell, 1)
    t = check_real("sigma_squared_bound: t", t)
    alpha = check_alpha("sigma_squared_bound: alpha", alpha)
    lam = ell * (ell + 1.0)
    if alpha < 0.5:
        return lam ** (-1.0 / alpha) + m_alpha(alpha) * t ** (1.0 - 2.0 * alpha) * lam ** -2.0
    if alpha == 0.5:
        if lam * lam * t <= 1.0:
            raise DomainError(
                "sigma_squared_bound: the alpha = 1/2 branch requires lambda^2 t > 1")
        return lam ** -2.0 * (1.0 + m_alpha(0.5) * math.log(lam * lam * t))
    return lam ** (-1.0 / alpha) * (1.0 + m_alpha(alpha))


def _cross_block(big_s, big_h, u_h, npan, alpha):
    """int_0^S E(-(u+H)^alpha) E(-u^alpha) du and its error estimate per
    degree: a head panel [0, u_h] in u = u_h t^4, which smooths the
    u^alpha behaviour at 0, then npan geometric panels from u_h to S."""
    first = np.cumsum(npan) - npan
    owner = np.repeat(np.arange(big_s.size), npan)
    j = np.arange(owner.size) - first[owner]
    ratio = (big_s / u_h)[owner]
    lo = u_h[owner] * ratio ** (j / npan[owner])
    hi = u_h[owner] * ratio ** ((j + 1) / npan[owner])
    hi[first + npan - 1] = big_s

    def kernel(u, shift):
        return ml_neg(alpha, (u + shift) ** alpha) * ml_neg(alpha, u ** alpha)

    def head(y):
        t = 0.5 * (y + 1.0)
        return kernel(u_h[:, None] * t ** 4, big_h[:, None]) * (2.0 * u_h[:, None] * t ** 3)

    q, e, _ = _panels(lambda u: kernel(u, big_h[owner][:, None]), lo, hi)
    ones = np.ones(big_s.size)
    q_head, e_head, _ = _panels(head, -ones, ones)
    return q_head + np.add.reduceat(q, first), e_head + np.add.reduceat(e, first)


def _cross_sigma(ells, s, h, alpha):
    if h == 0.0:
        return sigma_squared(ells, s, alpha)
    out = np.full(ells.shape, s)  # lambda_0 = 0: the integrand is identically 1
    pos = ells > 0.0
    if s > 0.0 and np.any(pos):
        scale, big_s = _scaled(ells[pos], alpha, s)
        big_h = scale * h
        # the head panel also grades the kink of (u + H)^alpha at u = -H
        u_h = 0.01 * np.minimum(np.minimum(big_s, 1.0), big_h)
        npan = np.ceil(_PANELS_PER_DECADE * np.log10(big_s / u_h)).astype(np.int64)
        # blocks of whole degrees, about _CROSS_NODES nodes each
        cuts = np.flatnonzero(np.diff(np.cumsum(20 * (npan + 1)) // _CROSS_NODES)) + 1
        val, err = np.empty_like(big_s), np.empty_like(big_s)
        for b in np.split(np.arange(big_s.size), cuts):
            val[b], err[b] = _cross_block(big_s[b], big_h[b], u_h[b], npan[b], alpha)
        _accuracy_check("cross_sigma", val, err, ells[pos], s=s, h=h, alpha=alpha)
        out[pos] = np.minimum(val / scale, s)
    return out


def cross_sigma(ell, s, h, alpha):
    """Two-time covariance int_0^s E(-lambda (r+h)^a) E(-lambda r^a) dr of the
    stochastic integrals at lags s and s+h; equals sigma_squared at h = 0.

    ell is a degree or an ndarray of degrees, as for sigma_squared."""
    ells = check_degrees("cross_sigma: degree", ell)
    alpha = check_alpha("cross_sigma: alpha", alpha)
    s = check_real("cross_sigma: s", s, strict=False)
    h = check_real("cross_sigma: h", h, strict=False)
    out = _cross_sigma(ells, s, h, alpha)
    return out if isinstance(ell, np.ndarray) else float(out[0])


# --------------------------------------------------------------------------
# the sampler

def _decay_factors(ells, t, alpha):
    """E_alpha(-lambda_l t^alpha) for the ndarray of degrees ells."""
    return ml_neg(alpha, ells * (ells + 1.0) * t ** alpha)


@functools.lru_cache(maxsize=8)
def _layout(L):
    """The packed (l, m) order of np.tril_indices(L + 1): entries per degree,
    the index of each degree's m = 0 entry, and the mask that scatters a
    packed array into the lower triangle of a square one."""
    counts = np.arange(1, L + 2)
    starts = counts * (counts - 1) // 2
    mask = np.tri(L + 1, dtype=bool)
    for a in (counts, starts, mask):
        a.flags.writeable = False
    return counts, starts, mask


def _packed(head, rest, L):
    """A packed array holding head[l] at (l, 0) and rest[l] at (l, m >= 1)."""
    counts, starts, _ = _layout(L)
    out = np.repeat(rest, counts)
    out[starts] = head
    return out


def _covariance_stack(ells, lags, alpha):
    """(n, k, k) covariances of the noise integrals at the increasing lags
    for the n degrees ells: entry (i, j) is cross_sigma at the smaller lag
    and the lag difference, one vector call per entry."""
    k = len(lags)
    cov = np.empty((ells.size, k, k))
    for i in range(k):
        for j in range(i, k):
            lo, hi = lags[i], lags[j]
            cov[:, i, j] = cov[:, j, i] = cross_sigma(ells, lo, hi - lo, alpha)
    return cov


def _joint_covariance(model, ells, times):
    """(n, k, k) covariances Sigma_l(t_i, t_j) of V_{l,0} for the n degrees
    ells at the k increasing times: C_l E_i E_j, E_i =
    E_alpha(-lambda_l t_i^alpha), plus A_l times the noise integrals'
    covariance where both times are past tau.  At one time this is v_l,
    so coefficient_variance is its diagonal.  The noise block is skipped
    when A vanishes on ells."""
    e = np.stack([_decay_factors(ells, t, model.alpha) for t in times], axis=1)
    cov = (model.spec_c.value(ells)[:, None] * e)[:, :, None] * e[:, None, :]
    lags = tuple(t - model.tau for t in times if t > model.tau)
    a = model.spec_a.value(ells)
    if lags and np.any(a):
        first = len(times) - len(lags)
        cov[:, first:, first:] += a[:, None, None] * _covariance_stack(ells, lags, model.alpha)
    return cov


def _cholesky(cov, times):
    """Per degree, the lower-triangular F with F F^T = cov, for an
    (L+1, k, k) stack over the k times, built row by row, so row i depends
    only on the first i + 1 times.

    Before the noise onset the times are exactly correlated (Sigma has
    rank 1 there), and the pivot is roundoff of either sign: a pivot
    within +-_REL_TOL Sigma_ii is set to zero, and so is its column.  One
    below -_REL_TOL Sigma_ii raises AccuracyError."""
    f = np.zeros_like(cov)
    for i in range(cov.shape[1]):
        for j in range(i):
            num = cov[:, i, j] - (f[:, i, :j] * f[:, j, :j]).sum(axis=1)
            f[:, i, j] = np.divide(num, f[:, j, j], out=np.zeros_like(num),
                                   where=f[:, j, j] > 0.0)
        pivot = cov[:, i, i] - (f[:, i, :i] ** 2).sum(axis=1)
        tol = _REL_TOL * cov[:, i, i]
        bad = pivot < -tol
        if np.any(bad):
            ell = int(np.argmax(bad))
            raise AccuracyError(
                f"joint covariance not positive semidefinite at l={ell}, "
                f"times={list(times[:i + 1])} (pivot {pivot[ell]:.2e} of "
                f"variance {cov[ell, i, i]:.2e})")
        f[:, i, i] = np.where(pivot > tol, np.sqrt(np.maximum(pivot, 0.0)), 0.0)
    return f


def _increment_variance(L, lags, alpha):
    """D_l = Var(I(s+h) - I(s)) = c00 + c11 - 2 c01, l = 0..L, from the
    covariance stack at the lags (s, s + h).  A D_l below the kernels'
    error allowance 1e-10 (c00 + c11 + 2 c01) has no accurate digit and
    raises AccuracyError instead of being clamped."""
    cov = _covariance_stack(np.arange(L + 1), lags, alpha)
    c00, c11, c01 = cov[:, 0, 0], cov[:, 1, 1], cov[:, 0, 1]
    d = c00 + c11 - 2.0 * c01
    bad = d < _REL_TOL * (c00 + c11 + 2.0 * c01)
    if np.any(bad):
        ell = int(np.argmax(bad))
        raise AccuracyError(
            f"increment variance: D_l={d[ell]:.2e} has no accurate digit at l={ell}, "
            f"s={lags[0]}, h={lags[1] - lags[0]:.3g}, alpha={alpha}")
    return d


def _increment_law(model, L, t, t_h):
    """v_l = E|V_{l,0}(t_h) - V_{l,0}(t)|^2 = (E(t_h) - E(t))^2 C_l + A_l D_l,
    l = 0..L, for t past tau: the exact per-degree variance of an
    increment.  D_l is skipped when A vanishes on 0..L, so a model without
    noise takes any h > 0."""
    ells = np.arange(L + 1)
    de = _decay_factors(ells, t_h, model.alpha) - _decay_factors(ells, t, model.alpha)
    v = model.spec_c.value(ells) * de * de
    a = model.spec_a.value(ells)
    if np.any(a):
        lags = (t - model.tau, t_h - model.tau)
        v += a * _increment_variance(L, lags, model.alpha)
    return v


@functools.lru_cache(maxsize=4)
def _law(model, L, times, increment):
    """The law of a draw: Sigma_l, the (L+1, k, k) covariance across the
    times (a tuple) or, for an increment, the 1x1 variance of U(t_h) - U(t)
    at times (t, t_h), and the per-degree factors of Sigma_l and of
    Sigma_l / 2.  Its diagonal has the bits of coefficient_variance or
    _increment_law.  Read-only; a few laws are held, so each is evaluated
    once however many draws and chi-square powers read it."""
    if increment:
        cov = _increment_law(model, L, *times)[:, None, None]
    else:
        cov = _joint_covariance(model, np.arange(L + 1), times)
    law = (cov, _cholesky(cov, times), _cholesky(cov / 2.0, times))
    for a in law:
        a.flags.writeable = False
    return law


def _combine(weights, rng, realization, role, n):
    """One component of every output: output i is sum_{j <= i} w[i][j] z_j,
    summed in column order, z_j the packed normals of role + 2j.  A column
    whose weights are None is zero: it draws no normals and adds nothing,
    and an output whose columns are all zero is zeros.  One column's normals are
    held at a time, and its last product, w[j][j] z_j, is taken in their
    memory, so a one-time draw allocates no array beyond its normals and
    weights."""
    out = [None] * len(weights)
    for j in range(len(weights)):
        if weights[j][j] is None:
            continue
        z = rng.normals(realization, 0, role + 2 * j, n)
        for i in range(len(weights) - 1, j - 1, -1):
            w = weights[i][j] * z if i > j else np.multiply(z, weights[j][j], out=z)
            if out[i] is None:
                out[i] = w
            else:
                out[i] += w
    return [np.zeros(n) if o is None else o for o in out]


def _sample(model, L, times, rng, realization, increment):
    """Coefficient sets of one realization from their exact Gaussian law:
    one per increasing time >= 0, or with increment, the one set of
    U(t_h) - U(t) for times (t, t_h).

    The factors of _law are applied to packed normals in
    np.tril_indices(L + 1) order, so the variate of (l, m) is number
    l(l+1)/2 + m of its stream at any L.  Column j draws roles
    ROLE_LAW_RE + 2j and ROLE_LAW_IM + 2j, an increment roles ROLE_INC_RE
    and ROLE_INC_IM.  Time 0 of a joint draw is the one-time law draw,
    and a time has the same bits whatever later times are drawn with it."""
    L = check_degree("degree L", L)
    _, head, rest = _law(model, L, tuple(times), increment)
    # w[i][j], j <= i: column j of the factor of Sigma_l at (l, 0) and of
    # Sigma_l / 2 at (l, m >= 1), so a one-time law gets sqrt(v_l), sqrt(v_l / 2);
    # None for a column that is zero at every degree (its pivots zeroed: a
    # time exactly correlated with the ones before it, or of variance zero)
    live = np.any(head, axis=(0, 1)) | np.any(rest, axis=(0, 1))
    weights = [[_packed(head[:, i, j], rest[:, i, j], L) if live[j] else None
                for j in range(i + 1)] for i in range(head.shape[1])]
    roles = (ROLE_INC_RE, ROLE_INC_IM) if increment else (ROLE_LAW_RE, ROLE_LAW_IM)
    n = (L + 1) * (L + 2) // 2
    re, im = (_combine(weights, rng, realization, role, n) for role in roles)
    starts = _layout(L)[1]
    for im_t in im:
        np.negative(im_t, out=im_t)  # V_{l,m} = sigma (Z1 - i Z2)
        im_t[starts] = 0.0           # V_{l,0} is real
    return [CoefficientSet(L=L, re=re_t, im=im_t) for re_t, im_t in zip(re, im)]


def sample_combined(model, L, t, rng, realization=0):
    """Draw the solution's coefficients at time t from their exact law:
    sqrt(v_l) times one pair of normal arrays (roles ROLE_LAW_RE and
    ROLE_LAW_IM), sqrt(v_l / 2) for Re and Im at m >= 1, with
    v_l = coefficient_variance(l, t)."""
    t = check_real("sample_combined: t", t)
    return _sample(model, L, [t], rng, realization, False)[0]


def sample_combined_times(model, L, times, rng, realization=0):
    """Draw the solution jointly at several increasing times, from the
    exact joint law of its coefficients across the times (the decay of the
    initial field and the noise integrals' cross-covariance), so that
    differences between times have the true increment law.

    Snapshot 0 is sample_combined at times[0], bit for bit, and the first
    i snapshots do not depend on the times after them.  Each time takes
    two roles below 256, so at most 126 times are drawn together."""
    times = check_increasing("sample_combined_times: times", times, check_real)
    if len(times) > _MAX_TIMES:
        raise DomainError(f"sample_combined_times: at most {_MAX_TIMES} times, "
                          f"got {len(times)}")
    return _sample(model, L, times, rng, realization, False)


def sample_combined_pair(model, L, t, h, rng, realization=0):
    """Draw the increment U(t+h) - U(t), t > tau, h > 0, as one
    CoefficientSet, from its own exact law: sqrt(v_l) times
    one pair of normal arrays (roles ROLE_INC_RE and ROLE_INC_IM),
    v_l = (E(t+h) - E(t))^2 C_l + A_l D_l.  The pair (U(t), U(t+h)) itself
    is sample_combined_times at (t, t + h)."""
    t = check_real("sample_combined_pair: t (above tau)", t, model.tau)
    h = check_real("sample_combined_pair: h", h)
    return _sample(model, L, [t, t + h], rng, realization, True)[0]


def chi_square_power(model, L, t, rng, row, n, h=None):
    """The per-degree Parseval power p_l summed over n independent draws of
    U(t) (h None, the law of sample_combined) or of the increment
    U(t+h) - U(t) (that of sample_combined_pair), from its exact law
    v_l chi^2_{n(2l+1)}: one variate per degree, in degree order, from
    stream (row, ROLE_POWER), times v_l read from the samplers' cached law."""
    L = check_degree("degree L", L)
    n = check_degree("chi_square_power: n", n, 1)
    if h is None:
        t = check_real("chi_square_power: t", t)
        times = (t,)
    else:
        t = check_real("chi_square_power: t (above tau)", t, model.tau)
        times = (t, t + check_real("chi_square_power: h", h))
    v = _law(model, L, times, h is not None)[0][:, 0, 0]
    return v * rng.chi_squares(row, ROLE_POWER, n * (2.0 * np.arange(L + 1) + 1.0))


# --------------------------------------------------------------------------
# analytic second moments

def coefficient_variance(model, ell, t):
    """E|V_{l,m}(t)|^2 = C_l E_alpha(-lambda_l t^alpha)^2
    + 1_{t>tau} A_l sigma^2_{l,t-tau,alpha}.

    This is the one-time diagonal of the samplers' joint covariance, so a
    draw's law and this value cannot drift apart.  ell is a degree or an
    ndarray of degrees (then an ndarray comes back); a degree runs through
    the array code as a 1-element array, with no per-scalar cache, so an
    element of an array result has the same bits as the scalar call."""
    ells = check_degrees("coefficient_variance: degree", ell)
    t = check_real("coefficient_variance: t", t)
    v = _joint_covariance(model, ells.ravel(), (t,))[:, 0, 0].reshape(ells.shape)
    return v if isinstance(ell, np.ndarray) else float(v[0])


def covariance_function(model, t, cos_angle, lmax):
    """Truncated covariance series sum_l (2l+1) Var_l(t) P_l(cos angle);
    at cos_angle = 1 this is the pointwise field variance."""
    x = check_unit_interval("covariance_function: cos_angle", cos_angle)
    lmax = check_degree("covariance_function: lmax", lmax)
    var = coefficient_variance(model, np.arange(lmax + 1), t)
    coeffs = (2.0 * np.arange(lmax + 1) + 1.0) * var
    return float(np.polynomial.legendre.legval(x, coeffs))
