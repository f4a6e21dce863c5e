"""The algebraic angular power spectrum and the closed-form constants of the
truncation / temporal-increment error bounds.

All bounds below are for the two-stage model
    dU - D_t^{1-alpha} Laplacian U dt = { 0 on (0,tau], dW_tau on [tau,inf) },
with an algebraically decaying initial spectrum C_l (decay kappa1) and
noise spectrum A_l (decay kappa2); lambda_l = l(l+1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, check_alpha, check_degree, check_degrees,
                     check_real)
from .specfun import gamma, ml_neg

__all__ = [
    "AlgebraicSpectrum",
    "tail_constant",
    "m_alpha",
    "gamma_alpha_kappa",
    "psi_h",
    "psi_i",
    "bound_qh",
    "bound_qi",
    "bound_q_combined",
    "combined_case",
    "increment_bound",
    "holder_envelope",
    "measured_increment_c",
]


@dataclass(frozen=True)
class AlgebraicSpectrum:
    """Power spectrum: `head` at l = 0, `coeff` * l^-kappa for l >= 1.

    kappa > 2 guarantees sum (2l+1) X_l < infinity.
    """

    head: float
    coeff: float
    kappa: float

    def __post_init__(self):
        for name, least, strict in (("head", 0.0, False), ("coeff", 0.0, False),
                                    ("kappa", 2.0, True)):
            value = check_real(f"AlgebraicSpectrum: {name}", getattr(self, name),
                               least, strict)
            object.__setattr__(self, name, value)

    def value(self, ell):
        """X_l for a degree, or an ndarray of them for an ndarray of degrees.
        A scalar runs through the array code, so both give the same bits."""
        ells = check_degrees("spectrum value: degree", ell)
        out = np.full(ells.shape, self.head)
        nz = ells != 0.0
        out[nz] = self.coeff * ells[nz] ** (-self.kappa)
        return out if isinstance(ell, np.ndarray) else float(out[0])


def tail_constant(spectrum):
    """sqrt(coeff * (2/(kappa-2) + 1/(kappa-1))): constant dominating the
    spectrum tail, sum_{l>L} (2l+1) X_l <= tail_constant^2 * L^(2-kappa)."""
    k = spectrum.kappa
    return math.sqrt(spectrum.coeff * (2.0 / (k - 2.0) + 1.0 / (k - 1.0)))


def m_alpha(alpha):
    """Gamma(1+alpha)^2 / |2 alpha - 1| away from alpha = 1/2, and
    Gamma(3/2)^2 there."""
    alpha = check_alpha("m_alpha: alpha", alpha)
    if alpha == 0.5:
        return gamma(1.5) ** 2
    return gamma(1.0 + alpha) ** 2 / abs(2.0 * alpha - 1.0)


def gamma_alpha_kappa(alpha, kappa2):
    """Decay exponent of the inhomogeneous truncation bound for
    t well past the knee: kappa2+2 (alpha < 1/2), kappa2 + 2/alpha - 2
    (alpha > 1/2), kappa2 (alpha = 1/2)."""
    alpha = check_alpha("gamma_alpha_kappa: alpha", alpha)
    kappa2 = check_real("gamma_alpha_kappa: kappa2", kappa2, 2.0)
    if alpha < 0.5:
        return kappa2 + 2.0
    if alpha == 0.5:
        return kappa2
    return kappa2 + 2.0 / alpha - 2.0


def psi_h(alpha, t):
    """Gamma(1+alpha) * t^-alpha, the time factor of the homogeneous bound."""
    alpha = check_alpha("psi_h: alpha", alpha)
    t = check_real("psi_h: t", t)
    return gamma(1.0 + alpha) * t ** (-alpha)


def _k_half(t):
    m = m_alpha(0.5)
    if t > 1.0:
        return math.sqrt(1.0 + m * (2.0 + math.log(t)))
    return math.sqrt(1.0 + 2.0 * m)


def psi_i(alpha, t):
    """Time factor of the inhomogeneous bound; logarithmic K(t) at the
    critical order alpha = 1/2."""
    alpha = check_alpha("psi_i: alpha", alpha)
    t = check_real("psi_i: t", t)
    if alpha < 0.5:
        return math.sqrt(1.0 + m_alpha(alpha) * t ** (1.0 - 2.0 * alpha))
    if alpha == 0.5:
        return _k_half(t)
    return math.sqrt(1.0 + m_alpha(alpha))


def bound_qh(L, t, alpha, spec_c):
    """Upper bound for the homogeneous truncation error Q^H_L(t).

    Points exactly on the regime boundary go to the earlier regime.
    """
    L = check_degree("bound_qh: L", L, 1)
    alpha = check_alpha("bound_qh: alpha", alpha)
    t = check_real("bound_qh: t", t)
    knee = (L * (L + 1.0)) ** (-1.0 / alpha)
    ct = tail_constant(spec_c)
    if t <= knee:
        return ct * L ** (-(spec_c.kappa - 2.0) / 2.0)
    return psi_h(alpha, t) * ct * L ** (-(2.0 + spec_c.kappa) / 2.0)


def bound_qi(L, t, tau, alpha, spec_a):
    """Upper bound for the inhomogeneous truncation error Q^I_L(t), t > tau."""
    L = check_degree("bound_qi: L", L, 1)
    alpha = check_alpha("bound_qi: alpha", alpha)
    tau = check_real("bound_qi: tau", tau)
    t = check_real("bound_qi: t (above tau)", t, tau)
    knee = (L * (L + 1.0)) ** (-1.0 / alpha)
    at = tail_constant(spec_a)
    if t <= tau + knee:
        return at * L ** (-(spec_a.kappa + 2.0 / alpha - 2.0) / 2.0)
    return psi_i(alpha, t - tau) * at * L ** (-gamma_alpha_kappa(alpha, spec_a.kappa) / 2.0)


def combined_case(L, t, tau, alpha):
    """Which case of the combined truncation bound applies at (L, t):
    1, 2 or 3.  Raises DomainError naming the violated condition when no
    case applies (t at or below the knee but tau below it too)."""
    L = check_degree("combined bound: L", L, 1)
    alpha = check_alpha("combined bound: alpha", alpha)
    t = check_real("combined bound: t", t)
    tau = check_real("combined bound: tau", tau)
    knee = (L * (L + 1.0)) ** (-1.0 / alpha)
    if t <= knee:
        if tau >= knee:
            return 1
        raise DomainError(
            f"combined bound: case I requires tau >= lambda_L^(-1/alpha) "
            f"(= {knee:.3e}), got tau = {tau:.3e} at L = {L}")
    if t <= tau + knee:
        return 2
    return 3


def bound_q_combined(L, t, tau, alpha, spec_c, spec_a):
    """Upper bound for the combined truncation error Q_L(t).

    Case I (early time): tail of the initial spectrum only.
    Case II (between the knees): mixed constant, exponent
        min(kappa1+2, kappa2+2/alpha-2).
    Case III (late time): exponent min(kappa1+2, gamma_alpha(kappa2)).
    """
    case = combined_case(L, t, tau, alpha)
    ct = tail_constant(spec_c)
    at = tail_constant(spec_a)
    k1, k2 = spec_c.kappa, spec_a.kappa
    if case == 1:
        return ct * L ** (-(k1 - 2.0) / 2.0)
    if case == 2:
        khat = min(k1 + 2.0, k2 + 2.0 / alpha - 2.0)
        return math.hypot(psi_h(alpha, t) * ct, at) * L ** (-khat / 2.0)
    kal = min(k1 + 2.0, gamma_alpha_kappa(alpha, k2))
    return math.hypot(psi_h(alpha, t) * ct,
                      psi_i(alpha, t - tau) * at) * L ** (-kal / 2.0)


def measured_increment_c(alpha):
    """The generic constant C of the increment bound, measured once per
    alpha as max over a log grid x in [1e-6, 1e8] of (1+x) E_{alpha,alpha}(-x)."""
    return _measured_c(check_alpha("measured_increment_c: alpha", alpha))


@functools.cache
def _measured_c(alpha):
    xs = np.logspace(-6.0, 8.0, 200)
    vals = (1.0 + xs) * ml_neg(alpha, xs, beta=alpha)
    # include the x -> 0 limit E_{a,a}(0) = 1/Gamma(a)
    return max(float(np.max(vals)), 1.0 / gamma(alpha))


def increment_bound(t, h, tau, alpha, spec_c, spec_a, c):
    """q(t) * sqrt(h) with q(t) = sqrt(c*Ctail^2/t + (1+c)*Atail^2)."""
    check_alpha("increment_bound: alpha", alpha)
    tau = check_real("increment_bound: tau", tau)
    t = check_real("increment_bound: t (above tau)", t, tau)
    h = check_real("increment_bound: h", h)
    c = check_real("increment_bound: c", c)
    ct2 = tail_constant(spec_c) ** 2
    at2 = tail_constant(spec_a) ** 2
    q = math.sqrt(c * ct2 / t + (1.0 + c) * at2)
    return q * math.sqrt(h)


def _weighted_tail_sum(spectrum, expo, lmax):
    """sum_{l=1..lmax} l^expo * X_l plus an integral bound on the remainder."""
    ells = np.arange(1, lmax + 1, dtype=float)
    s = float(np.sum(ells ** expo * spectrum.coeff * ells ** (-spectrum.kappa)))
    decay = spectrum.kappa - expo  # > 1 under the envelope assumption
    s += spectrum.coeff * lmax ** (1.0 - decay) / (decay - 1.0)
    return s


def holder_envelope(beta_star, t, tau, spec_c, spec_a, lmax=100_000):
    """Constant K of the spatial variance envelope
    Var[U(x,t) - U(y,t)] <= K * d(x,y)^(2 beta*).

    K = 2^(4-beta*) * (K1 + (t-tau) * K2 * 1_{t>tau}) with
    Kj = sum_l l^(1+2 beta*) X_l, summed to lmax with the integral remainder
    added (so the reported value is an upper bound, monotone in lmax).
    Requires kappa1, kappa2 > 2(1 + beta*).
    """
    beta_star = check_alpha("holder_envelope: beta*", beta_star)
    need = 2.0 * (1.0 + beta_star)
    if spec_c.kappa <= need or spec_a.kappa <= need:
        raise DomainError(
            f"holder_envelope: requires kappa1, kappa2 > {need}, got "
            f"{spec_c.kappa}, {spec_a.kappa}")
    tau = check_real("holder_envelope: tau", tau)
    t = check_real("holder_envelope: t", t)
    expo = 1.0 + 2.0 * beta_star
    k1 = _weighted_tail_sum(spec_c, expo, int(lmax))
    out = k1
    if t > tau:
        out = out + (t - tau) * _weighted_tail_sum(spec_a, expo, int(lmax))
    return 2.0 ** (4.0 - beta_star) * out

