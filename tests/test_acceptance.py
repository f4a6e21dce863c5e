"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py -v` to see them live).

Criterion 5 is exercised at desk scale (reference degree 400, 50
realizations).  Two of its sub-cases encode the theoretical truncation-rate
exponents as targets for the *measured* estimator slope, which the estimator
cannot attain (the expected failures are annotated at the tests).
"""

import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from fracsphere import (AlgebraicSpectrum, FractionalModel, GridSpec,
                        RngStream, SphPoint, coefficient_variance,
                        covariance_function, fit_loglog_slope, gamma,
                        holder_envelope, increment_curve, legendre_p, ml_neg,
                        sample_combined, sigma_squared,
                        spherical_harmonic, synthesize,
                        truncation_error_curve)
from fracsphere.stochastic import sigma_squared_bound as s2_bound

from conftest import addition_sum, harmonic_table, unit_points

SPEC_C = AlgebraicSpectrum(1.0, 1.0, 2.3)
SPEC_A = AlgebraicSpectrum(1e4, 1e4, 2.5)
TAU = 1e-5
SEED = 424242


def report(num, name, ok, detail, elapsed, budget):
    # visible in the log because pytest runs with --capture=tee-sys
    line = (f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line, flush=True)
    assert elapsed < budget, f"runtime budget exceeded: {line}"
    assert ok, line


def test_criterion_1_addition_theorem():
    t0 = time.perf_counter()
    pts = unit_points(400, seed=1001)
    worst = 0.0
    for i in range(0, 400, 2):
        x, y = pts[i], pts[i + 1]
        tx = harmonic_table(SphPoint.from_vector(x), 60)
        ty = harmonic_table(SphPoint.from_vector(y), 60)
        dot = float(x @ y)
        for ell in range(61):
            lhs = addition_sum(tx, ty, ell)
            rhs = (2 * ell + 1) * legendre_p(ell, dot)
            worst = max(worst, abs(lhs - rhs) / (2 * ell + 1))
    # tie the tables to the scalar evaluator on a subsample
    p = SphPoint.from_vector(pts[0])
    tab = harmonic_table(p, 60)
    for ell, m in ((60, 0), (60, 33), (17, 17)):
        assert spherical_harmonic(ell, m, p) == pytest.approx(tab[ell, m], abs=1e-12)
    report(1, "addition theorem", worst <= 1e-9,
           f"max |sum - (2l+1)P_l| / (2l+1) = {worst:.2e} over 200 pairs, l <= 60",
           time.perf_counter() - t0, 5.0)


def test_criterion_2_mittag_leffler():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 50.0, 201)
    dev1 = max(abs(ml_neg(1.0, float(x)) - math.exp(-x)) / math.exp(-x) for x in xs)
    with mp.workdps(30):
        devh = 0.0
        for x in np.linspace(0.0, 30.0, 121):
            ref = float(mp.e ** (mp.mpf(float(x)) ** 2) * mp.erfc(mp.mpf(float(x))))
            devh = max(devh, abs(ml_neg(0.5, float(x)) - ref) / ref)
    ok = dev1 <= 1e-12 and devh <= 1e-9
    for alpha in (0.5, 0.75, 1.0):
        hi = math.log10(700.0) if alpha == 1.0 else 6.0
        grid = np.logspace(-4, hi, 200)
        vals = np.array([ml_neg(alpha, float(x)) for x in grid])
        ok = ok and np.all(np.diff(vals) <= 1e-15)
        simon = 1.0 / (1.0 + grid / gamma(1.0 + alpha))
        ok = ok and np.all(vals <= simon + 1e-10)
    report(2, "Mittag-Leffler", bool(ok),
           f"exp-identity dev {dev1:.2e}, erfc-identity dev {devh:.2e}, "
           "monotone + Simon bound on log grids",
           time.perf_counter() - t0, 10.0)


def test_criterion_3_sigma_squared():
    t0 = time.perf_counter()
    worst = 0.0
    for ell in range(1, 101):
        lam = ell * (ell + 1.0)
        for t in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0):
            ref = -math.expm1(-2.0 * lam * t) / (2.0 * lam)
            worst = max(worst, abs(sigma_squared(ell, t, 1.0) - ref) / ref)
    ok = worst <= 1e-9
    # sigma^2 <= t everywhere, and <= the closed-form bound in its regimes
    bound_ok = True
    for alpha in (0.5, 0.75, 1.0):
        for ell in (1, 5, 20, 80):
            lam = ell * (ell + 1.0)
            for t in np.logspace(-5, 1, 7):
                v = sigma_squared(ell, float(t), alpha)
                ok = ok and v <= t * (1 + 1e-12)
                if alpha == 0.5 and lam * lam * t <= 1.0:
                    continue
                bound_ok = bound_ok and v <= s2_bound(ell, float(t), alpha) * (1 + 1e-10)
    report(3, "sigma^2 quadrature", bool(ok and bound_ok),
           f"max closed-form dev {worst:.2e} (l <= 100), sigma^2 <= t, "
           f"three-regime bound holds: {bound_ok}",
           time.perf_counter() - t0, 30.0)


def test_criterion_4_coefficient_law():
    t0 = time.perf_counter()
    n = 10_000
    targets = [(0, 0), (5, 0), (5, 3), (50, 17)]
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        model = FractionalModel(alpha, TAU, SPEC_C, SPEC_A)
        for t in (TAU / 2, 10 * TAU):
            rng = RngStream(SEED)
            rows = {ell: np.empty((n, ell + 1), dtype=complex) for ell in (0, 5, 50)}
            for j in range(n):
                drawn = sample_combined(model, 50, t, rng, realization=j).values
                for ell in rows:
                    rows[ell][j] = drawn[ell, : ell + 1]
            for ell, m in targets:
                v = coefficient_variance(model, ell, t)
                mc = float(np.mean(np.abs(rows[ell][:, m]) ** 2))
                se = v * math.sqrt((2.0 if m == 0 else 1.0) / n)
                worst = max(worst, abs(mc - v) / se)
    report(4, "coefficient law", worst <= 5.0,
           f"max |MC - analytic| = {worst:.2f} standard errors "
           "(4 modes x 3 orders x 2 times, N=10^4)",
           time.perf_counter() - t0, 120.0)


# --------------------------------------------------------------------------
# criterion 5: truncation slopes at desk scale

L_GRID = [50, 75, 100, 150, 200, 250, 300]
L_TILDE = 400
N_REAL = 50


def _trunc_slope(alpha, t):
    model = FractionalModel(alpha, TAU, SPEC_C, SPEC_A)
    curve = truncation_error_curve(model, L_TILDE, L_GRID, t, N_REAL, SEED)
    return fit_loglog_slope(curve, window=(50, 300)), curve


def test_criterion_5_truncation_slope_case_I():
    # NOTE: expected to fail.  The exact expected slope of the estimator
    # over [50, 300] is -0.657 at l_tilde = 400 (what the fit measures),
    # -0.439 at 2000 and -0.438 from 1e5 to 1e6: no reference degree
    # reaches -0.15, because E_{1/2}(-lambda_l t^{1/2}) decays past
    # l ~ t^(-1/4) = 1000 and steepens the tail even at l_tilde = infinity.
    # The -0.15 comes from a bound that takes E_alpha <= 1.
    t0 = time.perf_counter()
    fit, _ = _trunc_slope(0.5, 1e-12)
    target = -0.15
    ok = abs(fit.slope - target) <= 0.15
    report("5a", "truncation slope, early-time case", ok,
           f"fitted slope {fit.slope:.3f} vs theoretical {target} (tol 0.15)",
           time.perf_counter() - t0, 600.0)


def test_criterion_5_truncation_slope_case_III_alpha_half():
    # NOTE: expected to fail.  At the critical order 1/2 the late-time bound
    # exponent kappa2/2 = 1.25 comes from bounding the kernel variance's
    # log factor by a power, which costs a factor L^2.  The exact expected
    # slope of the estimator over [50, 300] is -2.145 at l_tilde = 400 (what
    # the fit measures) and -2.071 at l_tilde = infinity, far outside the
    # 0.15 tolerance.
    t0 = time.perf_counter()
    fit, curve = _trunc_slope(0.5, 10 * TAU)
    target = -1.25
    ok = abs(fit.slope - target) <= 0.15
    report("5b", "truncation slope, late time, order 1/2", ok,
           f"fitted slope {fit.slope:.3f} vs theoretical {target} (tol 0.15)",
           time.perf_counter() - t0, 600.0)


def test_criterion_5_truncation_slope_case_III_alpha_075():
    t0 = time.perf_counter()
    fit, _ = _trunc_slope(0.75, 10 * TAU)
    target = -(2.5 + 2.0 / 0.75 - 2.0) / 2.0  # -1.583...
    ok = abs(fit.slope - target) <= 0.15
    report("5c", "truncation slope, late time, order 3/4", ok,
           f"fitted slope {fit.slope:.3f} vs theoretical {target:.3f} (tol 0.15)",
           time.perf_counter() - t0, 600.0)


def test_criterion_6_increment_scaling():
    t0 = time.perf_counter()
    delta = 1e-6
    t = TAU + delta
    model = FractionalModel(0.5, TAU, SPEC_C, SPEC_A)
    hs = [k * delta for k in range(1, 12)]
    curve = increment_curve(model, 400, t, hs, N_REAL, SEED)
    fit = fit_loglog_slope(curve)
    dominated = all(emp <= bound for _, emp, bound, _ in curve.rows)
    ok = 0.4 <= fit.slope <= 0.6 and dominated
    report(6, "increment scaling", bool(ok),
           f"fitted slope {fit.slope:.3f} in [0.4, 0.6], measured-constant "
           f"envelope dominates all rows: {dominated}",
           time.perf_counter() - t0, 300.0)


def test_criterion_7_holder_envelope():
    t0 = time.perf_counter()
    beta_star = 0.1
    lmax = 800
    ok = True
    worst_margin = math.inf
    for t in (TAU / 2, 10 * TAU):
        model = FractionalModel(0.5, TAU, SPEC_C, SPEC_A)
        k = holder_envelope(beta_star, t, TAU, SPEC_C, SPEC_A)
        c1 = covariance_function(model, t, 1.0, lmax)
        for theta in np.logspace(-3, math.log10(math.pi), 13):
            var = 2.0 * (c1 - covariance_function(model, t, math.cos(theta), lmax))
            env = k * theta ** (2 * beta_star)
            ok = ok and var <= env * (1 + 1e-9)
            worst_margin = min(worst_margin, env / max(var, 1e-300))
    report(7, "spatial variance envelope", bool(ok),
           f"series variance under the envelope for theta in [1e-3, pi], "
           f"min envelope/variance = {worst_margin:.2f}",
           time.perf_counter() - t0, 60.0)


def test_criterion_8_synthesis_oracle():
    t0 = time.perf_counter()
    L = 64
    rng = np.random.default_rng(2)
    from fracsphere import CoefficientSet

    values = np.zeros((L + 1, L + 1), dtype=complex)
    for ell in range(L + 1):
        values[ell, 0] = rng.normal()
        values[ell, 1: ell + 1] = rng.normal(size=ell) + 1j * rng.normal(size=ell)
    coeffs = CoefficientSet.from_square(values)
    grid = GridSpec(16, 32)  # 512 points
    fmap = synthesize(coeffs, grid)
    scale = float(np.max(np.abs(fmap.values)))
    thetas, phis = grid.colatitudes(), grid.longitudes()
    worst = 0.0
    for j in range(16):
        tab = harmonic_table(SphPoint(float(thetas[j]), 0.0), L)
        radial = tab.real  # phi = 0 table: N_{l,m} values
        for k in range(32):
            phase = np.exp(1j * np.arange(L + 1) * phis[k])
            ref = 0.0
            for ell in range(L + 1):
                terms = values[ell, 1: ell + 1] * radial[ell, 1: ell + 1] \
                    * phase[1: ell + 1]
                ref += float(values[ell, 0].real * radial[ell, 0]
                             + 2.0 * terms.real.sum())
            worst = max(worst, abs(fmap.values[j, k] - ref) / scale)
    gauss = GridSpec(L + 1, 2 * L + 1, gauss=True)
    gmap = synthesize(coeffs, gauss)
    quad_power = float(gauss.quadrature_weights() @ (gmap.values ** 2).mean(axis=1))
    parseval = float(coeffs.degree_power().sum())
    pdev = abs(quad_power - parseval) / parseval
    ok = worst <= 1e-9 and pdev <= 1e-8
    report(8, "synthesis oracle", bool(ok),
           f"fast-vs-pointwise dev {worst:.2e} (512 points), "
           f"Parseval dev {pdev:.2e} on the Gauss grid",
           time.perf_counter() - t0, 60.0)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()

    def run_selftest(tag):
        out = tmp_path / tag
        res = subprocess.run(
            [sys.executable, "-m", "fracsphere", "selftest", "--seed", "777",
             "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        assert "PASS map-csv-format" in res.stdout
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    a = run_selftest("a")
    b = run_selftest("b")
    ok = a and a == b
    report(9, "determinism", bool(ok),
           f"{len(a)} CSV artifacts byte-identical across repeat runs",
           time.perf_counter() - t0, 600.0)
