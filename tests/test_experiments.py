import json
import math

import numpy as np
import pytest

from fracsphere import (AlgebraicSpectrum, DomainError, ErrorCurve,
                        FractionalModel, GridSpec, RngStream,
                        coefficient_variance, evolution_snapshots,
                        fit_loglog_slope, increment_curve, ml_neg,
                        sample_combined, sample_combined_times,
                        truncation_error_curve)
from fracsphere import stochastic
from fracsphere.stochastic import sigma_squared, cross_sigma


@pytest.fixture(scope="module")
def small_model():
    return FractionalModel(0.5, 1e-5, AlgebraicSpectrum(1.0, 1.0, 2.3),
                           AlgebraicSpectrum(1e4, 1e4, 2.5))


# --------------------------------------------------------------------------
# slope fitting

def test_slope_exact_power_law():
    rows = [(float(x), x ** -1.25, 0.0, 0) for x in (2, 4, 8, 16, 32)]
    fit = fit_loglog_slope(ErrorCurve(rows))
    assert fit.slope == pytest.approx(-1.25, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_constant_rows():
    rows = [(float(x), 3.7, 0.0, 0) for x in (1, 2, 3, 4)]
    fit = fit_loglog_slope(ErrorCurve(rows))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_slope_noisy_power_law():
    rng = np.random.default_rng(123)
    xs = np.geomspace(1.0, 100.0, 25)
    ys = 2.0 * xs ** -0.8 * np.exp(rng.normal(scale=0.02, size=xs.size))
    rows = [(float(x), float(y), 0.0, 0) for x, y in zip(xs, ys)]
    fit = fit_loglog_slope(ErrorCurve(rows))
    assert fit.slope == pytest.approx(-0.8, abs=0.05)


def test_slope_window_and_flags():
    rows = [(1.0, 1.0, 0.0, 1), (2.0, 0.5, 1.0, 0), (4.0, 0.25, 1.0, 0),
            (8.0, 0.125, 1.0, 0), (16.0, 0.0, 1.0, 0)]
    fit = fit_loglog_slope(ErrorCurve(rows))
    # flagged row and the zero row are excluded
    assert fit.window == (2.0, 8.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DomainError):
        fit_loglog_slope(ErrorCurve(rows[:2]))


def test_error_curve_validation(tmp_path):
    for rows in ([(2.0, 1.0, 1.0, 0), (1.0, 1.0, 1.0, 0)],
                 [(1.0, -1.0, 1.0, 0)],
                 # a repeated abscissa used to pass, and the slope fit then
                 # reported slope -1 with r2 1 through two distinct points
                 [(4.0, 1.0, 1.0, 0), (4.0, 1.0, 1.0, 0), (8.0, 0.5, 1.0, 0)],
                 [(1.0, math.nan, 1.0, 0)],
                 [(math.nan, 1.0, 1.0, 0), (1.0, 1.0, 1.0, 0)],
                 [(1.0, 1.0, math.inf, 0)],
                 [(-1.0, 1.0, 1.0, 0)]):
        with pytest.raises(DomainError):
            ErrorCurve(rows)
    ErrorCurve([(0.0, 1.0, 0.0, 1), (1.0, 0.0, 2.0, 0)])  # degree 0, flagged
    curve = ErrorCurve([(1.0, 1.0, 2.0, 0)], meta={"seed": 5})
    p = tmp_path / "c.csv"
    curve.write_csv(p)
    assert p.read_text().splitlines()[0] == "x,empirical,bound,flag"


# --------------------------------------------------------------------------
# truncation curves

def test_truncation_zero_spectra():
    zero = AlgebraicSpectrum(0.0, 0.0, 2.5)
    m = FractionalModel(0.5, 1e-5, zero, zero)
    curve = truncation_error_curve(m, 32, [4, 8, 16], 1e-4, 3, seed=1)
    assert all(r[1] == 0.0 for r in curve.rows)


def test_truncation_shared_draw_monotone(small_model):
    curve = truncation_error_curve(small_model, 64, [4, 8, 16, 32, 48], 1e-4,
                                   4, seed=7)
    emps = [r[1] for r in curve.rows]
    assert all(b <= a for a, b in zip(emps, emps[1:]))


def test_truncation_matches_direct_estimator(small_model):
    """The curve equals the estimator built directly: realization 0 from the
    sampler, plus v_l chi^2_{4(2l+1)} for the other four realizations, drawn
    from Philox key (seed, row << 8 | role) with row 0 and role 0."""
    curve = truncation_error_curve(small_model, 24, [6, 12], 1e-4, 5, seed=3)
    c = sample_combined(small_model, 24, 1e-4, RngStream(3), realization=0)
    v = coefficient_variance(small_model, np.arange(25), 1e-4)
    gen = np.random.Generator(np.random.Philox(key=np.array([3, 0 << 8 | 0],
                                                            dtype=np.uint64)))
    p = c.degree_power() + v * gen.chisquare(4 * (2.0 * np.arange(25) + 1.0))
    for L, emp, bound, flag in curve.rows:
        assert emp == pytest.approx(math.sqrt(p[int(L) + 1:].sum() / 5), rel=1e-12)
    # L = 12 is past both knees at t = 1e-4 (case III, valid bound); L = 6
    # sits below the early-time knee with tau below it too, hence flagged
    flags = {int(r[0]): r[3] for r in curve.rows}
    assert flags[6] == 1 and flags[12] == 0
    assert {r[2] > 0.0 for r in curve.rows if not r[3]} == {True}


def test_truncation_expectation_analytic(small_model):
    """mean_j tail power is an unbiased estimate of
    sum_{l>L} (2l+1) Var_l; with 40 realizations it lands within 5 SE."""
    t = 10 * small_model.tau
    curve = truncation_error_curve(small_model, 48, [12], t, 40, seed=11)
    var = np.array([coefficient_variance(small_model, ell, t) for ell in range(49)])
    weights = 2.0 * np.arange(49) + 1.0
    mean_sq = float((weights * var)[13:].sum())
    # per-realization variance of the tail sum: 2 sum (2l+1) Var_l^2
    sd = math.sqrt(2.0 * float(((weights * var ** 2)[13:]).sum()) / 40)
    assert abs(curve.rows[0][1] ** 2 - mean_sq) <= 5.0 * sd


def test_truncation_determinism(small_model, tmp_path):
    kw = dict(l_tilde=40, l_grid=[8, 16, 32], t=1e-4, n_real=6, seed=99)
    a = truncation_error_curve(small_model, **kw)
    b = truncation_error_curve(small_model, **kw)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_truncation_flags_case_condition(small_model):
    # at t = 1e-12, case I needs tau >= lambda_L^(-2), i.e. lambda_L >= 316
    # (L >= 18); smaller L get flagged rather than failing the run
    curve = truncation_error_curve(small_model, 24, [2, 4, 18], 1e-12, 2, seed=2)
    flags = {int(r[0]): r[3] for r in curve.rows}
    assert flags[2] == 1 and flags[4] == 1 and flags[18] == 0


def test_truncation_input_validation(small_model):
    with pytest.raises(DomainError):
        truncation_error_curve(small_model, 16, [4, 2], 1e-4, 3, 1)
    with pytest.raises(DomainError):
        truncation_error_curve(small_model, 16, [4, 16], 1e-4, 3, 1)
    with pytest.raises(DomainError):
        truncation_error_curve(small_model, 16, [4], 1e-4, 1, 1)


@pytest.mark.parametrize("n_real", [2.5, math.nan, "4"])
def test_curves_refuse_fractional_n_real(small_model, n_real):
    # 2.5 used to draw 2 realizations and divide by 2.5
    with pytest.raises(DomainError):
        truncation_error_curve(small_model, 16, [4, 8], 1e-4, n_real, 1)
    with pytest.raises(DomainError):
        increment_curve(small_model, 8, 2e-5, [1e-6, 2e-6], n_real, 1)


def test_curves_accept_integral_float_n_real(small_model):
    a = truncation_error_curve(small_model, 16, [4, 8], 1e-4, 3.0, 1)
    b = truncation_error_curve(small_model, 16, [4, 8], 1e-4, 3, 1)
    assert a.rows == b.rows


def test_truncation_ml_neg_calls_independent_of_n_real(monkeypatch):
    # the one-time law is evaluated once per (model, L, t), not per draw;
    # its cache is cleared so that each curve evaluates it once
    m = FractionalModel(0.75, 1e-5, AlgebraicSpectrum(1.0, 1.0, 2.3),
                        AlgebraicSpectrum(1e4, 1e4, 2.5))
    kw = dict(l_tilde=60, l_grid=[10, 20], t=1e-4, seed=4)
    truncation_error_curve(m, n_real=2, **kw)  # grow the per-alpha sigma^2 table
    calls, real = [], stochastic.ml_neg
    monkeypatch.setattr(stochastic, "ml_neg",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    counts = []
    for n_real in (2, 6):
        stochastic._law.cache_clear()
        calls.clear()
        truncation_error_curve(m, n_real=n_real, **kw)
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


# --------------------------------------------------------------------------
# increment curves

def test_increment_zero_spectra():
    zero = AlgebraicSpectrum(0.0, 0.0, 2.5)
    m = FractionalModel(0.5, 1e-5, zero, zero)
    curve = increment_curve(m, 8, 2e-5, [1e-6, 2e-6], 3, seed=1)
    assert all(r[1] == 0.0 for r in curve.rows)


def test_increment_sqrt_scaling(small_model):
    t = small_model.tau + 1e-6
    curve = increment_curve(small_model, 48, t, [1e-6, 4e-6], 40, seed=21)
    ratio = curve.rows[1][1] / curve.rows[0][1]
    assert ratio == pytest.approx(2.0, rel=0.15)  # sqrt(h) law within MC noise


def test_increment_curve_builds_each_covariance_stack_once(small_model, monkeypatch):
    built, real = [], stochastic._covariance_stack
    monkeypatch.setattr(stochastic, "_covariance_stack",
                        lambda ells, lags, alpha: built.append(lags) or real(ells, lags, alpha))
    stochastic._law.cache_clear()
    hs = [1e-6, 2e-6, 3e-6]
    increment_curve(small_model, 12, 2e-5, hs, 4, seed=3)
    stochastic._law.cache_clear()
    s = 2e-5 - small_model.tau
    assert sorted(built) == sorted((s, 2e-5 + h - small_model.tau) for h in hs)


def test_increment_expectation_alpha1():
    """Empirical J^2 agrees with the analytic mode sum at alpha = 1."""
    m = FractionalModel(1.0, 1e-5, AlgebraicSpectrum(1.0, 1.0, 2.3),
                        AlgebraicSpectrum(1e4, 1e4, 2.5))
    t, h, L = 2e-5, 1e-5, 12
    curve = increment_curve(m, L, t, [h], 40, seed=5)
    s = t - m.tau
    total = 0.0
    for ell in range(L + 1):
        lam = ell * (ell + 1.0)
        de = math.exp(-lam * (t + h)) - math.exp(-lam * t)
        s1 = sigma_squared(ell, s, 1.0)
        s2 = sigma_squared(ell, s + h, 1.0)
        cr = cross_sigma(ell, s, h, 1.0)
        total += (2 * ell + 1) * (m.spec_c.value(ell) * de ** 2
                                  + m.spec_a.value(ell) * (s1 + s2 - 2 * cr))
    assert curve.rows[0][1] ** 2 == pytest.approx(total, rel=0.2)


def test_increment_bound_column(small_model):
    t = small_model.tau + 1e-6
    curve = increment_curve(small_model, 32, t, [1e-6, 2e-6, 3e-6], 8, seed=4)
    for h, emp, bound, flag in curve.rows:
        assert flag == 0
        assert emp <= bound  # measured-constant envelope dominates
    assert curve.meta["increment_c"] > 0.0


def test_chi_square_keys_never_field_keys(small_model, monkeypatch):
    # every Philox key a curve's chi-square powers open differs from every
    # key a coefficient draw opens, for the rows and realizations used here
    opened, chi, philox, chi_squares = [], [], np.random.Philox, RngStream.chi_squares

    def opening(key):
        opened.append(tuple(int(k) for k in key))
        return philox(key=key)

    def recorded(self, *args):
        before = len(opened)
        out = chi_squares(self, *args)
        chi.extend(range(before, len(opened)))
        return out

    monkeypatch.setattr(np.random, "Philox", opening)
    monkeypatch.setattr(RngStream, "chi_squares", recorded)
    truncation_error_curve(small_model, 16, [4, 8], 1e-4, 3, seed=5)
    increment_curve(small_model, 8, 2e-5, [1e-6 * k for k in range(1, 8)], 3, seed=5)
    for j in range(8):
        sample_combined_times(small_model, 4, [5e-6, 2e-5, 4e-5], RngStream(5),
                              realization=j)
    chi_keys = {opened[i] for i in chi}
    field_keys = {k for i, k in enumerate(opened) if i not in chi}
    assert len(chi) == 1 + 7 and len(opened) == len(chi) + 2 + 7 * 2 + 8 * 6
    assert {k[1] & 0xFF for k in chi_keys} == {0}
    assert not chi_keys & field_keys


# --------------------------------------------------------------------------
# snapshots

def test_snapshots_shared_draw(small_model, tmp_path):
    grid = GridSpec(9, 16)
    times = [5e-6, 1e-4]
    maps = evolution_snapshots(small_model, 16, times, grid, seed=8,
                               out_dir=str(tmp_path))
    assert len(maps) == 2
    for t in times:
        assert (tmp_path / f"map_t{t:g}.ppm").exists()
        assert (tmp_path / f"map_t{t:g}.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 8 and manifest["L"] == 16
    assert manifest["tool"] == "fracsphere"
    assert manifest["rng_scheme"] == 7


def test_snapshots_one_legendre_pass(small_model, tmp_path, record_calls):
    # every time's map comes from one shared Legendre recurrence
    from fracsphere import synthesis

    calls = record_calls(synthesis, "_norm_assoc_rows")
    maps = evolution_snapshots(small_model, 12, [5e-6, 2e-5, 1e-4], GridSpec(7, 16),
                               seed=2, out_dir=str(tmp_path))
    assert len(maps) == 3 and calls == ["_norm_assoc_rows"]


def test_snapshots_refuse_decreasing_times_before_drawing(small_model, tmp_path,
                                                          record_calls):
    # the error used to name sample_combined_times, a function the caller
    # never called, and came after the output checks
    from fracsphere import experiments

    calls = record_calls(experiments, "sample_combined_times")
    out = tmp_path / "maps"
    with pytest.raises(DomainError, match="evolution_snapshots: times"):
        evolution_snapshots(small_model, 8, [1e-4, 1e-5], GridSpec(6, 8), seed=1,
                            out_dir=str(out))
    assert not calls and not out.exists()


def test_zero_factor_column_draws_no_normals(small_model, monkeypatch):
    # before the noise onset tau the field only decays, so time tau is
    # exactly correlated with 1e-12: its factor column is zero and draws
    # neither its Re nor its Im normals; the other columns keep their roles
    roles, normals = [], RngStream.normals

    def recorded(self, realization, ell, role, n):
        roles.append(role)
        return normals(self, realization, ell, role, n)

    monkeypatch.setattr(RngStream, "normals", recorded)
    tau = small_model.tau
    sets = sample_combined_times(small_model, 8, [1e-12, tau, 10 * tau], RngStream(4))
    assert sorted(roles) == [stochastic.ROLE_LAW_RE, stochastic.ROLE_LAW_IM,
                             stochastic.ROLE_LAW_RE + 4, stochastic.ROLE_LAW_IM + 4]
    assert len(sets) == 3 and all(np.any(c.re) for c in sets)


def test_snapshots_time_zero_is_initial_draw(small_model, tmp_path):
    # numerically t=0 is not allowed (t > 0), but a tiny t reproduces the
    # initial field up to the decay factor ~ 1
    from fracsphere import stochastic, synthesize

    grid = GridSpec(7, 8)
    t0 = 1e-30
    maps = evolution_snapshots(small_model, 8, [t0], grid, seed=3,
                               out_dir=str(tmp_path))
    hom = FractionalModel(small_model.alpha, math.inf, small_model.spec_c,
                          small_model.spec_a)
    init = stochastic._sample(hom, 8, [0.0], RngStream(3), 0, False)[0]
    ref = synthesize(init, grid)
    assert np.max(np.abs(maps[0].values - ref.values)) <= 1e-9 * np.max(np.abs(ref.values))


def test_snapshots_decay_ratio_without_noise(tmp_path):
    # with a zero noise spectrum, coefficients of a shared draw decay by the
    # exact kernel ratio between two times
    m = FractionalModel(0.5, 1e-5, AlgebraicSpectrum(1.0, 1.0, 2.3),
                        AlgebraicSpectrum(0.0, 0.0, 2.5))
    from fracsphere import sample_combined_times

    t1, t2 = 4e-5, 9e-5
    outs = sample_combined_times(m, 10, [t1, t2], RngStream(5), realization=0)
    for ell in (1, 4, 10):
        lam = ell * (ell + 1.0)
        ratio = (ml_neg(0.5, lam * math.sqrt(t2))
                 / ml_neg(0.5, lam * math.sqrt(t1)))
        got = outs[1].values[ell, : ell + 1] / outs[0].values[ell, : ell + 1]
        assert np.allclose(got, ratio, rtol=1e-12)


def test_snapshot_pointwise_variance(small_model):
    """Sample variance at a fixed point over many realizations matches the
    covariance series at cos(angle) = 1."""
    from fracsphere import covariance_function, synthesize

    grid = GridSpec(5, 6)
    t = 10 * small_model.tau
    L = 24
    n = 200
    vals = np.empty(n)
    for j in range(n):
        c = sample_combined(small_model, L, t, RngStream(12), realization=j)
        vals[j] = synthesize(c, grid).values[2, 3]
    target = covariance_function(small_model, t, 1.0, L)
    mc = float(np.mean(vals ** 2))
    se = target * math.sqrt(2.0 / n)
    assert abs(mc - target) <= 5.0 * se


def test_truncation_bound_dominates_at_scale(small_model):
    """With 50 realizations at the reference spectra, the bound column
    dominates the empirical column in (at least) 95% of unflagged rows."""
    t = 10 * small_model.tau
    curve = truncation_error_curve(small_model, 256, [32, 48, 64, 96, 128, 192],
                                   t, 50, seed=61)
    rows = [r for r in curve.rows if r[3] == 0]
    assert rows
    frac = sum(1 for _, emp, bound, _ in rows if emp <= bound) / len(rows)
    assert frac >= 0.95


def test_truncation_homogeneous_only_expectation():
    """Noise-free early-time case: the measured tail power matches the
    analytic sum of (2l+1) C_l E^2 within Monte Carlo error."""
    m = FractionalModel(0.5, 1e-5, AlgebraicSpectrum(1.0, 1.0, 2.3),
                        AlgebraicSpectrum(0.0, 0.0, 2.5))
    t = 1e-12  # below the knee for every degree here
    curve = truncation_error_curve(m, 64, [8, 16, 32], t, 40, seed=17)
    var = np.array([coefficient_variance(m, ell, t) for ell in range(65)])
    weights = 2.0 * np.arange(65) + 1.0
    for L, emp, _, _ in curve.rows:
        mean_sq = float((weights * var)[int(L) + 1:].sum())
        sd = math.sqrt(2.0 * float(((weights * var ** 2)[int(L) + 1:]).sum()) / 40)
        assert abs(emp ** 2 - mean_sq) <= 5.0 * sd
