"""Convergence experiments: truncation-error curves with theoretical
overlays, temporal-increment scaling, evolution snapshots, slope fits.

Both curves reduce each realization to its per-degree Parseval power p_l,
which for a draw of per-degree variance v_l is exactly v_l chi^2_{2l+1}.
A curve row's n_real realizations therefore cost one field draw, reduced
with degree_power, plus the other n_real - 1 summed from their exact law
v_l chi^2_{(n_real - 1)(2l+1)}, one variate per degree (chi_square_power).
The field draw keeps the sampler checked end to end.  Every row is one
call of _power and draws from counter-based RNG streams of its own.  The
truncation curve is one row; the increment curve has one row per h.

Each experiment's run_record (the model, then the parameters it used, as
used) is its manifest; a curve carries it as ErrorCurve.meta.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .errors import (DomainError, check_degree, check_increasing, check_path,
                     check_real)
from .spectra import bound_q_combined, increment_bound, measured_increment_c
from .stochastic import (RNG_SCHEME, RngStream, chi_square_power, sample_combined,
                         sample_combined_pair, sample_combined_times)
# perfbench/tracer.py wraps the kernel variances under these names too
from .stochastic import cross_sigma, sigma_squared  # noqa: F401
from .synthesis import _colormap_table, synthesize, write_map_csv, write_map_image

__all__ = ["ErrorCurve", "SlopeFit", "truncation_error_curve",
           "increment_curve", "evolution_snapshots", "fit_loglog_slope",
           "run_record", "write_manifest"]


@dataclass
class ErrorCurve:
    """Rows of (abscissa, empirical value, theoretical bound, flag): x is
    the degree L of a truncation curve, the lag h of an increment curve.
    flag = 1 marks rows where the bound's case conditions fail; such rows
    carry no valid bound (column set to 0) and are excluded from slope fits.
    Abscissae are finite, >= 0 and increasing; empirical and bound values
    finite and >= 0.  meta is the run record of the experiment that made
    the curve.
    """

    rows: list  # (x, empirical, bound, flag)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        non_negative = partial(check_real, strict=False)
        check_increasing("ErrorCurve: abscissae", [r[0] for r in self.rows], non_negative)
        for x, emp, bound, flag in self.rows:
            non_negative("ErrorCurve: empirical", emp)
            non_negative("ErrorCurve: bound", bound)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            f.write("x,empirical,bound,flag\n")
            for x, emp, bound, flag in self.rows:
                f.write("%.17g,%.17g,%.17g,%d\n" % (x, emp, bound, flag))


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of ln(empirical) against ln(x)."""

    slope: float
    intercept: float
    r2: float
    window: tuple


def fit_loglog_slope(curve, window=None):
    """OLS fit on (ln x, ln empirical) over unflagged rows with positive
    empirical values inside `window`."""
    rows = [r for r in curve.rows if r[1] > 0.0 and r[3] == 0]
    if window is not None:
        lo, hi = window
        rows = [r for r in rows if lo <= r[0] <= hi]
    if len(rows) < 3:
        raise DomainError(f"fit_loglog_slope: need >= 3 usable rows, have {len(rows)}")
    lx = np.log([r[0] for r in rows])
    ly = np.log([r[1] for r in rows])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    used = ([r[0] for r in rows][0], [r[0] for r in rows][-1])
    return SlopeFit(slope=float(slope), intercept=float(intercept), r2=r2, window=used)


def _power(model, L, t, h, rng, row, n_real):
    """Per-degree Parseval power summed over the n_real realizations of one
    curve row, of U(t) (h None) or of the increment U(t+h) - U(t):
    realization `row` drawn from its exact law and reduced, plus the other
    n_real - 1 from the chi-square law of their sum."""
    if h is None:
        p = sample_combined(model, L, t, rng, realization=row).degree_power()
    else:
        p = sample_combined_pair(model, L, t, h, rng, realization=row).degree_power()
    p += chi_square_power(model, L, t, rng, row, n_real - 1, h)
    return p


def truncation_error_curve(model, l_tilde, l_grid, t, n_real, seed):
    """Estimate the mean-square truncation error curve.

    One degree-l_tilde realization serves every L in l_grid (the
    estimator sums the tail of the same realization):
        empirical(L) = sqrt( mean_j sum_{l>L} p_l(j) ),
    with p_l the per-degree Parseval power.  The curve is one row:
    realization 0 is drawn from the one-time law (sample_combined) and
    reduced, and the other n_real - 1 add v_l chi^2_{(n_real-1)(2l+1)}
    with the same per-degree variances v_l, computed once.  The bound
    column is the combined truncation bound; rows whose case conditions
    fail are flagged.
    """
    l_tilde = check_degree("truncation_error_curve: l_tilde", l_tilde)
    l_grid = check_increasing("truncation_error_curve: l_grid", l_grid, check_degree)
    if l_grid[-1] >= l_tilde:
        raise DomainError("truncation_error_curve: need l_grid < l_tilde")
    t = check_real("truncation_error_curve: t", t)
    n_real = check_degree("truncation_error_curve: n_real", n_real, 2)
    rng = RngStream(seed)
    mean_p = _power(model, l_tilde, t, None, rng, 0, n_real) / n_real
    tail = np.concatenate([np.cumsum(mean_p[::-1])[::-1], [0.0]])
    rows = []
    for L in l_grid:
        emp = math.sqrt(max(tail[L + 1], 0.0))
        try:
            bound = bound_q_combined(L, t, model.tau, model.alpha,
                                     model.spec_c, model.spec_a)
            flag = 0
        except DomainError:
            bound, flag = 0.0, 1
        rows.append((float(L), emp, bound, flag))
    meta = run_record(model, t=t, l_tilde=l_tilde, l_grid=l_grid, n_real=n_real,
                      seed=rng.seed)
    return ErrorCurve(rows=rows, meta=meta)


def increment_curve(model, L, t, h_grid, n_real, seed):
    """Estimate the mean-square temporal increment curve
    empirical(h) = sqrt( mean_j ||U_L(t+h) - U_L(t)||^2 ) against the
    q(t) sqrt(h) bound with the measured constant (measured_increment_c).

    Each h is one row: realization i of row i is drawn directly from the
    increment's exact law (sample_combined_pair) and reduced, and the
    other n_real - 1 add the chi-square law of their summed power, with
    the per-degree increment variances computed once per h."""
    L = check_degree("increment_curve: L", L)
    hs = check_increasing("increment_curve: h_grid", h_grid, check_real)
    t = check_real("increment_curve: t (above tau)", t, model.tau)
    n_real = check_degree("increment_curve: n_real", n_real, 2)
    c = measured_increment_c(model.alpha)
    rng = RngStream(seed)
    powers = [_power(model, L, t, h, rng, i, n_real) for i, h in enumerate(hs)]
    rows = []
    for h, p in zip(hs, powers):
        emp = math.sqrt(float(p.sum()) / n_real)
        bound = increment_bound(t, h, model.tau, model.alpha,
                                model.spec_c, model.spec_a, c)
        rows.append((h, emp, bound, 0))
    meta = run_record(model, t=t, L=L, h_grid=hs, n_real=n_real, seed=rng.seed,
                      increment_c=c)
    return ErrorCurve(rows=rows, meta=meta)


def evolution_snapshots(model, L, times, grid, seed, out_dir, colormap="coolwarm"):
    """Simulate one realization jointly at the given increasing times,
    synthesize every time's map in one call (one Legendre recurrence),
    render each as an image + CSV under out_dir, and return the field maps.
    Files are named map_t{t:g}; times that do not increase or whose names
    collide are refused before drawing."""
    L = check_degree("evolution_snapshots: L", L)
    times = check_increasing("evolution_snapshots: times", times, check_real)
    out_dir = check_path("evolution_snapshots: out_dir", out_dir)
    _colormap_table(colormap)  # refuse an unknown name before drawing
    stems = [f"map_t{t:g}" for t in times]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise DomainError(f"evolution_snapshots: times {times[stems.index(stem)]!r} "
                              f"and {times[i]!r} share the file name {stem}")
    rng = RngStream(seed)
    maps = synthesize(sample_combined_times(model, L, times, rng), grid)
    os.makedirs(out_dir, exist_ok=True)
    for name, fmap in zip(stems, maps):
        stem = os.path.join(out_dir, name)
        write_map_image(fmap, stem + ".ppm", colormap=colormap)
        write_map_csv(fmap, stem + ".csv")
    write_manifest(out_dir, {"experiment": "simulate", **run_record(
        model, L=L, times=times, seed=rng.seed, n_lat=grid.n_lat, n_lon=grid.n_lon,
        colormap=colormap)})
    return maps


def run_record(model, **params):
    """A run's record: the model (alpha, tau and both spectra), then the
    parameters the run used, as it used them."""
    return {"alpha": model.alpha, "tau": model.tau, "spec_c": vars(model.spec_c),
            "spec_a": vars(model.spec_a), **params}


def write_manifest(out_dir, record):
    """Write a run's record as manifest.json, with the tool, its version and
    the RNG scheme."""
    payload = {**record, "tool": "fracsphere", "version": __version__,
               "rng_scheme": RNG_SCHEME}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")
    return path
