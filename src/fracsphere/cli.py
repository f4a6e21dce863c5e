"""Command-line front end.

Subcommands: ml, sigma, bounds, simulate, truncation, increments, selftest.
Exit codes: 0 success, 2 configuration/domain error, 3 accuracy error,
4 I/O error.  Model and experiment parameters come from a flat JSON config
file; each flag sets the config key named by its argparse dest (_config).
Every run that writes artifacts also writes its experiment's run_record as
manifest.json; a config key the run does not read is accepted, not recorded
(workers is read by none).  Every subcommand runs in one process.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it on first use; import it here
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import AccuracyError, DomainError, check_path, check_real
from .spectra import (AlgebraicSpectrum, gamma_alpha_kappa, m_alpha,
                      measured_increment_c, tail_constant)
from .stochastic import FractionalModel, RngStream, sigma_squared, sigma_squared_bound
from .specfun import _ml_contour, erfcx, ml_neg
from .synthesis import GridSpec, _format_g17
from .experiments import (evolution_snapshots, fit_loglog_slope,
                          increment_curve, run_record, truncation_error_curve,
                          write_manifest)

# flat config schema with defaults (times and grids mirror the reference
# parameter study: kappa1 = 2.3, kappa2 = 2.5, tau = 1e-5)
DEFAULT_CONFIG = {
    "alpha": 0.5,           # fractional order, in (0, 1]
    "tau": 1e-5,            # noise onset time, > 0
    "c_head": 1.0,          # initial spectrum at l = 0
    "c_coeff": 1.0,         # initial spectrum scale for l >= 1
    "kappa1": 2.3,          # initial spectrum decay, > 2
    "a_head": 1e4,          # noise spectrum at l = 0
    "a_coeff": 1e4,         # noise spectrum scale for l >= 1
    "kappa2": 2.5,          # noise spectrum decay, > 2
    "seed": 20240001,       # RNG seed (64-bit)
    "t": 1e-4,              # evaluation time (model time units)
    "times": [1e-12, 1e-5, 1e-4],   # snapshot times (simulate); > 0, ascending
    "L": 400,               # truncation degree (simulate/increments)
    "l_tilde": 400,         # reference degree (truncation)
    "l_grid": [25, 50, 75, 100, 150, 200, 300],  # increasing degrees (truncation)
    "n_real": 50,           # Monte Carlo realizations
    "h_grid": [1e-6 * k for k in range(1, 12)],  # increasing lags h (increments)
    "n_lat": 512,           # map rows (simulate)
    "n_lon": 1024,          # map columns (simulate)
    "colormap": "coolwarm",  # map colormap: coolwarm | gray
    # read by no subcommand: kept only because perfbench/run.py's pinned MODEL
    # sends it and load_config refuses an unknown key
    "workers": 1,
    "out": "out",           # output directory
}

# full-scale preset matching the reference study: a cold run took 0.52-0.60 s
# (truncation, alpha 3/4) and 1.22-1.42 s (increments, t = 1.1e-5) on a
# 2-core Xeon with Python 3.11
FULLSCALE_PRESET = {"l_tilde": 1500, "L": 1500, "n_real": 100,
                    "l_grid": [25, 50, 100, 200, 400, 800]}


def load_config(path):
    if path is None:
        return dict(DEFAULT_CONFIG)
    try:
        with open(path) as f:
            user = json.load(f)
    except OSError as e:
        raise OSError(f"cannot read config file {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise DomainError(f"config file {path} is not valid JSON: {e}") from e
    if not isinstance(user, dict):
        raise DomainError(f"config file {path} must hold a JSON object, "
                          f"got {json.dumps(user)[:40]}")
    cfg = dict(DEFAULT_CONFIG)
    for key, val in user.items():
        if key not in DEFAULT_CONFIG:
            raise DomainError(f"unknown config key {key!r} in {path}")
        cfg[key] = val
    return cfg


def model_from_config(cfg):
    try:
        spec_c = AlgebraicSpectrum(cfg["c_head"], cfg["c_coeff"], cfg["kappa1"])
    except DomainError as e:
        raise DomainError(f"config keys c_head/c_coeff/kappa1: {e}") from e
    try:
        spec_a = AlgebraicSpectrum(cfg["a_head"], cfg["a_coeff"], cfg["kappa2"])
    except DomainError as e:
        raise DomainError(f"config keys a_head/a_coeff/kappa2: {e}") from e
    try:
        return FractionalModel(cfg["alpha"], cfg["tau"], spec_c, spec_a)
    except DomainError as e:
        raise DomainError(f"config keys alpha/tau: {e}") from e


def _config(args):
    """The defaults, then the --config file, then FULLSCALE_PRESET under
    --full-scale, then every flag given whose dest is a config key."""
    cfg = load_config(args.config)
    if getattr(args, "full_scale", False):
        cfg.update(FULLSCALE_PRESET)
    cfg.update((key, val) for key, val in vars(args).items()
               if key in DEFAULT_CONFIG and val is not None)
    return cfg


def _emit(payload):
    json.dump(payload, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


# --------------------------------------------------------------------------
# subcommands

def cmd_ml(args):
    values = ml_neg(args.alpha, np.array(args.x), beta=args.beta).tolist()
    if len(values) == 1:
        _emit({"alpha": args.alpha, "beta": args.beta, "x": args.x[0],
               "value": values[0]})
    else:
        _emit({"alpha": args.alpha, "beta": args.beta, "x": args.x,
               "values": values})
    return 0


def cmd_sigma(args):
    val = sigma_squared(args.ell, args.t, args.alpha)
    try:
        bound = sigma_squared_bound(args.ell, args.t, args.alpha)
    except DomainError:
        bound = None  # outside the bound's regime (reported as null)
    _emit({"ell": args.ell, "t": args.t, "alpha": args.alpha,
           "sigma_squared": val, "bound": bound})
    return 0


def cmd_bounds(args):
    cfg = _config(args)
    m = model_from_config(cfg)
    _emit({"c_tail_C": tail_constant(m.spec_c), "c_tail_A": tail_constant(m.spec_a),
           "m_alpha": m_alpha(m.alpha),
           "gamma_alpha": gamma_alpha_kappa(m.alpha, m.spec_a.kappa),
           "increment_c": measured_increment_c(m.alpha)})
    return 0


def cmd_simulate(args):
    cfg = _config(args)
    model = model_from_config(cfg)
    grid = GridSpec(cfg["n_lat"], cfg["n_lon"])
    evolution_snapshots(model, cfg["L"], cfg["times"], grid, cfg["seed"],
                        cfg["out"], colormap=cfg["colormap"])
    print(f"wrote {len(cfg['times'])} snapshots to {cfg['out']}", file=sys.stderr)
    return 0


def _write_curve(cfg, curve, prefix, experiment):
    """Write the curve as <prefix>_<alpha>.csv and its record as the
    manifest under the out directory, and emit the slope fit over the
    unflagged rows: null when fewer than three of them are usable."""
    os.makedirs(cfg["out"], exist_ok=True)  # only once the curve exists
    stem = os.path.join(cfg["out"], f"{prefix}_{cfg['alpha']:g}")
    curve.write_csv(stem + ".csv")
    try:
        fit = fit_loglog_slope(curve)
    except DomainError:
        fit = None
    write_manifest(cfg["out"], {"experiment": experiment, **curve.meta})
    _emit({"csv": stem + ".csv", "slope": fit.slope if fit else None,
           "r2": fit.r2 if fit else None,
           "window": list(fit.window) if fit else None})
    return 0


def cmd_truncation(args):
    cfg = _config(args)
    model = model_from_config(cfg)
    check_path("config key out", cfg["out"])
    curve = truncation_error_curve(model, cfg["l_tilde"], cfg["l_grid"],
                                   cfg["t"], cfg["n_real"], cfg["seed"])
    return _write_curve(cfg, curve, "trunc", "truncation")


def cmd_increments(args):
    cfg = _config(args)
    model = model_from_config(cfg)
    check_path("config key out", cfg["out"])
    curve = increment_curve(model, cfg["L"], cfg["t"], cfg["h_grid"],
                            cfg["n_real"], cfg["seed"])
    return _write_curve(cfg, curve, "inc", "increments")


# --------------------------------------------------------------------------
# selftest: compact deterministic verification run

def _selftest_checks(cfg):
    """Yields (name, passed, detail).  Desk-small versions of the library's
    verification checks; the written CSVs are byte-stable for a fixed seed."""
    import fracsphere as fs

    # 1. addition theorem
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    for _ in range(40):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        pu, pv = fs.SphPoint.from_vector(u), fs.SphPoint.from_vector(v)
        for ell in (3, 12, 30):
            s = sum(fs.spherical_harmonic(ell, m, pu)
                    * np.conj(fs.spherical_harmonic(ell, m, pv))
                    for m in range(-ell, ell + 1))
            ref = (2 * ell + 1) * fs.legendre_p(ell, float(u @ v))
            worst = max(worst, abs(s - ref) / (2 * ell + 1))
    yield "addition-theorem", worst <= 1e-9, f"max rel dev {worst:.2e}"

    # 2. Mittag-Leffler identities; ml_neg itself evaluates E_{1/2,1} by the
    # in-repo erfcx, so the general-alpha contour sum is checked against it
    # directly: one algorithm against another
    xs = np.linspace(0.0, 30.0, 61)
    e1 = max(abs(fs.ml_neg(1.0, x) - math.exp(-x)) / math.exp(-x) for x in xs)
    val, rel = _ml_contour(0.5, 1.0, xs)
    ok = rel <= 1e-12
    eh = float(np.max(np.abs(val[ok] - erfcx(xs[ok])) / erfcx(xs[ok]), initial=0.0))
    yield "mittag-leffler", e1 <= 1e-12 and eh <= 1e-12 and ok.sum() >= xs.size // 2, \
        f"E_1 dev {e1:.2e}, contour E_1/2 dev {eh:.2e} on {ok.sum()} of {xs.size} x"

    # 3. kernel variance closed form at alpha = 1
    worst = 0.0
    for ell in range(1, 31):
        lam = ell * (ell + 1)
        for t in (1e-4, 1e-2, 1.0):
            ref = -math.expm1(-2 * lam * t) / (2 * lam)
            worst = max(worst, abs(fs.sigma_squared(ell, t, 1.0) - ref) / ref)
    yield "sigma-squared", worst <= 1e-9, f"max rel dev {worst:.2e}"

    # 4. coefficient variance Monte Carlo (reduced N)
    model = model_from_config(cfg)
    n = 2000
    acc = 0.0
    for j in range(n):
        c = fs.sample_combined(model, 5, 10 * cfg["tau"], fs.RngStream(cfg["seed"]),
                               realization=j)
        acc += abs(c.values[5, 3]) ** 2
    mc = acc / n
    an = fs.coefficient_variance(model, 5, 10 * cfg["tau"])
    dev = abs(mc - an) / (an / math.sqrt(n))
    yield "coefficient-law", dev <= 5.0, f"deviation {dev:.2f} standard errors"

    # 5/6. small truncation + increment curves (written as CSV artifacts)
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    curve = truncation_error_curve(model, 96, [12, 24, 48], 10 * cfg["tau"],
                                   8, cfg["seed"])
    curve.write_csv(os.path.join(out, f"selftest_trunc_{cfg['alpha']:g}.csv"))
    dominated = all(emp <= bound for _, emp, bound, flag in curve.rows if not flag)
    monot = all(a[1] >= b[1] for a, b in zip(curve.rows, curve.rows[1:]))
    yield "truncation-curve", dominated and monot, \
        f"bound dominates: {dominated}, tail monotone: {monot}"

    hs = [k * 1e-6 for k in range(1, 6)]
    curve = increment_curve(model, 64, cfg["tau"] + 1e-6, hs, 8, cfg["seed"])
    curve.write_csv(os.path.join(out, f"selftest_inc_{cfg['alpha']:g}.csv"))
    dominated = all(emp <= bound for _, emp, bound, _ in curve.rows)
    yield "increment-curve", dominated, f"bound dominates: {dominated}"

    # 7. synthesis vs pointwise evaluation, and Parseval on a Gauss grid
    L = 16
    rngs = fs.RngStream(cfg["seed"])
    coeffs = fs.sample_combined(model, L, cfg["t"], rngs)
    values = coeffs.values
    grid = GridSpec(8, 16)
    fmap = fs.synthesize(coeffs, grid)
    worst = 0.0
    scale = np.max(np.abs(fmap.values))
    for j, th in enumerate(grid.colatitudes()):
        for k, ph in enumerate(grid.longitudes()):
            p = fs.SphPoint(th, ph)
            ref = sum((values[ell, 0] * fs.spherical_harmonic(ell, 0, p)).real
                      + 2 * sum((values[ell, m]
                                 * fs.spherical_harmonic(ell, m, p)).real
                                for m in range(1, ell + 1))
                      for ell in range(L + 1))
            worst = max(worst, abs(fmap.values[j, k] - ref) / scale)
    gg = GridSpec(L + 1, 2 * L + 1, gauss=True)
    gmap = fs.synthesize(coeffs, gg)
    quad_power = float(gg.quadrature_weights() @ (gmap.values ** 2).mean(axis=1))
    parseval = float(coeffs.degree_power().sum())
    pdev = abs(quad_power - parseval) / parseval
    yield "synthesis", worst <= 1e-9 and pdev <= 1e-8, \
        f"pointwise dev {worst:.2e}, Parseval dev {pdev:.2e}"

    # 8. the map CSVs' array '%.17g' against Python's, on a fixed sample
    # across the fixed-notation window [1e-4, 1e17), its edges and the
    # binade edges 2^e whose decimal exponent the formatter looks up
    rng = np.random.default_rng(17)
    tens = np.array([float(f"1e{j}") for j in range(-6, 19)])
    twos = np.ldexp(1.0, np.arange(-15, 59))
    bits = rng.integers(0, 2 ** 64, 2000, dtype=np.uint64).view(np.float64)
    sample = np.concatenate([
        rng.uniform(1.0, 10.0, 18000) * 10.0 ** rng.integers(-5, 18, 18000),
        bits[np.isfinite(bits)], tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        [0.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max]])
    sample *= rng.choice([-1.0, 1.0], sample.size)
    sample = np.concatenate([sample, twos, np.nextafter(twos, 0.0), -np.nextafter(twos, np.inf)])
    text = _format_g17(sample)
    bad = sum(row.tobytes().rstrip(b"\0") != b"%.17g" % v
              for row, v in zip(text, sample.tolist()))
    yield "map-csv-format", bad == 0, f"{bad} of {sample.size} values differ from '%.17g'"

    # 9. the bytes write_map_csv writes, through one full block of latitude
    # rows and a partial one, against per-value '%.17g' lines
    import tempfile  # only here, off the start-up path

    grid = GridSpec(33, 64)
    values = rng.standard_normal((33, 64)) * 10.0 ** rng.integers(-6, 7, (33, 64))
    values[1, :4] = [-0.0, 5e-324, 1e-17, -1e300]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.csv")
        fs.write_map_csv(fs.FieldMap(grid, values), path)
        with open(path, "rb") as f:
            written = f.read().split(b"\n")
    ref = [b"theta,phi,value"] + [b"%.17g,%.17g,%.17g" % (th, ph, v)
                                   for th, row in zip(grid.colatitudes().tolist(), values.tolist())
                                   for ph, v in zip(grid.longitudes().tolist(), row)] + [b""]
    bad = sum(a != b for a, b in zip(written, ref)) + abs(len(written) - len(ref))
    yield "map-csv-bytes", bad == 0, \
        f"{bad} of {values.size} lines differ from '%.17g,%.17g,%.17g'"


def cmd_selftest(args):
    cfg = _config(args)
    check_path("config key out", cfg["out"])
    model = model_from_config(cfg)
    cfg.update(seed=RngStream(cfg["seed"]).seed, t=check_real("config key t", cfg["t"]))
    failed = 0
    for name, ok, detail in _selftest_checks(cfg):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    write_manifest(cfg["out"], {"experiment": "selftest", **run_record(
        model, seed=cfg["seed"], t=cfg["t"])})
    return 0 if failed == 0 else 3


# --------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="fracsphere",
        description="Two-stage time-fractional stochastic diffusion on the "
                    "unit sphere: special functions, exact coefficient "
                    "sampling, maps, and convergence experiments.")
    p.add_argument("--version", action="version", version=f"fracsphere {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_model(sp):
        sp.add_argument("--config", metavar="FILE",
                        help="JSON config file (flat schema; flags override keys)")
        sp.add_argument("--alpha", type=float, help="fractional order in (0,1]")
        sp.add_argument("--tau", type=float, help="noise onset time (model time units)")

    def add_config(sp):
        add_model(sp)
        sp.add_argument("--seed", type=int, help="64-bit RNG seed")
        sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("ml", help="evaluate E_{alpha,beta}(-x)")
    sp.add_argument("--alpha", type=float, required=True, help="order alpha in (0,1]")
    sp.add_argument("--beta", type=float, default=1.0, help="second parameter, >= alpha")
    sp.add_argument("--x", type=float, nargs="+", required=True,
                    help="one or more arguments x >= 0 (dimensionless)")
    sp.set_defaults(func=cmd_ml)

    sp = sub.add_parser("sigma", help="kernel variance integral and its bound")
    sp.add_argument("--ell", type=int, required=True, help="harmonic degree l >= 0")
    sp.add_argument("--t", type=float, required=True,
                    help="integration time, >= 0 (model time units)")
    sp.add_argument("--alpha", type=float, required=True, help="order alpha in (0,1]")
    sp.set_defaults(func=cmd_sigma)

    sp = sub.add_parser("bounds", help="bound constants as JSON")
    add_model(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("simulate", help="evolution snapshot maps (PPM + CSV)")
    add_config(sp)
    sp.add_argument("--L", type=int, help="truncation degree")
    sp.add_argument("--times", type=float, nargs="+",
                    help="snapshot times, ascending (model time units)")
    sp.add_argument("--n-lat", dest="n_lat", type=int, help="map rows (colatitudes)")
    sp.add_argument("--n-lon", dest="n_lon", type=int, help="map columns (longitudes)")
    sp.add_argument("--colormap", choices=["coolwarm", "gray"], help="map colormap")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("truncation", help="truncation-error curve + slope fit")
    add_config(sp)
    sp.add_argument("--t", type=float, help="evaluation time (model time units)")
    sp.add_argument("--l-tilde", dest="l_tilde", type=int, help="reference degree")
    sp.add_argument("--n-real", dest="n_real", type=int, help="MC realizations")
    sp.add_argument("--full-scale", action="store_true",
                    help="use the full-scale preset (degree 1500, 100 realizations)")
    sp.set_defaults(func=cmd_truncation)

    sp = sub.add_parser("increments", help="temporal-increment curve + slope fit")
    add_config(sp)
    sp.add_argument("--t", type=float, help="base time, > tau (model time units)")
    sp.add_argument("--L", type=int, help="truncation degree")
    sp.add_argument("--n-real", dest="n_real", type=int, help="MC realizations")
    sp.add_argument("--full-scale", action="store_true",
                    help="use the full-scale preset (degree 1500, 100 realizations)")
    sp.set_defaults(func=cmd_increments)

    sp = sub.add_parser("selftest", help="compact deterministic verification run")
    add_config(sp)
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AccuracyError as e:
        print(f"accuracy error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
