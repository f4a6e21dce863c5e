"""Output gate for the benchmark's workloads.

The gate never pins the random bit-stream.  Monte Carlo curves are compared
with their exact expectation from the analytic law, rows of maps are checked
against the files they were drawn from.

    python3 gate.py ROOT KIND CONFIG OUT

computes the expectation of a ``truncation`` or ``increments`` curve for the
flat config in CONFIG with fracsphere from ROOT/src, and writes it to OUT.
The benchmark runs it in its own process after the timed runs, so the
quadratures it needs never warm a timed run's caches.
"""

import json
import math
import os
import sys

import numpy as np

# |z| limit per row; rows are near-Gaussian means of many chi-square terms
Z_MAX = 5.0


def curve_expectation(kind, cfg):
    """Rows (x, mean, se) for the squared ``empirical`` column of a curve.

    truncation: emp(L)^2 estimates sum_{L<l<=L~} (2l+1) v_l with
    v_l = coefficient_variance(model, l, t).  increments: emp(h)^2 estimates
    sum_{l<=L} (2l+1) w_l with w_l = C_l (E(t+h) - E(t))^2
    + A_l (sigma^2(s+h) + sigma^2(s) - 2 cross_sigma(l, s, h)), s = t - tau.
    A per-degree power sums 2l+1 squared Gaussians, so its variance is
    (2 + 4l) v_l^2 and the standard error of the mean over n_real
    realizations is sqrt(sum (2 + 4l) v_l^2 / n_real).
    """
    from fracsphere.cli import model_from_config
    from fracsphere.specfun import ml_neg
    from fracsphere.stochastic import coefficient_variance, cross_sigma, sigma_squared

    model = model_from_config(cfg)
    n = cfg["n_real"]
    t = cfg["t"]

    def row(x, ells, v):
        weight = 2.0 * ells + 1.0
        return (float(x), float(np.sum(weight * v)),
                math.sqrt(float(np.sum((2.0 + 4.0 * ells) * v * v)) / n))

    if kind == "truncation":
        l_tilde = cfg["l_tilde"]
        v = np.array([coefficient_variance(model, ell, t) for ell in range(l_tilde + 1)])
        ells = np.arange(l_tilde + 1, dtype=float)
        return [row(L, ells[L + 1:], v[L + 1:]) for L in cfg["l_grid"]]
    if kind != "increments":
        raise ValueError(f"no expectation for {kind!r}")
    a, s = model.alpha, t - model.tau
    ells = np.arange(cfg["L"] + 1, dtype=float)
    lam = ells * (ells + 1.0)
    c = np.array([model.spec_c.value(ell) for ell in range(len(ells))])
    A = np.array([model.spec_a.value(ell) for ell in range(len(ells))])
    e_t = np.array([ml_neg(a, x) for x in lam * t ** a])
    sig_s = np.array([sigma_squared(ell, s, a) for ell in range(len(ells))])
    rows = []
    for h in cfg["h_grid"]:
        e_th = np.array([ml_neg(a, x) for x in lam * (t + h) ** a])
        sig_sh = np.array([sigma_squared(ell, s + h, a) for ell in range(len(ells))])
        cross = np.array([cross_sigma(ell, s, h, a) for ell in range(len(ells))])
        w = c * (e_th - e_t) ** 2 + A * (sig_sh + sig_s - 2.0 * cross)
        rows.append(row(h, ells, w))
    return rows


def check_curve(kind, csv_text, expectation, z_max=Z_MAX):
    """Problems found in a ``kind`` curve CSV (empty when it passes).

    Each row's z-score must stay within z_max.  Increment rows come from
    disjoint realizations (one set per h), so their pooled score
    sum(z)/sqrt(rows) must too, which catches a scale error that no single
    row resolves; truncation rows share realizations and are not pooled.
    """
    lines = csv_text.strip().split("\n")
    if lines[0] != "x,empirical,bound,flag":
        return [f"curve header is {lines[0]!r}"]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != len(expectation):
        return [f"curve has {len(rows)} rows, expected {len(expectation)}"]
    problems, zs = [], []
    for (x, emp, bound, flag), (ex, mean, se) in zip(rows, expectation):
        if x != ex:
            problems.append(f"row x={x!r}, expected x={ex!r}")
            continue
        if not (math.isfinite(emp) and emp >= 0.0):
            problems.append(f"x={x:g}: empirical {emp!r}")
            continue
        zs.append((emp * emp - mean) / se)
        if abs(zs[-1]) > z_max:
            problems.append(f"x={x:g}: empirical^2 {emp * emp:.6g} vs expected {mean:.6g} "
                            f"(z = {zs[-1]:.1f}, limit {z_max})")
    pooled = sum(zs) / math.sqrt(len(zs)) if zs else 0.0
    if kind == "increments" and abs(pooled) > z_max:
        problems.append(f"pooled z over {len(zs)} rows = {pooled:.1f}, limit {z_max}")
    return problems


# the coolwarm map as the synthesis module documents it: linear blue-white-red
# through three anchor colours, 256 entries
_ANCHORS = ((59, 76, 192), (221, 221, 221), (180, 4, 38))


def _colormap(name):
    idx = np.arange(256) / 255.0
    if name == "gray":
        g = np.rint(idx * 255.0).astype(np.uint8)
        return np.stack([g, g, g], axis=1)
    a = np.array(_ANCHORS, dtype=float)
    table = np.empty((256, 3))
    half = idx < 0.5
    table[half] = a[0] + (a[1] - a[0]) * (idx[half] * 2.0)[:, None]
    table[~half] = a[1] + (a[2] - a[1]) * ((idx[~half] - 0.5) * 2.0)[:, None]
    return np.rint(table).astype(np.uint8)


def check_maps(out_dir, cfg):
    """Problems found in a ``simulate`` output directory: the manifest, each
    CSV's grid columns, and each PPM's size and pixels recomputed from its
    CSV with the sidecar's vmin/vmax."""
    n_lat, n_lon = cfg["n_lat"], cfg["n_lon"]
    problems = []
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    for key in ("L", "times", "n_lat", "n_lon", "colormap"):
        if manifest.get(key) != cfg[key]:
            problems.append(f"manifest {key} = {manifest.get(key)!r}, expected {cfg[key]!r}")
    thetas = np.repeat(np.linspace(0.0, math.pi, n_lat), n_lon)
    phis = np.tile(2.0 * math.pi * np.arange(n_lon) / n_lon, n_lat)
    header = b"P6\n%d %d\n255\n" % (n_lon, n_lat)
    table = _colormap(cfg["colormap"])
    for t in cfg["times"]:
        stem = os.path.join(out_dir, f"map_t{t:g}")
        data = np.loadtxt(stem + ".csv", delimiter=",", skiprows=1)
        if data.shape != (n_lat * n_lon, 3):
            problems.append(f"{stem}.csv has shape {data.shape}")
            continue
        if not (np.array_equal(data[:, 0], thetas) and np.array_equal(data[:, 1], phis)):
            problems.append(f"{stem}.csv grid columns differ from the {n_lat}x{n_lon} grid")
        values = data[:, 2].reshape(n_lat, n_lon)
        if not np.all(np.isfinite(values)):
            problems.append(f"{stem}.csv has non-finite values")
            continue
        with open(stem + ".json") as f:
            side = json.load(f)
        vmin, vmax = side["vmin"], side["vmax"]
        if (vmin, vmax) != (values.min(), values.max()) or side["colormap"] != cfg["colormap"]:
            problems.append(f"{stem}.json scaling {vmin!r}..{vmax!r} does not match its CSV")
        with open(stem + ".ppm", "rb") as f:
            ppm = f.read()
        if len(ppm) != len(header) + 3 * n_lat * n_lon or not ppm.startswith(header):
            problems.append(f"{stem}.ppm has {len(ppm)} bytes or a wrong header")
            continue
        idx = (np.rint(np.clip((values - vmin) / (vmax - vmin), 0.0, 1.0) * 255.0)
               if vmax > vmin else np.zeros_like(values))
        pixels = table[idx.astype(np.intp)].tobytes()
        if ppm[len(header):] != pixels:
            bad = np.count_nonzero(np.frombuffer(ppm, np.uint8, offset=len(header))
                                   != np.frombuffer(pixels, np.uint8))
            problems.append(f"{stem}.ppm: {bad} bytes differ from its CSV")
    return problems


def main(argv):
    root, kind, cfg_path, out_path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    with open(cfg_path) as f:
        cfg = json.load(f)
    with open(out_path, "w") as f:
        json.dump(curve_expectation(kind, cfg), f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
