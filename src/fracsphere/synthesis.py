"""Field-map synthesis on latitude-longitude grids, plus image/CSV output.

A real field with coefficients {V_{l,m} : m >= 0} is evaluated as

    f(theta, phi) = sum_l [ V_{l,0} N_{l,0}(cos theta)
                    + 2 sum_{m>=1} Re( V_{l,m} N_{l,m}(cos theta) e^{i m phi} ) ]

in two passes.  First the ring sums g_m(theta_j) = sum_l V_{l,m}
N_{l,m}(cos theta_j) for every order and latitude come from one all-orders
normalized Legendre recurrence (specfun._norm_assoc_rows: L array steps,
O(L^2 nLat) work, no (l, m, ring) table).  Every grid kind has mirrored
rings, theta_{nLat-1-j} = pi - theta_j, and N_{l,m}(-x) = (-1)^(l-m)
N_{l,m}(x), so the recurrence runs on the northern rings only (the equator
ring included when nLat is odd) and keeps the sums over even and odd l - m
apart: their sum is the northern ring and their difference its southern
mirror, evaluated at -cos theta_j.  Then each ring is one FFT over
longitude: order m is folded into bin m mod nLon of a length-nLon spectrum,
which keeps the sum exact when nLon < 2L+1 (aliased orders land on the
same phases e^{2 pi i m k / nLon} as their bins).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_degree
from .specfun import _norm_assoc_rows

__all__ = ["GridSpec", "FieldMap", "synthesize", "write_map_csv",
           "read_map_csv", "write_map_image"]


@dataclass(frozen=True)
class GridSpec:
    """A latitude-longitude grid.

    Equiangular (default): colatitudes theta_j = j*pi/(nLat-1) including
    both poles.  With gauss=True the colatitudes are Gauss-Legendre nodes
    in cos(theta), which makes the quadrature of degree <= 2*nLat-1
    integrands over the normalized measure exact (used for Parseval checks).
    Both kinds are mirrored about the equator, theta_{nLat-1-j} =
    pi - theta_j, which synthesize relies on.  Longitudes are
    phi_k = 2*pi*k/nLon.
    """

    n_lat: int
    n_lon: int
    gauss: bool = False

    def __post_init__(self):
        for name, least in (("n_lat", 2), ("n_lon", 1)):
            count = check_degree(f"GridSpec: {name}", getattr(self, name), least)
            object.__setattr__(self, name, count)

    def colatitudes(self):
        if self.gauss:
            nodes, _ = np.polynomial.legendre.leggauss(self.n_lat)
            return np.arccos(nodes[::-1])
        return np.linspace(0.0, math.pi, self.n_lat)

    def longitudes(self):
        return 2.0 * math.pi * np.arange(self.n_lon) / self.n_lon

    def quadrature_weights(self):
        """Weights w_j with sum_j w_j * mean_k f(theta_j, phi_k) ~ int f dmu.

        Exact for band-limited f on a Gauss grid; trapezoid-in-cos(theta)
        weights otherwise.
        """
        if self.gauss:
            _, w = np.polynomial.legendre.leggauss(self.n_lat)
            return w[::-1] / 2.0
        x = np.cos(self.colatitudes())
        w = np.zeros(self.n_lat)
        w[:-1] += 0.5 * (x[:-1] - x[1:])
        w[1:] += 0.5 * (x[:-1] - x[1:])
        return w / 2.0


@dataclass
class FieldMap:
    """Real field values on a grid, latitude-major, plus metadata."""

    grid: GridSpec
    values: np.ndarray  # (n_lat, n_lon)
    time: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.shape != (self.grid.n_lat, self.grid.n_lon):
            raise DomainError("FieldMap: values shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("FieldMap: values must be finite")


def synthesize(coeffs, grid):
    """Evaluate a coefficient set on a grid (see module docstring)."""
    L = coeffs.L
    n_lat, n_lon = grid.n_lat, grid.n_lon
    north = (n_lat + 1) // 2  # rings 0..north-1, the equator ring included
    south = n_lat // 2  # ring n_lat-1-j mirrors ring j < south
    even, odd = _norm_assoc_rows(coeffs.values, np.cos(grid.colatitudes()[:north]))
    even[:, 1:] *= 2.0
    odd[:, 1:] *= 2.0
    spectrum = np.zeros((n_lat, n_lon), dtype=complex)
    parts = spectrum.view(float).reshape(n_lat, n_lon, 2)  # [ring, bin, re/im]
    for start in range(0, L + 1, n_lon):
        e = even[:, start:start + n_lon].T  # [ring, order, re/im]
        o = odd[:, start:start + n_lon].T
        width = e.shape[1]
        parts[:north, :width] += e + o
        parts[::-1][:south, :width] += e[:south] - o[:south]
    del even, odd, e, o  # views of the ring sums, freed before the FFT
    # unscaled inverse DFT: sum_b spectrum[b] e^{2 pi i b k / n_lon}
    vals = np.fft.ifft(spectrum, axis=1, norm="forward").real.copy()
    return FieldMap(grid=grid, values=vals, time=coeffs.time,
                    meta={"L": L, "seed": coeffs.seed, "realization": coeffs.realization})


# --------------------------------------------------------------------------
# CSV

def write_map_csv(fmap, path):
    """Write `theta,phi,value` rows, latitude-major, 17 significant digits
    (round-trips exactly; decimal point independent of locale).

    Each latitude row is one `%` on a template of preformatted longitudes,
    with the row's colatitude put in place of the NUL placeholders, and is
    written as soon as it is formatted."""
    phis = ["%.17g" % ph for ph in fmap.grid.longitudes()]
    row_format = "".join("\0," + ph + ",%.17g\n" for ph in phis)
    with open(path, "w", newline="") as f:
        f.write("theta,phi,value\n")
        for th, row in zip(fmap.grid.colatitudes(), fmap.values):
            f.write(row_format.replace("\0", "%.17g" % th) % tuple(row.tolist()))


def read_map_csv(path, grid):
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    vals = np.atleast_2d(data)[:, 2].reshape(grid.n_lat, grid.n_lon)
    return FieldMap(grid=grid, values=vals)


# --------------------------------------------------------------------------
# images

# linear blue-white-red map; anchor colors interpolated componentwise
_COOLWARM_ANCHORS = ((59, 76, 192), (221, 221, 221), (180, 4, 38))


def _colormap_table(name):
    idx = np.arange(256) / 255.0
    if name == "gray":
        g = np.rint(idx * 255.0).astype(np.uint8)
        return np.stack([g, g, g], axis=1)
    if name == "coolwarm":
        a = np.array(_COOLWARM_ANCHORS, dtype=float)
        table = np.empty((256, 3))
        half = idx < 0.5
        table[half] = a[0] + (a[1] - a[0]) * (idx[half] * 2.0)[:, None]
        table[~half] = a[1] + (a[2] - a[1]) * ((idx[~half] - 0.5) * 2.0)[:, None]
        return np.rint(table).astype(np.uint8)
    raise DomainError(f"unknown colormap {name!r} (have: gray, coolwarm)")


def write_map_image(fmap, path, colormap="coolwarm", vrange=None):
    """Write an equirectangular PPM (P6, maxval 255) and a sidecar JSON with
    the scaling used; also writes a PNG sibling when Pillow is available.

    Values map linearly onto the 256-entry colormap over [vmin, vmax]
    (the data range unless `vrange` is given); a degenerate range maps
    everything to index 0.  Output is written in a single call so a failed
    open leaves no partial file.
    """
    vmin, vmax = vrange if vrange is not None else (float(fmap.values.min()),
                                                    float(fmap.values.max()))
    if vmax > vmin:
        idx = np.rint(np.clip((fmap.values - vmin) / (vmax - vmin), 0.0, 1.0) * 255.0)
    else:
        idx = np.zeros_like(fmap.values)
    table = _colormap_table(colormap)
    pixels = table[idx.astype(np.intp)]
    header = b"P6\n%d %d\n255\n" % (fmap.grid.n_lon, fmap.grid.n_lat)
    with open(path, "wb") as f:
        f.write(header + pixels.tobytes())
    sidecar = {"time": fmap.time, "L": fmap.meta.get("L"), "seed": fmap.meta.get("seed"),
               "vmin": vmin, "vmax": vmax, "colormap": colormap}
    base, _ = os.path.splitext(path)
    with open(base + ".json", "w") as f:
        json.dump(sidecar, f, indent=1, sort_keys=True)
        f.write("\n")
    try:
        from PIL import Image
    except ImportError:
        return
    Image.fromarray(pixels, mode="RGB").save(base + ".png")
