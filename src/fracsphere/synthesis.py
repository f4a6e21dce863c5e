"""Field-map synthesis on latitude-longitude grids, plus PPM/CSV output.

A real field with coefficients {V_{l,m} : m >= 0} is evaluated as

    f(theta, phi) = sum_l [ V_{l,0} N_{l,0}(cos theta)
                    + 2 sum_{m>=1} Re( V_{l,m} N_{l,m}(cos theta) e^{i m phi} ) ]

in two passes.  First the ring sums g_m(theta_j) = sum_l V_{l,m}
N_{l,m}(cos theta_j) for every order and latitude come from one all-orders
normalized Legendre recurrence over the packed coefficients, one per call
however many sets of one L it synthesizes (specfun._norm_assoc_rows: ring
sums by per-order matrix products over blocks of diagonals d = l - m,
O(L^2 nLat) work per set, no (l, m, ring) table and no (L+1)^2 coefficient
square).  Every grid kind has mirrored rings, theta_{nLat-1-j} =
pi - theta_j, and N_{l,m}(-x) = (-1)^(l-m) N_{l,m}(x), so the recurrence
runs on the northern rings only (the equator ring included when nLat is
odd) and keeps the sums over even and odd l - m apart: their sum is the
northern ring and their difference its southern mirror, evaluated at
-cos theta_j.  Then, one set at a time, each ring is one FFT over
longitude: order m is folded into bin m mod nLon of a length-nLon
spectrum, which keeps the sum exact when nLon < 2L+1 (aliased orders land
on the same phases e^{2 pi i m k / nLon} as their bins).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_degree
from .specfun import _norm_assoc_rows
from .stochastic import CoefficientSet, _layout

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
    """Real field values on a grid, latitude-major.  The run's parameters
    (L, seed, time) are recorded once, in the experiment's manifest."""

    grid: GridSpec
    values: np.ndarray  # (n_lat, n_lon)

    def __post_init__(self):
        if self.values.shape != (self.grid.n_lat, self.grid.n_lon):
            raise DomainError("FieldMap: values shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("FieldMap: values must be finite")


def synthesize(coeffs, grid):
    """Evaluate a coefficient set on a grid, returning its FieldMap, or a
    sequence of sets that share one L, returning their list of FieldMaps
    (see module docstring).  A set's map has the same bits either way."""
    single = isinstance(coeffs, CoefficientSet)
    sets = [coeffs] if single else list(coeffs)
    degrees = sorted({c.L for c in sets})
    if len(degrees) != 1:
        raise DomainError(f"synthesize: need one or more coefficient sets of one "
                          f"degree L, got degrees {degrees}")
    L = degrees[0]
    n_lat, n_lon = grid.n_lat, grid.n_lon
    north = (n_lat + 1) // 2  # rings 0..north-1, the equator ring included
    south = n_lat // 2  # ring n_lat-1-j mirrors ring j < south
    sums = _norm_assoc_rows([c.re for c in sets], [c.im for c in sets], _layout(L)[1],
                            np.cos(grid.colatitudes()[:north]))
    maps = []
    for _ in sets:
        even, odd = sums.pop(0)
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
        del even, odd, e, o  # views of this set's ring sums, freed before its FFT
        # unscaled inverse DFT, in place: sum_b spectrum[b] e^{2 pi i b k / n_lon}
        vals = np.fft.ifft(spectrum, axis=1, norm="forward", out=spectrum).real.copy()
        maps.append(FieldMap(grid=grid, values=vals))
    return maps[0] if single else maps


# --------------------------------------------------------------------------
# CSV

_G17_WIDTH = 24  # the longest '%.17g' of a float64, e.g. "-2.2250738585072014e-308"
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitter for float64
_CSV_BLOCK_ROWS = 32  # latitude rows formatted and written at a time


@functools.cache
def _g17_tables():
    """The exact formatter's tables, built on first use.

    10^k for k = 0..20 (exact doubles) with their Veltkamp halves; the least
    double >= 10^X for X = -4..17, so that X = floor(log10 a) is one search;
    and the ASCII digits of 0..9999 as one uint32 each, plain in entries
    0..9999 and with trailing zeros turned into NUL in entries 10^4..2*10^4-1.
    """
    pow10 = np.concatenate(([1.0], np.cumprod(np.full(20, 10.0))))
    split = _SPLIT * pow10
    pow10_hi = split - (split - pow10)
    floors = []
    for x in range(-4, 18):
        t = float(f"1e{x}")  # the double nearest 10^x
        num, den = t.as_integer_ratio()
        below = num * 10 ** max(-x, 0) < den * 10 ** max(x, 0)
        floors.append(math.nextafter(t, math.inf) if below else t)
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    chars = digits + ord("0")
    quads = np.concatenate([chars, chars * kept]).astype(np.uint8)
    tables = (pow10, pow10_hi, pow10 - pow10_hi, np.array(floors), quads.view(np.uint32).ravel())
    for a in tables:
        a.flags.writeable = False
    return tables


def _format_g17(values):
    """The bytes of '%.17g' % v for every value, as the rows of an
    (n, _G17_WIDTH) uint8 array padded with NUL.

    A value whose decimal exponent X = floor(log10 |v|) lies in [-4, 16],
    which %g prints in fixed notation, takes a few array operations:
    - X is found exactly, by a search in the least doubles >= 10^X;
    - with k = 16 - X <= 20, 10^k is an exact double, and Dekker's
      error-free product (Numer. Math. 18 (1971) 224) gives |v| 10^k = p + e
      exactly, p an integer above 2^53.  D = p + floor(e), plus a carry
      decided on e - floor(e) with ties to even, is the correctly rounded
      17-digit significand.  It never rounds up to 10^17: the largest double
      below each power of ten in the window lies more than half a unit of
      the 17th digit below it;
    - D is cut into 4-digit groups through a 10^4-entry digit table whose
      trailing zeros are NUL, and the sign, the "0." with its leading zeros
      and the decimal point are placed with static slices, one slice per
      (X, sign) group.
    Every other value (+-0, |v| < 1e-4, |v| >= 1e17, subnormals, inf, nan)
    is formatted by Python, one element at a time.
    """
    v = np.asarray(values, dtype=float).ravel()
    pow10, pow10_hi, pow10_lo, floors, quads = _g17_tables()
    out = np.zeros((v.size, _G17_WIDTH), np.uint8)
    a = np.abs(v)
    fixed = (a >= floors[0]) & (a < floors[-1])
    at = np.flatnonzero(fixed)
    a = a[at]
    x = np.searchsorted(floors, a, side="right") - 5
    k = 16 - x
    b, b_hi, b_lo = pow10[k], pow10_hi[k], pow10_lo[k]
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    floor_e = np.floor(e)
    frac = e - floor_e
    d = p.astype(np.int64) + floor_e.astype(np.int64)
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1).astype(bool))
    # sort by (X, sign), so that each group is one run of rows
    code = (2 * (x + 4) + (v[at] < 0)).astype(np.int8)
    order = np.argsort(code, kind="stable")
    d = d[order]
    # 17 digits as 1 + 4 x 4; a group whose later groups are all zero takes
    # the table half with its trailing zeros as NUL
    high, low = np.divmod(d, 10 ** 8)
    lead, mid = np.divmod(high, 10 ** 8)
    groups = np.empty((d.size, 5), np.int64)
    groups[:, 0] = lead
    groups[:, 1], groups[:, 2] = np.divmod(mid, 10 ** 4)
    groups[:, 3], groups[:, 4] = np.divmod(low, 10 ** 4)
    tail = 10 ** 4 * (low == 0)
    groups[:, 1] += tail * (groups[:, 2] == 0)
    groups[:, 2] += tail
    groups[:, 3] += 10 ** 4 * (groups[:, 4] == 0)
    groups[:, 4] += 10 ** 4
    digits = quads[groups].view(np.uint8).reshape(d.size, 20)[:, 3:]
    text = np.zeros((d.size, _G17_WIDTH), np.uint8)
    start = 0
    for c, count in enumerate(np.bincount(code, minlength=42).tolist()):
        if not count:
            continue
        rows, dig, start = text[start:start + count], digits[start:start + count], start + count
        xc, s = c // 2 - 4, c % 2
        if s:
            rows[:, 0] = ord("-")
        if xc >= 0:
            rows[:, s:s + xc + 1] = dig[:, :xc + 1] | ord("0")  # NUL -> '0'
            if xc < 16:
                rows[:, s + xc + 1] = np.where(dig[:, xc + 1] != 0, ord("."), 0)
                rows[:, s + xc + 2:s + 18] = dig[:, xc + 1:]
        else:
            rows[:, s:s + 1 - xc] = ord("0")
            rows[:, s + 1] = ord(".")
            rows[:, s + 1 - xc:s + 18 - xc] = dig
    out[at[order]] = text
    rest = np.flatnonzero(~fixed)
    out[rest] = np.array([b"%.17g" % f for f in v[rest].tolist()],
                         dtype=f"S{_G17_WIDTH}").view(np.uint8).reshape(rest.size, _G17_WIDTH)
    return out


def _trimmed(text):
    """Rows of _format_g17 cut to the longest one."""
    return text[:, :np.count_nonzero(text, axis=1).max()]


def write_map_csv(fmap, path):
    """Write `theta,phi,value` rows, latitude-major, 17 significant digits
    (round-trips exactly; decimal point independent of locale).

    Every number has the bytes of '%.17g' % v, from the exact array
    formatter _format_g17: values in [1e-4, 1e17) on whole arrays, every
    other value by Python one at a time.  Blocks of _CSV_BLOCK_ROWS latitude
    rows are laid out as fixed-width fields padded with NUL, the NULs are
    deleted, and each block is written as soon as it is formatted, so the
    temporaries stay at a few MB."""
    grid = fmap.grid
    theta = _trimmed(_format_g17(grid.colatitudes()))
    phi = _trimmed(_format_g17(grid.longitudes()))
    wt = theta.shape[1]
    wv = wt + phi.shape[1] + 2  # where the value field starts
    block = np.zeros((_CSV_BLOCK_ROWS, grid.n_lon, wv + _G17_WIDTH + 1), np.uint8)
    block[:, :, wt] = block[:, :, wv - 1] = ord(",")
    block[:, :, wt + 1:wv - 1] = phi
    block[:, :, -1] = ord("\n")
    with open(path, "wb") as f:
        f.write(b"theta,phi,value\n")
        for top in range(0, grid.n_lat, _CSV_BLOCK_ROWS):
            rows = fmap.values[top:top + _CSV_BLOCK_ROWS]
            lines = block[:len(rows)]
            lines[:, :, :wt] = theta[top:top + len(rows), None]
            lines[:, :, wv:-1] = _format_g17(rows).reshape(len(rows), grid.n_lon, _G17_WIDTH)
            f.write(lines.tobytes().translate(None, b"\0"))


def read_map_csv(path, grid):
    """The FieldMap of a CSV written by write_map_csv on `grid`."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:  # a field that is not a number, or ragged rows
        raise DomainError(f"read_map_csv: {path} is not a map CSV: {e}") from e
    if data.shape != (grid.n_lat * grid.n_lon, 3):
        raise DomainError(f"read_map_csv: {path} has {data.shape[0]} rows of {data.shape[1]} "
                          f"columns, the {grid.n_lat}x{grid.n_lon} grid needs "
                          f"{grid.n_lat * grid.n_lon} of 3")
    return FieldMap(grid=grid, values=data[:, 2].reshape(grid.n_lat, grid.n_lon))


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


def write_map_image(fmap, path, colormap="coolwarm"):
    """Write an equirectangular PPM (P6, maxval 255) and a sidecar JSON with
    the scaling used, exactly {"colormap", "vmax", "vmin"}.

    Values map linearly onto the 256-entry colormap over the data range
    [vmin, vmax]; a degenerate range maps everything to index 0.  Output is
    written in a single call so a failed open leaves no partial file.
    """
    vmin, vmax = float(fmap.values.min()), float(fmap.values.max())
    if vmax > vmin:
        idx = np.rint((fmap.values - vmin) / (vmax - vmin) * 255.0)  # in [0, 255]
    else:
        idx = np.zeros_like(fmap.values)
    table = _colormap_table(colormap)
    pixels = table[idx.astype(np.intp)]
    header = b"P6\n%d %d\n255\n" % (fmap.grid.n_lon, fmap.grid.n_lat)
    with open(path, "wb") as f:
        f.write(header + pixels.tobytes())
    sidecar = {"vmin": vmin, "vmax": vmax, "colormap": colormap}
    with open(os.path.splitext(path)[0] + ".json", "w") as f:
        json.dump(sidecar, f, indent=1, sort_keys=True)
        f.write("\n")
