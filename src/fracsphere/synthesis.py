"""Field-map synthesis on latitude-longitude grids, plus PPM/CSV output.

A real field with coefficients {V_{l,m} : m >= 0} is evaluated as

    f(theta, phi) = sum_l [ V_{l,0} N_{l,0}(cos theta)
                    + 2 sum_{m>=1} Re( V_{l,m} N_{l,m}(cos theta) e^{i m phi} ) ]

in two passes.  First the ring sums g_m(theta_j) = sum_l V_{l,m}
N_{l,m}(cos theta_j) for every order and latitude come from one all-orders
normalized Legendre recurrence over the packed coefficients, one per call
however many sets of one L it synthesizes (_norm_assoc_rows: each block
of diagonals d = l - m takes its recurrence steps and its per-order matrix
products in one loop, O(L^2 nLat) work per set, no (l, m, ring) table and
no (L+1)^2 coefficient square; specfun's per-degree recurrence is its
reference).  Every grid kind has mirrored rings, theta_{nLat-1-j} =
pi - theta_j, and N_{l,m}(-x) = (-1)^(l-m) N_{l,m}(x), so the recurrence
runs on the northern rings only (the equator ring included when nLat is
odd) and keeps the sums over even and odd l - m apart: their sum is the
northern ring and their difference its southern mirror, evaluated at
-cos theta_j.  Then, one set at a time, each ring is one real inverse FFT
over longitude of a Hermitian half spectrum, bins b = 0..nLon//2 (see
synthesize); order m lands in bin m mod nLon or its mirror, which keeps
the sum exact when nLon < 2L+1 (aliased orders land on the same phases
e^{2 pi i m k / nLon} as their bins).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it on first use; load it here

from .errors import DomainError, check_degree
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


_ROWS_BLOCK = 16  # diagonals d = l - m per block of recurrence steps and ring sums


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

    One all-orders recurrence serves every set: one numpy step per diagonal
    d over every order at once, each element through the same operations as
    specfun._norm_assoc_order, so N_{m+d,m} has its bits.  Per block of
    _ROWS_BLOCK diagonals, the steps' coefficients a and b are one array
    each, each diagonal is written in place into its slab of a ring of
    (L+1, len(x)) slabs, and one matrix product per order m adds every set
    at once: the (4k x block) coefficients V_{m+d,m}, gathered once through
    one index array and stacked four rows per set (parity x Re/Im, zero at
    the other parity and past a diagonal's last order), times that order's
    rows of the slabs, a strided (orders, block, len(x)) batch.  Each output
    row is the same dot products whatever the other rows are, so a set's
    sums have the same bits alone or with others.  No (l, m, ring) table or
    (L+1, L+1) coefficient square is formed.
    """
    x = np.asarray(x, dtype=float)
    L = len(starts) - 1
    k = len(re)
    orders = np.arange(L + 1)
    m = orders.astype(float)
    sums = np.zeros((L + 1, 4 * k, x.size))  # [m, set x (2 parity + re/im), ring]
    # rows past a diagonal's last order keep finite values of an earlier
    # one, and their coefficients are zero
    rows = np.zeros((_ROWS_BLOCK, L + 1, x.size))
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    rows[1, 0] = 1.0  # slab 1 holds the factors of N_{m,m} until d = 1
    rows[1, 1:] = -s * np.sqrt((2 * m[1:, None] + 1) / (2 * m[1:, None]))
    np.multiply.accumulate(rows[1], axis=0, out=rows[0])  # N_{m,m}
    if L:
        np.multiply(np.sqrt(2 * m[:L] + 3)[:, None], x, out=rows[1, :L])
        rows[1, :L] *= rows[0, :L]
    tmp = np.empty_like(rows[0])  # b N_{m+d-2,m}
    coef = np.zeros((L + 1, k, 4, _ROWS_BLOCK))  # never written at the other parity
    product = np.empty_like(sums)
    block = np.arange(_ROWS_BLOCK)
    for first in range(0, L + 1, _ROWS_BLOCK):
        top = L + 1 - first  # the orders the block's first diagonal reaches
        ell = orders[:top, None] + (first + block)
        at = starts[np.minimum(ell, L)] + orders[:top, None]  # V_{m+d,m}
        for p in (0, 1):  # blocks start at even d, so column b has the parity of b
            cols = at[:, p::2]
            for c, (re_c, im_c) in enumerate(zip(re, im)):
                coef[:top, c, 2 * p, p::2] = re_c[cols]
                coef[:top, c, 2 * p + 1, p::2] = im_c[cols]
        past = max(0, top - _ROWS_BLOCK)  # only these rows can have m + d > L
        np.copyto(coef[past:top], 0.0, where=(ell[past:] > L)[:, None, None, :])
        low = max(first, 2)  # diagonals 0 and 1 are written above
        steps = range(low, min(first + _ROWS_BLOCK, L + 1))
        ds = np.array(steps, dtype=float)[:, None]
        mk = m[:L + 1 - low]
        deg = mk + ds
        a = np.sqrt((2 * deg + 1) * (2 * deg - 1) / (ds * (2 * mk + ds)))
        b = np.sqrt((2 * deg + 1) * (ds - 1) * (2 * mk + ds - 1)
                    / ((2 * deg - 3) * ds * (2 * mk + ds)))
        for i, d in enumerate(steps):
            n = L - d + 1
            cur = np.multiply(a[i, :n, None], x, out=rows[d - first, :n])
            cur *= rows[(d - 1) % _ROWS_BLOCK, :n]
            cur -= np.multiply(b[i, :n, None], rows[(d - 2) % _ROWS_BLOCK, :n], out=tmp[:n])
        np.matmul(coef[:top].reshape(top, 4 * k, _ROWS_BLOCK),
                  rows[:, :top].transpose(1, 0, 2), out=product[:top])
        sums[:top] += product[:top]
    sums = sums.reshape(L + 1, k, 4, x.size)
    return [(sums[:, c, :2].transpose(1, 0, 2), sums[:, c, 2:].transpose(1, 0, 2))
            for c in range(k)]


def synthesize(coeffs, grid):
    """Evaluate a coefficient set on a grid, returning its FieldMap, or a
    sequence of sets that share one L, returning their list of FieldMaps
    (see module docstring).  A set's map has the same bits either way.

    Ring j's values are sum_b S_b e^{2 pi i b k / nLon}, real part, where
    S_b sums w_m g_m(theta_j) over the orders m = b mod nLon (w_0 = 1,
    w_m = 2 above).  The same real values come from the Hermitian half
    spectrum H_b = (S_b + conj(S_{nLon-b}))/2, b = 0..nLon//2, through
    np.fft.irfft, which reads only the real parts of H_0 and, for even
    nLon, of the Nyquist bin: half the spectrum's memory and no complex
    output to copy.  The 1/2 goes into the weights, 1/2 at m = 0 and 1
    above, so order m adds g_m to bin m mod nLon and conj(g_m) to bin
    -m mod nLon, wherever either bin is at most nLon//2.
    """
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
    half = n_lon // 2 + 1
    conj = np.array([1.0, -1.0])
    maps = []
    for _ in sets:
        even, odd = sums.pop(0)
        even[:, 0] *= 0.5
        odd[:, 0] *= 0.5
        spectrum = np.zeros((n_lat, half), dtype=complex)
        parts = spectrum.view(float).reshape(n_lat, half, 2)  # [ring, bin, re/im]
        for start in range(0, L + 1, n_lon):
            e = even[:, start:start + n_lon].T  # [ring, order - start, re/im]
            o = odd[:, start:start + n_lon].T
            width = e.shape[1]
            low = max(1, n_lon - width + 1)  # the least bin b > 0 whose n_lon - b is here
            for rings, g in ((parts[:north], e + o), (parts[::-1][:south], e[:south] - o[:south])):
                rings[:, :min(width, half)] += g[:, :half]
                rings[:, 0, 0] += g[:, 0, 0]  # bin 0 is its own mirror
                rings[:, low:half] += g[:, n_lon - low:n_lon - half:-1] * conj
        del g  # the last ring temporary, freed before the FFT
        # unscaled inverse real DFT: 2 Re sum_{0<b<n_lon/2} spectrum[b] e^{2 pi i b k / n_lon}
        # plus the real parts of bin 0 and of the Nyquist bin
        vals = np.fft.irfft(spectrum, n=n_lon, axis=1, norm="forward")
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
    double >= 10^X for X = -4..17 (`floors`); per biased binary exponent
    e = 0..2047, X = floor(log10 a) of the binade's least double 2^(e-1023)
    and the least double >= 10^(X+1) if the binade holds one, else inf, so
    that floor(log10 a) = low[e] + (a >= thr[e]) for every a in the window
    (a binade holds at most one power of ten); and the ASCII digits of
    0..9999 as one uint32 each, plain in entries 0..9999 and with trailing
    zeros turned into NUL in entries 10^4..2*10^4-1.
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
    floors = np.array(floors)
    least = (np.arange(2048) << 52).view(np.float64)  # 2^(e-1023); 0 and inf at the ends
    above = np.searchsorted(floors, least, side="right")  # floors <= the binade's least double
    low = above - 5
    thr = np.append(floors, np.inf)[above]
    thr[:-1][thr[:-1] >= least[1:]] = np.inf  # not in the binade
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    chars = digits + ord("0")
    quads = np.concatenate([chars, chars * kept]).astype(np.uint8)
    tables = (pow10, pow10_hi, pow10 - pow10_hi, floors, low, thr, quads.view(np.uint32).ravel())
    for a in tables:
        a.flags.writeable = False
    return tables


def _format_g17(values, out=None):
    """The bytes of '%.17g' % v for every value, as the rows of an
    (n, _G17_WIDTH) uint8 array padded with NUL: `out` if given (any
    strided view, every byte of which is overwritten), else a new array.

    A value whose decimal exponent X = floor(log10 |v|) lies in [-4, 16],
    which %g prints in fixed notation, takes a few array operations:
    - X is found exactly from the biased binary exponent e of |v|, as
      low[e] + (|v| >= thr[e]) over two 2048-entry tables;
    - with k = 16 - X <= 20, 10^k is an exact double, and Dekker's
      error-free product (Numer. Math. 18 (1971) 224) gives |v| 10^k = p + e
      exactly, p an integer above 2^53.  D = p + floor(e), plus a carry
      decided on e - floor(e) with ties to even, is the correctly rounded
      17-digit significand.  It never rounds up to 10^17: the largest double
      below each power of ten in the window lies more than half a unit of
      the 17th digit below it;
    - D is cut into 4-digit groups, by integer division by constants and a
      multiply-subtract for each remainder, through a 10^4-entry digit table whose
      trailing zeros are NUL, and the sign, the "0." with its leading zeros
      and the decimal point are placed with static slices, one slice per
      (X, sign) group, and the groups' rows are scattered into `out`.
    Every other value (+-0, |v| < 1e-4, |v| >= 1e17, subnormals, inf, nan)
    is formatted by Python, one element at a time.
    """
    v = np.asarray(values, dtype=float).ravel()
    pow10, pow10_hi, pow10_lo, floors, low, thr, quads = _g17_tables()
    if out is None:
        out = np.empty((v.size, _G17_WIDTH), np.uint8)
    a = np.abs(v)
    fixed = (a >= floors[0]) & (a < floors[-1])
    at = np.flatnonzero(fixed)
    a = a[at]
    expo = a.view(np.int64) >> 52  # the biased exponent: a >= 0
    x = low[expo] + (a >= thr[expo])
    k = 16 - x
    b, b_hi, b_lo = pow10[k], pow10_hi[k], pow10_lo[k]
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    floor_e = e.astype(np.int64)  # truncated, then floored
    floor_e -= e < floor_e
    frac = e - floor_e
    d = p.astype(np.int64) + floor_e
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1).astype(bool))
    # sort by (X, sign), so that each group is one run of rows
    code = (2 * (x + 4) + (v[at] < 0)).astype(np.int8)
    order = np.argsort(code, kind="stable")
    d = d[order]
    # 17 digits as 1 + 4 x 4; a group whose later groups are all zero takes
    # the table half with its trailing zeros as NUL
    # (d >= 0, so // is also truncation; numpy's // by a constant is much
    # faster than its divmod)
    high = d // 10 ** 8
    low8 = d - high * 10 ** 8
    groups = np.empty((d.size, 5), np.int64)
    groups[:, 0] = lead = high // 10 ** 8
    mid = high - lead * 10 ** 8
    groups[:, 1] = mid // 10 ** 4
    groups[:, 2] = mid - groups[:, 1] * 10 ** 4
    groups[:, 3] = low8 // 10 ** 4
    groups[:, 4] = low8 - groups[:, 3] * 10 ** 4
    tail = 10 ** 4 * (low8 == 0)
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
    rows are laid out as fixed-width lines padded with NUL in one bytearray,
    whose numpy view _format_g17 fills in place; the bytearray's NULs are
    deleted and the rest written as soon as the block is formatted, so the
    temporaries stay at a few MB."""
    grid = fmap.grid
    theta = _trimmed(_format_g17(grid.colatitudes()))
    phi = _trimmed(_format_g17(grid.longitudes()))
    wt = theta.shape[1]
    wv = wt + phi.shape[1] + 2  # where the value field starts
    width = wv + _G17_WIDTH + 1
    buf = bytearray(_CSV_BLOCK_ROWS * grid.n_lon * width)
    block = np.frombuffer(buf, np.uint8).reshape(_CSV_BLOCK_ROWS, grid.n_lon, width)
    block[:, :, wt] = block[:, :, wv - 1] = ord(",")
    block[:, :, wt + 1:wv - 1] = phi
    block[:, :, -1] = ord("\n")
    field = block.reshape(-1, width)[:, wv:-1]  # one value's bytes per line
    with open(path, "wb") as f:
        f.write(b"theta,phi,value\n")
        for top in range(0, grid.n_lat, _CSV_BLOCK_ROWS):
            rows = fmap.values[top:top + _CSV_BLOCK_ROWS]
            n = rows.size
            block[:len(rows), :, :wt] = theta[top:top + len(rows), None]
            _format_g17(rows, field[:n])
            f.write((buf if n * width == len(buf) else buf[:n * width]).translate(None, b"\0"))


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
    [vmin, vmax]; a degenerate range maps everything to index 0.  A finite
    map whose vmax - vmin overflows has its values and both bounds halved
    first (exact for normal doubles); every other map takes them as they
    are.  The rounded indices lie in [0, 255] (vmin gives 0 and vmax gives
    exactly 255), so they are cast to uint8 and looked up with one np.take.
    The pixels are ready before the file is opened, so a failed open leaves
    no partial file.
    """
    vmin, vmax = float(fmap.values.min()), float(fmap.values.max())
    values, lo, hi = fmap.values, vmin, vmax
    if math.isinf(vmax - vmin):  # a finite range too wide for a double
        values, lo, hi = values * 0.5, vmin * 0.5, vmax * 0.5
    idx = values - lo
    if hi > lo:
        idx /= hi - lo
        idx *= 255.0
        np.rint(idx, out=idx)
    pixels = np.take(_colormap_table(colormap), idx.astype(np.uint8), axis=0)
    header = b"P6\n%d %d\n255\n" % (fmap.grid.n_lon, fmap.grid.n_lat)
    with open(path, "wb") as f:
        f.write(header)
        f.write(pixels)
    sidecar = {"vmin": vmin, "vmax": vmax, "colormap": colormap}
    with open(os.path.splitext(path)[0] + ".json", "w") as f:
        json.dump(sidecar, f, indent=1, sort_keys=True)
        f.write("\n")
