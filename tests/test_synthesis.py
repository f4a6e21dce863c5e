import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fracsphere import (AlgebraicSpectrum, CoefficientSet, DomainError,
                        FractionalModel, GridSpec, RngStream, evolution_snapshots,
                        sample_combined, synthesize, write_map_csv, write_map_image)
from fracsphere.specfun import _norm_assoc_order
from fracsphere.synthesis import (_ROWS_BLOCK, _colormap_table, _format_g17, _g17_tables,
                                  read_map_csv)


def naive_eval(coeffs, thetas, phis):
    """Independent pointwise oracle: the scalar path's per-order recurrence
    at each pixel's own cos(theta), one call per order for all pixels, with
    the phases applied here."""
    x = np.cos(thetas)
    total = np.zeros(x.size)
    for m in range(coeffs.L + 1):
        radial = _norm_assoc_order(coeffs.L, m, x)  # [l - m, pixel]
        ring = coeffs.values[m:, m] @ radial
        total += (1.0 if m == 0 else 2.0) * (ring * np.exp(1j * m * phis)).real
    return total


def dense_map(coeffs, grid):
    """Dense oracle: every ring's order sums from the per-order recurrence
    at every ring's own cos(theta), times every order's phases."""
    x = np.cos(grid.colatitudes())
    ring = np.array([coeffs.values[m:, m] @ _norm_assoc_order(coeffs.L, m, x)
                     for m in range(coeffs.L + 1)]).T  # [j, m]
    ring[:, 1:] *= 2.0
    phases = np.exp(1j * np.outer(np.arange(coeffs.L + 1), grid.longitudes()))
    return (ring @ phases).real


def zero_square(L):
    return np.zeros((L + 1, L + 1), dtype=complex)


def zero_coeffs(L):
    return CoefficientSet.from_square(zero_square(L))


def random_coeffs(L, seed=0):
    rng = np.random.default_rng(seed)
    values = zero_square(L)
    for ell in range(L + 1):
        values[ell, 0] = rng.normal()
        values[ell, 1: ell + 1] = rng.normal(size=ell) + 1j * rng.normal(size=ell)
    return CoefficientSet.from_square(values)


def test_constant_map():
    values = zero_square(3)
    values[0, 0] = 2.5
    c = CoefficientSet.from_square(values)
    fmap = synthesize(c, GridSpec(5, 8))
    assert np.allclose(fmap.values, 2.5, atol=1e-14)


def test_dipole_map():
    values = zero_square(2)
    values[1, 0] = 1.0
    c = CoefficientSet.from_square(values)
    grid = GridSpec(9, 4)
    fmap = synthesize(c, grid)
    expect = math.sqrt(3.0) * np.cos(grid.colatitudes())
    for k in range(grid.n_lon):
        assert fmap.values[:, k] == pytest.approx(expect, abs=1e-14)


def test_linearity():
    g = GridSpec(7, 12)
    c1, c2 = random_coeffs(10, 1), random_coeffs(10, 2)
    both = CoefficientSet.from_square(3.0 * c1.values + c2.values)
    lhs = synthesize(both, g).values
    rhs = 3.0 * synthesize(c1, g).values + synthesize(c2, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_fast_vs_naive_l64():
    c = random_coeffs(64, seed=7)
    grid = GridSpec(16, 32)  # 512 points
    fmap = synthesize(c, grid)
    scale = np.max(np.abs(fmap.values))
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, 16, 60), rng.integers(0, 32, 60)
    ref = naive_eval(c, grid.colatitudes()[rows], grid.longitudes()[cols])
    assert np.max(np.abs(fmap.values[rows, cols] - ref)) <= 1e-9 * scale


def test_parseval_gauss_grid():
    L = 64
    c = random_coeffs(L, seed=11)
    grid = GridSpec(L + 1, 2 * L + 1, gauss=True)
    fmap = synthesize(c, grid)
    quad_power = float(grid.quadrature_weights() @ (fmap.values ** 2).mean(axis=1))
    parseval = float(c.degree_power().sum())
    assert quad_power == pytest.approx(parseval, rel=1e-8)


def test_single_mode_longitudinal_content():
    # a pure (l, m) coefficient concentrates at longitudinal wavenumber m
    L, ell, m = 24, 20, 9
    values = zero_square(L)
    values[ell, m] = 1.0 - 0.5j
    c = CoefficientSet.from_square(values)
    grid = GridSpec(33, 2 * L + 2)
    fmap = synthesize(c, grid)
    spec = np.abs(np.fft.rfft(fmap.values, axis=1)) ** 2
    other = np.delete(spec, m, axis=1)
    assert np.sum(other) <= 1e-9 * np.sum(spec)


def test_l400_pixels_match_scipy_harmonics():
    # scipy's harmonics are orthonormal on the unit-area sphere; ours are
    # sqrt(4 pi) times them.  sph_harm_y_all gives every (l, m) of a ring at
    # phi = 0 (the radial factor), and each pixel adds its own e^{i m phi}.
    from scipy.special import sph_harm_y_all

    L = 400
    c = random_coeffs(L, seed=13)
    grid = GridSpec(96, 200)  # n_lon < 2L+1: the longitude fold aliases
    fmap = synthesize(c, grid)
    scale = np.max(np.abs(fmap.values))
    thetas, phis = grid.colatitudes(), grid.longitudes()
    rng = np.random.default_rng(17)
    rows, cols = rng.integers(0, 96, 300), rng.integers(0, 200, 300)
    m = np.arange(L + 1)
    values = c.values
    worst = 0.0
    for j in np.unique(rows):
        radial = math.sqrt(4.0 * math.pi) * sph_harm_y_all(L, L, thetas[j], 0.0)[:, :L + 1].real
        ring = (values * radial).sum(axis=0) * np.where(m == 0, 1.0, 2.0)
        ks = cols[rows == j]
        ref = (np.exp(1j * np.outer(phis[ks], m)) @ ring).real
        worst = max(worst, float(np.max(np.abs(fmap.values[j, ks] - ref))))
    assert worst <= 1e-10 * scale


@pytest.mark.parametrize("n_lon", [1, 2, 7, 13, 40, 41, 42, 64])
def test_fft_fold_matches_dense_sum(n_lon):
    # L = 20 needs 41 longitudes to resolve every order; fewer alias, and
    # the fold must still give the dense sum over all orders exactly.  The
    # half spectrum takes orders past n_lon/2 as mirrored bins, and an even
    # n_lon has a Nyquist bin (42, and 40 and 64 with aliased orders).  The
    # southern rings, mirrored from the northern ones, are checked against
    # sums at their own cos(theta): poles only, an equator ring, even and
    # odd ring counts, on both grid kinds
    L = 20
    c = random_coeffs(L, seed=n_lon)
    for n_lat in (2, 3, 8, 9):
        for gauss in (False, True):
            grid = GridSpec(n_lat, n_lon, gauss=gauss)
            fmap = synthesize(c, grid)
            dense = dense_map(c, grid)
            assert np.max(np.abs(fmap.values - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("L", sorted({0, 1, 7, 8, 19, _ROWS_BLOCK - 1, _ROWS_BLOCK,
                                       2 * _ROWS_BLOCK + 3, 2 * _ROWS_BLOCK - 1,
                                       2 * _ROWS_BLOCK, 2 * _ROWS_BLOCK + 1,
                                       3 * _ROWS_BLOCK - 1}))
def test_joint_synthesis_matches_dense_sum(L):
    # one call for several sets shares the recurrence and sums blocks of
    # _ROWS_BLOCK diagonals per matrix product: degrees below, at and past
    # one block, and degrees whose last diagonal ends a block part-filled;
    # the recurrence writes diagonal d into slab d % _ROWS_BLOCK, so degrees
    # that end a second or third block, or start one, cover the slab ring's
    # wrap across block ends; on grids that resolve every order and on ones
    # that alias
    sets = [random_coeffs(L, seed=s) for s in range(3)]
    for grid in (GridSpec(9, 2 * L + 2), GridSpec(8, max(1, L), gauss=True)):
        maps = synthesize(sets, grid)
        assert len(maps) == len(sets)
        for c, fmap in zip(sets, maps):
            dense = dense_map(c, grid)
            assert np.max(np.abs(fmap.values - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("gauss", [False, True])
@pytest.mark.parametrize("n_lat", [8, 9])
def test_joint_synthesis_bits_match_single(gauss, n_lat):
    # a set's map has the same bits whether it is synthesized alone or with
    # other sets of its degree: the stacked product has 4 rows per set, and
    # no row may depend on how many rows the matrix product has
    grid = GridSpec(n_lat, 40, gauss=gauss)
    for n_sets in (1, 2, 3, 5):
        sets = [random_coeffs(20, seed=s) for s in range(3, 3 + n_sets)]
        for c, fmap in zip(sets, synthesize(sets, grid)):
            assert np.array_equal(fmap.values, synthesize(c, grid).values)


@pytest.mark.parametrize("sets", [[], [zero_coeffs(4), zero_coeffs(5)]])
def test_synthesize_needs_sets_of_one_degree(sets):
    with pytest.raises(DomainError):
        synthesize(sets, GridSpec(5, 8))


@pytest.mark.parametrize("gauss", [False, True])
def test_colatitudes_mirror_symmetric(gauss):
    # synthesize evaluates ring n_lat-1-j at -cos(theta_j), from the
    # recurrence of ring j, so every grid kind must keep the rings mirrored
    for n_lat in (2, 3, 8, 9, 96, 512, 1025):
        theta = GridSpec(n_lat, 1, gauss=gauss).colatitudes()
        assert np.max(np.abs(theta + theta[::-1] - math.pi)) <= 2 * np.spacing(math.pi)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(1, 8)
    with pytest.raises(DomainError):
        GridSpec(4, 0)


def test_grid_counts_must_be_whole():
    for bad in (6.5, True, float("nan"), "8", None):
        with pytest.raises(DomainError):
            GridSpec(bad, 8)
        with pytest.raises(DomainError):
            GridSpec(8, bad)
    grid = GridSpec(6.0, np.int64(8))
    assert (grid.n_lat, grid.n_lon) == (6, 8) and type(grid.n_lat) is int
    assert grid.colatitudes().size == 6


def test_csv_round_trip(tmp_path):
    c = random_coeffs(6, seed=5)
    grid = GridSpec(4, 6)
    fmap = synthesize(c, grid)
    path = tmp_path / "map.csv"
    write_map_csv(fmap, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,value"
    assert len(lines) == 1 + 4 * 6
    back = read_map_csv(path, grid)
    assert np.array_equal(back.values, fmap.values)


def test_csv_bytes_match_per_value_format(tmp_path):
    # the array writer must give the bytes of one
    # "%.17g,%.17g,%.17g\n" per value, also for signed zeros, subnormals and
    # extreme magnitudes
    grid = GridSpec(33, 64)
    fmap = synthesize(random_coeffs(32, seed=21), grid)
    fmap.values[1, :7] = [-0.0, 0.0, 5e-324, -1e300, 1.0, 123456789.0, 1e-17]
    ref = ["theta,phi,value\n"]
    for j, th in enumerate(grid.colatitudes()):
        for k, ph in enumerate(grid.longitudes()):
            ref.append("%.17g,%.17g,%.17g\n" % (th, ph, fmap.values[j, k]))
    path = tmp_path / "map.csv"
    write_map_csv(fmap, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == hashlib.sha256("".join(ref).encode()).hexdigest())


def test_read_map_csv_row_count_mismatch(tmp_path):
    # a CSV of another grid is a DomainError, not a reshape traceback
    path = tmp_path / "map.csv"
    write_map_csv(synthesize(random_coeffs(4, seed=2), GridSpec(4, 6)), path)
    for grid in (GridSpec(4, 5), GridSpec(5, 6)):
        with pytest.raises(DomainError):
            read_map_csv(path, grid)
    assert read_map_csv(path, GridSpec(3, 8)).values.shape == (3, 8)  # 24 rows either way
    path.write_text("theta,phi,value\n0,0\n0,1\n")  # a column short
    with pytest.raises(DomainError):
        read_map_csv(path, GridSpec(2, 1))


@pytest.mark.parametrize("text", ["theta,phi,value\nx,0,1\n0,1,2\n",
                                  "theta,phi,value\n0,0,1\n0,1\n"])
def test_read_map_csv_bad_field(tmp_path, text):
    # a field that is not a number, or a ragged row, is a DomainError that
    # names the file, not numpy's ValueError
    path = tmp_path / "map.csv"
    path.write_text(text)
    with pytest.raises(DomainError, match="map.csv"):
        read_map_csv(path, GridSpec(2, 1))


def assert_g17(values):
    """_format_g17 gives the bytes of '%.17g' % v for every value."""
    values = np.asarray(values, dtype=float)
    text = _format_g17(values)
    assert text.shape == (values.size, 24)
    got = [row.tobytes().rstrip(b"\0") for row in text]
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != b"%.17g" % v]
    assert not bad, bad[:5]


def test_g17_random_bit_patterns():
    bits = np.random.default_rng(2301).integers(0, 2 ** 64, size=110_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size >= 100_000
    assert_g17(values)


def test_g17_fixed_notation_window():
    # |v| in [1e-4, 1e17), printed in fixed notation: random decimal
    # magnitudes, and random bit patterns with binary exponents -14..56
    rng = np.random.default_rng(2302)
    n = 60_000
    sign = rng.choice([-1.0, 1.0], n)
    decimal = sign * rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-4, 17, n)
    exponent = rng.integers(1023 - 13, 1023 + 57, n, dtype=np.uint64)
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    binary = ((exponent << np.uint64(52)) | mantissa).view(np.float64) * sign
    values = np.concatenate([decimal, binary])
    values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)]
    assert values.size >= 100_000
    assert_g17(values)


def test_g17_half_way_ties():
    # v = m / 2^(k+1) with m odd and 10^X <= v < 10^(X+1), k = 16 - X:
    # v 10^k = m 5^k / 2 lies exactly half-way between two 17-digit
    # significands N and N + 1, and %g rounds to the even one; m = 1 mod 4
    # makes N even, m = 3 mod 4 odd
    rng = np.random.default_rng(2303)
    values, parities = [], set()
    for x in range(-4, 16):
        k = 16 - x
        lo = math.ceil(Fraction(10) ** x * 2 ** (k + 1))
        hi = min(math.floor(Fraction(10) ** (x + 1) * 2 ** (k + 1)), 2 ** 53)
        for m in rng.integers(lo + 4, hi - 4, 100).tolist():
            for r in (1, 3):
                m_odd = m - m % 4 + r
                v = m_odd / 2 ** (k + 1)
                scaled = Fraction(v) * 10 ** k
                assert scaled.denominator == 2 and 10 ** 16 <= scaled < 10 ** 17
                parities.add((x, int(scaled) % 2))
                values += [v, -v]
    assert len(parities) == 2 * 20
    assert_g17(values)


def test_g17_powers_of_ten_neighbours():
    # a few doubles on either side of every power of ten from 1e-6 to 1e18,
    # which takes in both sides of the window's edges 1e-4 and 1e17 and of
    # 1e-5 and 1e16; and the claim that no double in the window rounds up to
    # the next power of ten: the largest double below each one prints below it
    values = []
    for j in range(-6, 19):
        t = float(f"1e{j}")
        below = t if Fraction(t) < Fraction(10) ** j else np.nextafter(t, 0.0)
        if -4 < j <= 17:
            assert Fraction("%.17g" % below) < Fraction(10) ** j
        up = down = t
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            values += [up, down]
        values.append(t)
    values = np.array(values)
    assert_g17(np.concatenate([values, -values]))


def test_g17_binade_edges():
    # the decimal exponent comes from two tables over the biased binary
    # exponent; check both neighbours of every binade edge 2^e that can reach
    # the fixed-notation window, and of every power of ten, against '%.17g',
    # and the tables' X against the exact floor(log10 v)
    values = []
    for t in [2.0 ** e for e in range(-14, 58)] + [float(f"1e{j}") for j in range(-5, 18)]:
        values += [np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)]
    values = np.array(values)
    assert_g17(np.concatenate([values, -values]))
    _, _, _, floors, low, thr, _ = _g17_tables()
    a = values[(values >= floors[0]) & (values < floors[-1])]
    expo = a.view(np.int64) >> 52
    for v, x in zip(a.tolist(), (low[expo] + (a >= thr[expo])).tolist()):
        assert Fraction(10) ** x <= Fraction(v) < Fraction(10) ** (x + 1)


def test_g17_special_values():
    tiny = np.finfo(float).tiny
    assert_g17([0.0, -0.0, 5e-324, -5e-324, np.nextafter(tiny, 0.0), tiny, 1e300, -1e300,
                np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan,
                1e-4, 1e16, 1e17, 9999999999999998.0, 99999999999999984.0, 1.0, -1.5])


def test_snapshot_csvs_match_per_value_format(model05, tmp_path):
    # the CSVs that simulate writes are the per-value '%.17g' of its maps
    grid = GridSpec(11, 24)
    times = [1e-12, 1e-5, 1e-4]
    maps = evolution_snapshots(model05, 12, times, grid, seed=4, out_dir=str(tmp_path))
    for t, fmap in zip(times, maps):
        ref = ["theta,phi,value\n"]
        for th, row in zip(grid.colatitudes(), fmap.values):
            ref += ["%.17g,%.17g,%.17g\n" % (th, ph, v) for ph, v in zip(grid.longitudes(), row)]
        assert (tmp_path / f"map_t{t:g}.csv").read_bytes() == "".join(ref).encode()


def test_zero_map_csv(tmp_path):
    fmap = synthesize(zero_coeffs(1), GridSpec(2, 1))
    path = tmp_path / "zero.csv"
    write_map_csv(fmap, path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(r.endswith(",0") for r in rows)


def test_ppm_bytes_documented_example(tmp_path):
    # 2x2 map [[0, 1], [0.5, 0.25]] on its range [0, 1] with the gray map:
    # indices 0, 255, 128, 64 -> documented raw bytes
    grid = GridSpec(2, 2)
    fmap = synthesize(zero_coeffs(1), grid)
    fmap.values = np.array([[0.0, 1.0], [0.5, 0.25]])
    path = tmp_path / "map.ppm"
    write_map_image(fmap, str(path), colormap="gray")
    raw = path.read_bytes()
    header = b"P6\n2 2\n255\n"
    expect = bytes([0, 0, 0, 255, 255, 255, 128, 128, 128, 64, 64, 64])
    assert raw == header + expect
    sidecar = json.loads((tmp_path / "map.json").read_text())
    assert sidecar["vmin"] == 0.0 and sidecar["vmax"] == 1.0
    assert sidecar["colormap"] == "gray"
    assert set(sidecar) == {"colormap", "vmax", "vmin"}


@pytest.mark.parametrize("colormap", ["gray", "coolwarm"])
def test_ppm_pixels_hit_every_index(tmp_path, colormap):
    # values that round to each of the 256 colour indices, vmin and vmax
    # included: the pixels are the table rows of the float indices, and the
    # uint8 indices never wrap
    grid = GridSpec(4, 128)
    fmap = synthesize(zero_coeffs(1), grid)
    fmap.values = -3.0 + 7.0 * np.random.default_rng(5).permutation(
        np.concatenate([np.arange(256) / 255.0, np.linspace(0.0, 1.0, 256)])).reshape(4, 128)
    path = tmp_path / "map.ppm"
    write_map_image(fmap, str(path), colormap=colormap)
    pixels = np.frombuffer(path.read_bytes().split(b"\n", 3)[3], np.uint8).reshape(4, 128, 3)
    vmin, vmax = fmap.values.min(), fmap.values.max()
    idx = np.rint((fmap.values - vmin) / (vmax - vmin) * 255.0).astype(np.intp)
    assert np.unique(idx).size == 256
    table = _colormap_table(colormap)
    assert np.array_equal(pixels, table[idx])
    for value, index in ((vmin, 0), (vmax, 255)):
        at = fmap.values == value
        assert at.any() and np.all(pixels[at] == table[index])


@pytest.mark.filterwarnings("error")
def test_ppm_range_past_largest_double(tmp_path):
    # vmax - vmin overflows for this finite map; halving the values and the
    # bounds keeps the indices exact: 0, 1/2 (rounded up), 1/2 and 1
    grid = GridSpec(2, 2)
    fmap = synthesize(zero_coeffs(1), grid)
    fmap.values = np.array([[-1e308, 0.0], [1.0, 1e308]])
    path = tmp_path / "wide.ppm"
    write_map_image(fmap, str(path), colormap="gray")
    assert path.read_bytes() == b"P6\n2 2\n255\n" + bytes(np.repeat([0, 128, 128, 255], 3).tolist())
    sidecar = json.loads((tmp_path / "wide.json").read_text())
    assert sidecar["vmin"] == -1e308 and sidecar["vmax"] == 1e308


def test_constant_map_single_color(tmp_path):
    grid = GridSpec(3, 4)
    fmap = synthesize(zero_coeffs(1), grid)
    fmap.values = np.full((3, 4), 1.25)
    path = tmp_path / "flat.ppm"
    write_map_image(fmap, str(path), colormap="coolwarm")
    raw = path.read_bytes()
    body = raw.split(b"\n", 3)[3]
    pixels = [body[i:i + 3] for i in range(0, len(body), 3)]
    assert len(set(pixels)) == 1


def test_unwritable_path_no_partial_file(tmp_path):
    grid = GridSpec(2, 2)
    fmap = synthesize(zero_coeffs(1), grid)
    missing = tmp_path / "no" / "such" / "dir" / "map.ppm"
    with pytest.raises(OSError):
        write_map_image(fmap, str(missing))
    assert not missing.exists()


def test_synthesis_from_isotropic_draw():
    # end to end: an isotropic draw synthesizes to finite values, and the
    # equiangular grid covers the poles
    spec = AlgebraicSpectrum(1.0, 1.0, 2.3)
    coeffs = sample_combined(FractionalModel(0.5, math.inf, spec, spec), 32, 1e-4,
                             RngStream(1))
    grid = GridSpec(17, 36)
    fmap = synthesize(coeffs, grid)
    assert np.all(np.isfinite(fmap.values))
    assert grid.colatitudes()[0] == 0.0
    assert grid.colatitudes()[-1] == pytest.approx(math.pi)
    # polar rings are constant in longitude
    assert np.ptp(fmap.values[0]) <= 1e-9
    assert np.ptp(fmap.values[-1]) <= 1e-9
