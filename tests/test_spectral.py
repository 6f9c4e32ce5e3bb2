"""Grid, multipliers, exact products, serialization."""

import csv
import io
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfft, rfft

from rchlab import spectral
from rchlab.errors import GridMismatchError, InvalidParameterError
from rchlab.eulerian import h1_integral
from rchlab.experiments import grid_for_block
from rchlab.littlewood_paley import sobolev_h_norm
from rchlab.spectral import (Field, PeriodicGrid, _spectrum_energies,
                             _stack_rows, conv_spec, ddx, dealias,
                             dealias_spec, field_from_binary, field_from_csv,
                             field_to_binary, field_to_csv, grad_p_conv,
                             helmholtz_inverse, mode_amplitudes, mode_energies,
                             pad_values, product, project_values, synthesize)

GRID = PeriodicGrid(2.0 * np.pi, 256)


def trig(fn):
    return Field(GRID, fn(GRID.x))


def test_grid_validation():
    with pytest.raises(InvalidParameterError):
        PeriodicGrid(2.0 * np.pi, 100)  # not a power of two
    with pytest.raises(InvalidParameterError):
        PeriodicGrid(2.0 * np.pi, 8)  # too small
    with pytest.raises(InvalidParameterError):
        PeriodicGrid(-1.0, 256)


def test_grid_layout():
    g = PeriodicGrid(2.0 * np.pi, 256)
    assert g.x[0] == -np.pi
    assert g.spacing == pytest.approx(2.0 * np.pi / 256)
    assert g.k_nyquist == 128.0
    assert g.dealias_cap == pytest.approx(2.0 / 3.0 * 128.0)
    assert g == PeriodicGrid(2.0 * np.pi, 256)
    assert hash(g) == hash(PeriodicGrid(2.0 * np.pi, 256))


def test_field_shape_checked():
    with pytest.raises(GridMismatchError):
        Field(GRID, np.zeros(100))


def test_ddx_exact_on_modes():
    f = trig(lambda x: np.sin(3.0 * x))
    expect = 3.0 * np.cos(3.0 * GRID.x)
    assert np.max(np.abs(ddx(f).values - expect)) <= 1e-12


def test_helmholtz_inverse_multiplier():
    # (1 - dxx)^{-1} cos(2x) = cos(2x) / 5
    f = trig(lambda x: np.cos(2.0 * x))
    expect = np.cos(2.0 * GRID.x) / 5.0
    assert np.max(np.abs(helmholtz_inverse(f).values - expect)) <= 1e-13


def test_grad_p_matches_composition():
    rng = np.random.default_rng(7)
    spec = np.zeros(129, dtype=complex)
    spec[1:40] = rng.normal(size=39) + 1j * rng.normal(size=39)
    f = Field(GRID, np.fft.irfft(spec, 256))
    a = grad_p_conv(f).values
    b = ddx(helmholtz_inverse(f)).values
    assert np.max(np.abs(a - b)) <= 1e-13


@pytest.mark.parametrize("grid", [GRID, PeriodicGrid(64.0 * np.pi, 2**12)])
def test_derivative_drops_the_unpaired_nyquist_mode(grid):
    # cos(pi x / h) is (-1)^j, the unpaired Nyquist mode alone: an odd
    # multiplier cannot tell its +-N/2 halves apart, so the derivative is 0
    # and the H1 integral is the squared L2 norm, with no derivative part
    f = Field(grid, np.cos(np.pi * grid.x / grid.spacing))
    assert np.all(ddx(f).values == 0.0)
    assert np.all(grad_p_conv(f).values == 0.0)
    l2_squared = grid.spacing * np.sum(f.values**2)
    assert h1_integral(f) == pytest.approx(l2_squared, rel=1e-14)


def test_kernel_self_adjoint():
    # lattice inner product <p*f, g> = <f, p*g>
    rng = np.random.default_rng(3)
    f = Field(GRID, rng.normal(size=256))
    g = Field(GRID, rng.normal(size=256))
    h = GRID.spacing
    lhs = h * np.dot(helmholtz_inverse(f).values, g.values)
    rhs = h * np.dot(f.values, helmholtz_inverse(g).values)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_parseval():
    rng = np.random.default_rng(11)
    f = Field(GRID, rng.normal(size=256))
    c = mode_amplitudes(f)
    weights = np.full(len(c), 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    spectral = GRID.length * np.sum(weights * np.abs(c) ** 2)
    physical = GRID.spacing * np.sum(f.values**2)
    assert spectral == pytest.approx(physical, rel=1e-12)


def test_mode_energies_are_the_weighted_lattice_energies():
    rng = np.random.default_rng(12)
    f = Field(GRID, rng.normal(size=256))
    c2 = np.abs(mode_amplitudes(f)) ** 2
    weights = np.full(len(c2), 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    energies = mode_energies(f)
    assert np.array_equal(energies, weights * c2)  # doubling is exact
    physical = GRID.spacing * np.sum(f.values**2)
    assert GRID.length * np.sum(energies) == pytest.approx(physical, rel=1e-12)


def test_product_exact_trig():
    f = trig(np.sin)
    g = trig(np.cos)
    expect = 0.5 * np.sin(2.0 * GRID.x)
    assert np.max(np.abs(product(f, g).values - expect)) <= 1e-14


def test_product_matches_pointwise_when_resolved():
    # band-limited inputs whose product still fits: no aliasing either way
    f = trig(lambda x: np.cos(5.0 * x))
    g = trig(lambda x: np.sin(7.0 * x))
    exact = f.values * g.values
    assert np.max(np.abs(product(f, g).values - exact)) <= 1e-13


def test_product_dealias_zeroes_tail():
    # 60 is under the cap (85.3) but 120 is over: cos^2 = 1/2 + cos(120x)/2
    # keeps only its mean after the output mask
    f = trig(lambda x: np.cos(60.0 * x))
    out = product(f, f, dealias=True)
    spec = mode_amplitudes(out)
    assert np.max(np.abs(spec[GRID.k > GRID.dealias_cap])) <= 1e-16
    assert out.values.mean() == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(out.values - 0.5)) <= 1e-12


def test_product_unresolved_differs_from_naive():
    # 170 + 170 = 340 > 256 wraps on the plain grid; padded product truncates
    f = trig(lambda x: np.cos(100.0 * x))
    naive = np.fft.rfft(f.values * f.values)
    padded = np.fft.rfft(product(f, f).values)
    assert np.max(np.abs(naive - padded)) > 1.0


@pytest.mark.parametrize("masked", [False, True])
def test_product_is_pad_times_pad_then_project(masked):
    # product multiplies one padded factor into the other in place; it must
    # still be the plain composition bit for bit, since IEEE products commute
    rng = np.random.default_rng(11)
    f = Field(GRID, rng.normal(size=256))
    g = Field(GRID, rng.normal(size=256))
    sa, sb = rfft(f.values), rfft(g.values)
    if masked:
        sa, sb = dealias_spec(sa, GRID), dealias_spec(sb, GRID)
    spec = project_values(pad_values(sa, GRID) * pad_values(sb, GRID),
                          GRID)
    if masked:
        spec = dealias_spec(spec, GRID)
    want = irfft(spec, 256)
    assert np.array_equal(product(f, g, dealias=masked).values, want)


@pytest.mark.parametrize("n", [2**10, 2**13, 2**16])
def test_pad_values_of_a_truncated_spectrum_is_the_zero_padded_form(n):
    # the pad scales the spectrum by the lattice factor 2 before the
    # transform and lets irfft zero-pad: bit for bit the zero-padded
    # spectrum transformed and then doubled, and a masked spectrum cut at
    # the cap pads like the masked spectrum itself
    grid = PeriodicGrid(64.0 * np.pi, n)
    half, m = n // 2, grid._dealias_from
    spec = rfft(np.random.default_rng(n).normal(size=(2, n)))
    padded = np.zeros((2, n + 1), dtype=np.complex128)
    padded[:, :half] = spec[:, :half]
    padded[:, half] = 0.5 * spec[:, half]
    want = irfft(padded, 2 * n)
    want *= 2.0
    assert np.array_equal(pad_values(spec, grid), want)
    assert np.array_equal(pad_values(spec[:, :m], grid),
                          pad_values(dealias_spec(spec, grid), grid))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 18), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_transforms_are_bit_identical_to_scipy(log2n, rows, seed):
    # rchlab transforms with numpy.fft, while the output manifest and the
    # tests' references were taken with scipy.fft: the two must agree bit
    # for bit, on stacked rows and on the kernel's spectra cut at the 2/3
    # cap, which irfft zero-pads to N and to the 2N lattice
    n = 2**log2n
    m = PeriodicGrid(64.0 * np.pi, n)._dealias_from
    vals = np.random.default_rng(seed).normal(size=(rows, n))
    spec = spectral.rfft(vals)
    assert spec.tobytes() == rfft(vals).tobytes()
    assert spectral.irfft(spec, n).tobytes() == irfft(spec, n).tobytes()
    cut = spec[:, :m]
    for size in (n, 2 * n):
        assert (spectral.irfft(cut, size).tobytes()
                == irfft(cut, size).tobytes()), size


@pytest.mark.parametrize("n", [2**k for k in range(11, 18)])
def test_stacked_transforms_match_row_by_row(n):
    # every grid the workloads use, 2^11..2^16 and the 2^17 of the
    # certification sweep, with its 2N kernel lattice: a stack is worth
    # taking only if each row comes out bit for bit as it does alone
    grid = PeriodicGrid(64.0 * np.pi, n)
    rows = max(2, _stack_rows(n))
    vals = np.random.default_rng(n).normal(size=(rows, n))
    spec = rfft(vals)
    padded = pad_values(spec, grid)
    stacked = (spec, irfft(spec, n), padded, project_values(padded, grid),
               conv_spec(vals, spec, grid), _spectrum_energies(spec, n))
    for i in range(rows):
        row = rfft(vals[i])
        row_padded = pad_values(row, grid)
        alone = (row, irfft(row, n), row_padded,
                 project_values(row_padded, grid),
                 conv_spec(vals[i], row, grid), _spectrum_energies(row, n))
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[i], want)


def _exact_product(sa, sb, grid):
    return project_values(pad_values(sa, grid) * pad_values(sb, grid), grid)


def _masked_pair(n, seed):
    grid = PeriodicGrid(64.0 * np.pi, n)
    vals = np.random.default_rng(seed).normal(size=(2, n))
    sa, sb = dealias_spec(rfft(vals), grid)
    return grid, sa, sb


@pytest.mark.parametrize("n", [2**k for k in range(10, 18)])
def test_conv_spec_on_n_points_is_exact_below_the_cap(n):
    # two masked factors: every alias of their product on the N-point lattice
    # lands above the 2/3 cap, so below it the product matches the 2N one
    grid, sa, sb = _masked_pair(n, n)
    want = _exact_product(sa, sb, grid)
    got = conv_spec(irfft(sa, n), sb, grid)
    kept = slice(0, grid._dealias_from)
    assert np.max(np.abs(got[kept] - want[kept])) <= \
        1e-14 * np.max(np.abs(want[kept]))
    # the result is zero above the cap, whatever sb holds there
    assert not np.any(got[grid._dealias_from:])
    noisy = sb.copy()
    noisy[grid._dealias_from:] = np.nan
    assert np.array_equal(conv_spec(irfft(sa, n), noisy, grid), got)


def test_conv_spec_on_n_points_aliases_an_unmasked_factor():
    # the N-point lattice relies on the mask: with the first factor's modes
    # above the cap kept, aliases fall below the cap
    grid, _, sb = _masked_pair(2**10, 5)
    sa = rfft(np.random.default_rng(6).normal(size=2**10))
    want = _exact_product(sa, sb, grid)
    got = conv_spec(irfft(sa, 2**10), sb, grid)
    kept = slice(0, grid._dealias_from)
    assert np.max(np.abs(got[kept] - want[kept])) > \
        0.1 * np.max(np.abs(want[kept]))


def test_stack_rows_caps_the_points_of_one_call():
    assert [_stack_rows(2**k) for k in (10, 12, 13, 15, 16, 20)] == \
        [32, 8, 4, 1, 1, 1]


@pytest.mark.parametrize("length", [2.0 * np.pi, 64.0 * np.pi, 1000.0])
def test_dealias_suffix_is_the_mask_bit_for_bit(length):
    # the modes above the cap are a suffix of the one-sided lattice
    rng = np.random.default_rng(11)
    for e in range(4, 18):
        grid = PeriodicGrid(length, 2**e)
        spec = rfft(rng.normal(size=(2, grid.n_points)))
        spec[:, -1] = np.nan  # the Nyquist mode lies above the cap
        spec[1, 1] = np.nan
        for s in (spec, spec[0]):
            before = s.copy()
            got = dealias_spec(s, grid)
            want = np.where(grid.k > grid.dealias_cap, 0.0, s)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), grid
            assert before.tobytes() == s.tobytes()  # the input is not written


def test_dealias_idempotent():
    # idempotent up to transform roundoff
    rng = np.random.default_rng(5)
    f = Field(GRID, rng.normal(size=256))
    once = dealias(f)
    twice = dealias(once)
    assert np.max(np.abs(once.values - twice.values)) <= 1e-14


def test_synthesize_places_modes():
    L = 2.0 * np.pi
    g = PeriodicGrid(L, 256)

    def transform(k):
        return np.where(np.isclose(k, 3.0), 0.5 * L, 0.0)

    f = synthesize(g, transform)
    expect = np.cos(3.0 * g.x)
    assert np.max(np.abs(f.values - expect)) <= 1e-12


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    f = Field(GRID, rng.normal(size=256))
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    g = field_from_csv(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,value"


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    f = Field(GRID, rng.normal(size=256))
    path = tmp_path / "f.bin"
    field_to_binary(f, path)
    g = field_from_binary(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)


def test_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n")  # 1 point: not a valid grid
    with pytest.raises(InvalidParameterError):
        field_from_csv(path)


def test_csv_rejects_non_finite_values(tmp_path):
    values = np.linspace(-1.0, 1.0, 256)
    values[17] = math.nan
    path = tmp_path / "holed.csv"
    field_to_csv(Field(GRID, values), path)
    with pytest.raises(InvalidParameterError, match="holed.csv"):
        field_from_csv(path)


def _csv_writer_reference(f):
    # the writer that field_to_csv replaced; its bytes are the file format
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "value"])
    for x, v in zip(f.grid.x, f.values):
        writer.writerow([repr(float(x)), repr(float(v))])
    return buf.getvalue().encode()


def test_csv_bytes_match_csv_writer(tmp_path):
    extremes = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308,
                0.1, -1.0 / 3.0]
    values = np.random.default_rng(3).normal(size=GRID.n_points)
    values[:len(extremes)] = extremes
    f = Field(GRID, values)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    assert path.read_bytes() == _csv_writer_reference(f)
    g = field_from_csv(path)
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(np.signbit(g.values), np.signbit(f.values))


def test_csv_blocks_and_cached_abscissae(tmp_path):
    # more rows than one block, and two grids of one size written in turn,
    # so the cached x column of each grid is replaced by the other's
    rng = np.random.default_rng(11)
    grids = [PeriodicGrid(64.0 * np.pi, 2**13), PeriodicGrid(10.0, 2**13)]
    for i, grid in enumerate(grids * 2):
        f = Field(grid, rng.normal(size=grid.n_points))
        path = tmp_path / f"f{i}.csv"
        field_to_csv(f, path)
        assert path.read_bytes() == _csv_writer_reference(f), i


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([16, 32, 128]).flatmap(
           lambda n: arrays(np.float64, n, elements=st.floats(
               allow_nan=False, allow_infinity=False))),
       st.floats(min_value=1e-3, max_value=1e6))
def test_csv_roundtrip_is_exact(values, length):
    f = Field(PeriodicGrid(length, values.size), values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        field_to_csv(f, path)
        g = field_from_csv(path)
    assert g.grid == f.grid
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(np.signbit(g.values), np.signbit(f.values))


def _lattice_rows(n=16):
    return [f"{x!r},{0.5 * i!r}" for i, x in
            enumerate(PeriodicGrid(2.0 * np.pi, n).x.tolist())]


MALFORMED_CSV = {
    "empty_file": "",
    "header_only": "x,value\n",
    "wrong_header": "t,value\n" + "\n".join(_lattice_rows()) + "\n",
    "ragged_row": "x,value\n" + "\n".join(_lattice_rows()[:5]
                                           + [_lattice_rows()[5] + ",1.0"]
                                           + _lattice_rows()[6:]) + "\n",
    "three_columns": "x,value\n" + "\n".join(r + ",0.0" for r in
                                              _lattice_rows()) + "\n",
    "non_numeric_cell": "x,value\n" + "\n".join(_lattice_rows()[:3]
                                                 + ["0.5,abc"]) + "\n",
    "empty_cell": "x,value\n" + "\n".join(_lattice_rows()[:3]
                                           + ["0.5,"]) + "\n",
    "hash_in_cell": "x,value\n" + "\n".join(_lattice_rows()[:3]
                                             + ["0.5,1.0#2"]) + "\n",
    "row_count_not_a_grid": "x,value\n" + "\n".join(_lattice_rows(32)[:24])
                            + "\n",
    "not_a_lattice": "x,value\n" + "\n".join(
        f"{0.1 * i * i - 1.0!r},1.0" for i in range(16)) + "\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
def test_csv_rejects_malformed_files(tmp_path, case):
    path = tmp_path / "malformed.csv"
    path.write_text(MALFORMED_CSV[case])
    with pytest.raises(InvalidParameterError, match="malformed.csv"):
        field_from_csv(path)


def _header(length, n_real):
    return struct.pack("<dd", length, n_real)


GOOD_PAYLOAD = np.linspace(-1.0, 1.0, 16).astype("<f8").tobytes()

FORGED = {
    "short_header": bytes(12),
    "nan_count": _header(1.0, math.nan) + GOOD_PAYLOAD,
    "inf_count": _header(1.0, math.inf) + GOOD_PAYLOAD,
    "negative_count": _header(1.0, -16.0) + GOOD_PAYLOAD,
    "fractional_count": _header(1.0, 16.4) + GOOD_PAYLOAD,
    "count_not_power_of_two": _header(1.0, 24.0) + bytes(8 * 24),
    "nan_length": _header(math.nan, 16.0) + GOOD_PAYLOAD,
    "zero_length": _header(0.0, 16.0) + GOOD_PAYLOAD,
    "truncated_payload": _header(1.0, 16.0) + GOOD_PAYLOAD[:-8],
    "trailing_bytes": _header(1.0, 16.0) + GOOD_PAYLOAD + bytes(8),
    "nan_value": (_header(1.0, 16.0) + struct.pack("<d", math.nan)
                  + GOOD_PAYLOAD[8:]),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_binary_rejects_forged_files(tmp_path, case):
    path = tmp_path / "forged.bin"
    path.write_bytes(FORGED[case])
    with pytest.raises(InvalidParameterError, match="forged.bin"):
        field_from_binary(path)


@pytest.mark.filterwarnings("error")
def test_grid_refuses_a_length_that_overflows_k_nyquist():
    # pi / (1e-307 / 16) passes the float range: refused before the
    # wavenumbers are formed, with no overflow warning on the way
    with pytest.raises(InvalidParameterError, match="k_Nyquist"):
        PeriodicGrid(1e-307, 16)


TINY = 2.2250738585072014e-308  # the least normal float
# the whole float line but (1e3, 1e200), where grid_for_block(6) would take
# up to 2^24 points before it refuses: every grid drawn stays under 2^17
LENGTHS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     1e-320, TINY, 64.0 * math.pi, 1e3, 1e200,
                     1.7976931348623157e308]),
    st.floats(max_value=0.0),
    st.floats(5e-324, TINY, exclude_max=True),
    st.floats(TINY, 1e-100),
    st.floats(64.0 * math.pi, 1e3),
    st.floats(1e200, allow_infinity=False))


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(LENGTHS, st.integers(4, 12), st.integers(0, 6))
# the spacing L/N rounds to 0
@example(5e-324, 4, 0)
# the spacing is subnormal and pi/h overflows
@example(1e-320, 4, 5)
def test_every_length_makes_a_lattice_or_is_refused(length, log_n, n_block):
    # PeriodicGrid and grid_for_block apply one length rule: each returns a
    # grid with a finite k_Nyquist or raises InvalidParameterError, and
    # neither warns nor raises anything else on the way
    for build in (lambda: PeriodicGrid(length, 2**log_n),
                  lambda: grid_for_block(n_block, length)):
        try:
            grid = build()
        except InvalidParameterError:
            continue
        assert grid.spacing > 0.0 and math.isfinite(grid.k_nyquist)
        assert grid.n_points <= 2**16


@pytest.mark.filterwarnings("error")
def test_k_squared_past_the_float_range_is_refused():
    # at L = 1e-300 the lattice exists, but k_Nyquist^2 overflows: the
    # Helmholtz symbol, the H^1 weight and an H^s weight are refused, not
    # formed as inf with a NaN after them
    zero = Field(PeriodicGrid(1e-300, 4096), np.zeros(4096))
    for op in (h1_integral, helmholtz_inverse, grad_p_conv,
               lambda f: sobolev_h_norm(f, 1.0)):
        with pytest.raises(InvalidParameterError, match="k_Nyquist\\^2"):
            op(zero)
    # one length where k_Nyquist^2 stays finite keeps its values
    zero = Field(PeriodicGrid(1e-140, 4096), np.zeros(4096))
    assert h1_integral(zero) == 0.0
    assert np.all(grad_p_conv(zero).values == 0.0)


def test_grid_above_the_cap_is_refused_before_allocating():
    # 2^40 points would take 8 TiB for the lattice alone
    with pytest.raises(InvalidParameterError, match="MAX_POINTS = 2\\^24"):
        PeriodicGrid(1.0, 2**40)
