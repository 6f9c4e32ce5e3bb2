"""Bump construction, the modulated families, and their certification."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rchlab import initial_data, littlewood_paley, spectral
from rchlab.errors import FrequencyOverflowError, InvalidParameterError
from rchlab.experiments import fit_line
from rchlab.initial_data import (build_family, build_psi, builtin_profile,
                                 certification_tables, check_low_product,
                                 make_v0n, make_w0n, max_feasible_n,
                                 modulation_frequency)
from rchlab.littlewood_paley import (BesovIndex, _besov_rows, besov_norm,
                                     block_norms, build_filter_bank,
                                     dyadic_block, lp_norm, smooth_plateau)
from rchlab.spectral import (Field, PeriodicGrid, _dx_symbol, conv_spec, ddx,
                             dealias_spec, irfft, mode_amplitudes, product,
                             rfft)

GRID64 = PeriodicGrid(64.0 * np.pi, 2**14)
BUMP = build_psi(GRID64)


def test_psi_transform_is_the_plateau():
    amp = mode_amplitudes(BUMP.field)
    signs = np.where(np.arange(len(amp)) % 2 == 0, 1.0, -1.0)
    prof = amp * GRID64.length * signs
    want = smooth_plateau(GRID64.k, 0.25, 0.5)
    assert np.max(np.abs(prof.imag)) <= 1e-12
    assert np.max(np.abs(prof.real - want)) <= 1e-12
    # plateau hits the endpoints exactly
    assert prof.real[GRID64.k <= 0.25].min() == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.abs(prof.real[GRID64.k >= 0.5]) <= 1e-13)


def test_psi_even_with_central_peak():
    v = BUMP.field.values
    mirrored = np.roll(v[::-1], 1)  # x -> -x on a lattice starting at -L/2
    assert np.max(np.abs(v - mirrored)) <= 1e-13
    assert BUMP.peak == pytest.approx(np.max(v))
    assert BUMP.peak > 0.0


def test_low_family_halves_bitwise():
    for n in (3, 5, 8):
        a = make_v0n(BUMP, n + 1)
        b = make_v0n(BUMP, n)
        assert np.array_equal(a.values, 0.5 * b.values)


def test_high_family_spectrum_localized():
    for n in (5, 6):
        w = make_w0n(BUMP, n, 2.0)
        k_n, _ = modulation_frequency(GRID64, n)
        amp = np.abs(mode_amplitudes(w))
        scale = np.max(amp)
        outside = np.abs(GRID64.k - k_n) > 0.5 + 1e-9
        assert np.max(amp[outside]) <= 1e-12 * scale


def test_high_family_occupies_one_dyadic_block():
    bank = build_filter_bank(GRID64)
    for n in (5, 6):
        w = make_w0n(BUMP, n, 2.0)
        total = lp_norm(w, 2.0)
        for j in range(-1, bank.j_max + 1):
            piece = lp_norm(dyadic_block(bank, w, j), 2.0)
            if j == n:
                assert piece == pytest.approx(total, rel=1e-12)
            else:
                assert piece <= 1e-12 * total


def test_modulation_snap():
    dk = 2.0 * np.pi / GRID64.length
    for n in (4, 5, 6):
        k_n, offset = modulation_frequency(GRID64, n)
        assert abs(k_n / dk - round(k_n / dk)) <= 1e-9
        raw = (33.0 / 24.0) * 2.0**n
        assert abs(k_n - raw) <= 0.5 * dk + 1e-12
        assert offset == pytest.approx(abs(k_n - raw) / 2.0**n)


def test_overflow_reports_feasible_range():
    grid = PeriodicGrid(2.0 * np.pi, 256)
    assert max_feasible_n(grid) == 5
    modulation_frequency(grid, 5)  # fits
    with pytest.raises(FrequencyOverflowError) as info:
        modulation_frequency(grid, 6)
    assert info.value.max_feasible_n == 5
    # far past the cap the index is refused before 2.0**n overflows
    with pytest.raises(FrequencyOverflowError) as info:
        modulation_frequency(grid, 1100)
    assert info.value.max_feasible_n == 5
    with pytest.raises(InvalidParameterError):
        modulation_frequency(grid, -1)


# (length, log2 N) -> max_feasible_n for the pinned examples below
PINNED_TOPS = {(3.0484360638576447, 8): 7, (35.270227409190504, 5): -1,
               (5e-307, 4): 1022}


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, math.log(5000.0)).map(math.exp), st.integers(4, 11))
# the lattice snap rounds the carrier of n = 7 under the cap
@example(3.0484360638576447, 8)
# ... and that of n = 0 over it, so no index fits
@example(35.270227409190504, 5)
# a cap near the float limit: 1022 fits, and 2^n stays below 2^1024
@example(5e-307, 4)
def test_max_feasible_n_is_the_largest_index_the_snap_accepts(length, log_n):
    grid = PeriodicGrid(length, 2**log_n)
    top = max_feasible_n(grid)
    assert top == PINNED_TOPS.get((length, log_n), top)
    assert top >= -1

    def fits(n):
        return (initial_data._snapped_carrier(grid, n)[0]
                + initial_data.SUPPORT_RADIUS <= grid.dealias_cap)

    if top >= 0:
        assert fits(top)
        modulation_frequency(grid, top)
    assert not fits(top + 1)
    with pytest.raises(FrequencyOverflowError) as info:
        modulation_frequency(grid, top + 1)
    assert info.value.max_feasible_n == top


def test_family_transport_seed():
    fam = build_family(BUMP, 5, 2.0)
    assert np.array_equal(fam.u0n.values, fam.w0n.values + fam.v0n.values)
    # bandwidth of u d_x u stays under the dealias cap here, so the spectral
    # product must agree with the pointwise one
    want = -fam.u0n.values * ddx(fam.u0n).values
    scale = np.max(np.abs(want))
    assert np.max(np.abs(fam.z0n.values - want)) <= 1e-12 * scale
    assert fam.carrier == pytest.approx((33.0 / 24.0) * 32.0, abs=0.5)


def test_transport_seed_is_formed_on_first_read():
    fam = build_family(BUMP, 6, 2.0)
    assert "z0n" not in vars(fam)
    # one product of the masked u0n and d_x u0n on the N-point lattice, its
    # result masked ...
    su = rfft(fam.u0n.values)
    un = irfft(dealias_spec(su, GRID64), GRID64.n_points)
    sdu = dealias_spec(su * _dx_symbol(GRID64), GRID64)
    spec = dealias_spec(rfft(irfft(sdu, GRID64.n_points) * un), GRID64)
    assert np.array_equal(fam.z0n.values, -irfft(spec, GRID64.n_points))
    # ... which only rounding separates from the exact 2N product
    exact = -product(fam.u0n, ddx(fam.u0n), dealias=True).values
    assert (np.max(np.abs(fam.z0n.values - exact))
            <= 2e-15 * np.max(np.abs(exact)))
    assert fam.z0n is fam.z0n


@pytest.mark.parametrize("p, r", [(2.0, 2.0), (1.0, 1.0), (1.0, math.inf),
                                  (math.inf, 2.0), (1.5, 2.0)])
def test_certification_tables_match_separate_norms(p, r):
    # one pass that transforms each member once must reproduce, bit for
    # bit, a separate computation of every table
    s, ns = 2.0, range(3, 7)
    bank = build_filter_bank(GRID64)
    tables = {t.quantity: t for t in certification_tables(BUMP, ns, s, p, r)}
    for theta, tag in ((s - 1.0, "minus"), (s, "center"), (s + 1.0, "plus")):
        want = [besov_norm(bank, make_w0n(BUMP, n, s), BesovIndex(theta, p, r))
                for n in ns]
        assert tables[f"w0n_besov_{tag}"].values.tolist() == want, tag
    want = [lp_norm(ddx(make_w0n(BUMP, n, s)), p) for n in ns]
    assert tables["dx_w0n_lp"].values.tolist() == want
    want = [besov_norm(bank, make_v0n(BUMP, n), BesovIndex(s, p, r))
            for n in ns]
    assert tables["v0n_besov"].values.tolist() == want
    # psi is band-limited to |k| <= 1/2, so psi^2 is its pointwise square ...
    psi = BUMP.field.values
    carriers = [np.cos(modulation_frequency(GRID64, n)[0] * GRID64.x)
                for n in ns]
    psi2_cos = tables["psi2_cos_norm"].values
    assert psi2_cos.tolist() == [lp_norm(Field(GRID64, psi * psi * c), p)
                                 for c in carriers]
    # ... which only rounding separates from the exact 2N product
    psi2 = product(BUMP.field, BUMP.field).values
    exact = [lp_norm(Field(GRID64, psi2 * c), p) for c in carriers]
    assert np.max(np.abs(psi2_cos - exact) / np.abs(exact)) <= 2e-15
    # the low product's factors and result are all cut at the 2/3 cap, so
    # it is formed on the N-point lattice and measured from its spectrum
    sup_idx = BesovIndex(s, p, math.inf)

    def n_lattice_low_product(n):
        sv = dealias_spec(rfft(make_v0n(BUMP, n).values), GRID64)
        sdw = dealias_spec(rfft(make_w0n(BUMP, n, s).values)
                           * _dx_symbol(GRID64), GRID64)
        spec = dealias_spec(conv_spec(irfft(sv, GRID64.n_points), sdw, GRID64),
                            GRID64)
        return _besov_rows(bank, spec, (sup_idx,))[0][0]

    low = tables["low_product_norm"].values
    assert low.tolist() == [n_lattice_low_product(n) for n in ns]
    # ... which only rounding separates from the exact 2N product
    exact = [float(np.max(block_norms(bank, product(
        make_v0n(BUMP, n), ddx(make_w0n(BUMP, n, s)), dealias=True),
        sup_idx))) for n in ns]
    assert np.max(np.abs(low - exact) / np.abs(exact)) <= 2e-15
    assert len(tables) == 7
    assert tables["low_product_norm"].values.tolist() == (
        check_low_product(BUMP, ns, s, p).values.tolist())


@pytest.mark.parametrize("ns", [range(3, 4), range(3, 7)])
def test_certification_makes_no_transform_at_2n(monkeypatch, ns):
    # every product the tables need is formed on the N-point lattice, or
    # pointwise for psi^2, however many mode indices the tables hold
    long_rows, lattice_rows = [], []

    def counted(fn, inverse):
        def wrapper(x, *args, **kwargs):
            # every irfft here passes its length
            m = args[0] if inverse else np.shape(x)[-1]
            if m in (GRID64.n_points, 2 * GRID64.n_points):
                (long_rows if m > GRID64.n_points else lattice_rows).append(
                    math.prod(np.shape(x)[:-1]))
            return fn(x, *args, **kwargs)
        return wrapper

    for module in (spectral, littlewood_paley, initial_data):
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(module, name, counted(getattr(module, name),
                                                      name == "irfft"))
    certification_tables(BUMP, ns, 2.0, 1.0)
    assert sum(long_rows) == 0
    assert sum(lattice_rows) > 0  # the wrappers do count


def test_certification_slopes():
    grid = PeriodicGrid(64.0 * np.pi, 2**16)
    bump = build_psi(grid)
    s = 2.0
    ns = range(5, 9)
    tables = {t.quantity: t for t in certification_tables(bump, ns, s, 2.0)}
    x = np.asarray(list(ns), dtype=float)

    expected = {
        "w0n_besov_minus": -1.0,
        "w0n_besov_center": 0.0,
        "w0n_besov_plus": 1.0,
        "dx_w0n_lp": 1.0 - s,
        "v0n_besov": -1.0,
    }
    for quantity, slope in expected.items():
        fit = fit_line(x, np.log2(tables[quantity].values))
        assert abs(fit.slope - slope) <= 0.05, (quantity, fit.slope)

    # the modulation-stability constant is n-independent at p = 2
    psi2 = tables["psi2_cos_norm"].values
    assert np.max(psi2) - np.min(psi2) <= 1e-12 * np.max(psi2)

    for quantity in ("psi2_cos_norm", "low_product_norm"):
        table = tables[quantity]
        assert table.empirical_min > 0.0
        top = table.values[len(table.values) // 2:]
        spread = (np.max(top) - np.min(top)) / np.max(top)
        assert spread <= 0.10, (quantity, spread)


def test_low_product_needs_resolvable_block():
    for tabulate in (check_low_product, certification_tables):
        with pytest.raises(InvalidParameterError, match="not resolvable"):
            tabulate(BUMP, [7], 2.0, 2.0)


def test_bump_needs_fine_frequency_lattice():
    with pytest.raises(InvalidParameterError):
        build_psi(PeriodicGrid(32.0 * np.pi, 2**10))


def test_builtin_profiles():
    zero = builtin_profile("zero", GRID64)
    assert not np.any(zero.values)
    smoke = builtin_profile("smoke", GRID64)
    mid = GRID64.n_points // 2
    assert smoke.values[mid] == pytest.approx(0.25, abs=1e-12)
    assert np.max(np.abs(smoke.values)) == pytest.approx(0.25, rel=1e-6)
    psi = builtin_profile("psi", GRID64)
    assert np.array_equal(psi.values, BUMP.field.values)
    with pytest.raises(InvalidParameterError):
        builtin_profile("mystery", GRID64)


def test_top_half_takes_lists_ranges_and_arrays():
    from rchlab.initial_data import _top_half

    assert _top_half([1, 2, 3, 4, 5]) == [3, 4, 5]
    assert list(_top_half(range(5, 10))) == [7, 8, 9]
    assert np.array_equal(_top_half(np.arange(4.0)), [2.0, 3.0])
