"""Dyadic filters, Besov/Sobolev norms, sharp constants."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import rfft

import rchlab.littlewood_paley as lp
import rchlab.spectral as spectral
from rchlab.errors import InvalidParameterError
from rchlab.littlewood_paley import (BesovIndex, besov_norm, besov_norms,
                                     block_norms, block_profile,
                                     build_filter_bank, chi_profile,
                                     dyadic_block, high_tail_fraction,
                                     lp_norm, sequence_norm, sobolev_h_norm,
                                     w1p_norm, weight_profile)
from rchlab.spectral import Field, PeriodicGrid, ddx

GRID = PeriodicGrid(2.0 * np.pi, 4096)
BANK = build_filter_bank(GRID)


def random_band_limited(grid, kmax, seed=0):
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    m = int(kmax * grid.length / (2.0 * np.pi))
    spec[1:m + 1] = rng.normal(size=m) + 1j * rng.normal(size=m)
    return Field(grid, np.fft.irfft(spec, grid.n_points))


def test_chi_values():
    xi = np.array([0.0, 0.5, 1.0, 4.0 / 3.0, 1.34, 2.0])
    vals = chi_profile(xi)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
    assert vals[3] == 0.0 or vals[3] <= 1e-15
    assert vals[4] == 0.0
    assert vals[5] == 0.0
    mid = chi_profile(np.array([1.15]))[0]
    assert 0.0 < mid < 1.0


def test_phi_plateau_is_one():
    # block 5 filter equals 1 exactly on [4/3 * 32, 64]
    filt = BANK.filter_for(5)
    k = GRID.k
    on_plateau = (k >= 4.0 / 3.0 * 32.0 + 1e-9) & (k <= 64.0 - 1e-9)
    assert np.all(filt[on_plateau] == 1.0)


def test_jmax_value():
    # largest j with (8/3) 2^j <= 2048
    assert BANK.j_max == 9


def test_partition_of_unity():
    err = np.max(np.abs(BANK.partition_values() - 1.0))
    assert err <= 1e-12


def test_reconstruction():
    f = random_band_limited(GRID, 1800.0, seed=2)
    total = np.zeros(GRID.n_points)
    for j in range(-1, BANK.j_max + 1):
        total += dyadic_block(BANK, f, j).values
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(total - f.values)) <= 1e-11 * scale


def test_bernstein_constant_l2():
    # derivative of a block never beats (8/3) 2^j in L2, provided the field
    # carries no energy beyond what the dyadic family resolves
    f = random_band_limited(GRID, (8.0 / 3.0) * 2.0**BANK.j_max, seed=3)
    for j in range(-1, BANK.j_max + 1):
        blk = dyadic_block(BANK, f, j)
        num = lp_norm(ddx(blk), 2.0)
        den = lp_norm(blk, 2.0)
        if den == 0.0:
            continue
        assert num <= (8.0 / 3.0) * 2.0**j * den * (1.0 + 1e-12), f"j={j}"


def test_single_block_mode_norm():
    # sin(1024 x) lives entirely in block 9; its Besov norm is the exact
    # single-mode value 2^{9s} sqrt(pi) for every r
    f = Field(GRID, np.sin(1024.0 * GRID.x))
    for r in (1.0, 2.0, math.inf):
        idx = BesovIndex(2.0, 2.0, r)
        val = besov_norm(BANK, f, idx)
        expect = 2.0 ** (9 * 2.0) * math.sqrt(math.pi)
        assert abs(val - expect) <= 1e-3 * expect
    per_block = block_norms(BANK, f, BesovIndex(2.0, 2.0, 2.0))
    mask = np.ones(len(per_block), dtype=bool)
    mask[9 + 1] = False  # entry 0 is j=-1
    assert np.max(per_block[mask]) <= 1e-10 * per_block[9 + 1]


def test_homogeneity():
    f = random_band_limited(GRID, 900.0, seed=4)
    idx = BesovIndex(1.5, 2.0, 1.0)
    a = besov_norm(BANK, f, idx)
    b = besov_norm(BANK, Field(GRID, 3.0 * f.values), idx)
    assert b == pytest.approx(3.0 * a, rel=1e-12)


def test_linf_embedding_monitor():
    # critical-line Besov norm controls the sup norm with a modest constant
    for p, seed in ((2.0, 5), (1.5, 6)):
        f = random_band_limited(GRID, 800.0, seed=seed)
        idx = BesovIndex(1.0 / p, p, 1.0)
        assert lp_norm(f, math.inf) <= 3.0 * besov_norm(BANK, f, idx)


def test_block_edge_cases():
    f = random_band_limited(GRID, 100.0, seed=7)
    assert np.all(dyadic_block(BANK, f, -3).values == 0.0)
    with pytest.raises(InvalidParameterError):
        dyadic_block(BANK, f, BANK.j_max + 1)
    other = Field(PeriodicGrid(2.0 * np.pi, 256), np.zeros(256))
    with pytest.raises(InvalidParameterError):
        dyadic_block(BANK, other, 0)


@pytest.mark.parametrize("j", [-3, -2, BANK.j_max + 1])
def test_filter_outside_the_family_is_refused(j):
    # a list index would wrap: block -2 would read the top filter
    with pytest.raises(InvalidParameterError, match="not resolvable"):
        BANK.filter_for(j)


def test_grid_too_small_for_bank():
    with pytest.raises(InvalidParameterError):
        build_filter_bank(PeriodicGrid(64.0 * np.pi, 1024))


def test_high_tail_fraction():
    low = random_band_limited(GRID, 50.0, seed=8)
    assert high_tail_fraction(BANK, low) <= 1e-10
    top = Field(GRID, np.cos(2000.0 * GRID.x))
    assert high_tail_fraction(BANK, top) >= 0.99


def test_besov_index_validation():
    with pytest.raises(InvalidParameterError):
        BesovIndex(2.0, 0.5, 2.0)
    with pytest.raises(InvalidParameterError):
        BesovIndex(2.0, 2.0, 0.0)
    with pytest.raises(InvalidParameterError):
        BesovIndex(float("nan"), 2.0, 2.0)
    BesovIndex(2.0, math.inf, math.inf)  # endpoints allowed


def test_sobolev_h_norm_cos():
    f = Field(GRID, np.cos(GRID.x))
    assert sobolev_h_norm(f, 0.0) == pytest.approx(math.sqrt(math.pi),
                                                   rel=1e-12)
    assert sobolev_h_norm(f, 1.0) == pytest.approx(math.sqrt(2.0 * math.pi),
                                                   rel=1e-12)
    assert sobolev_h_norm(f, 2.0) > sobolev_h_norm(f, 1.0)


def test_w1p_norm_cos():
    f = Field(GRID, np.cos(GRID.x))
    assert w1p_norm(f, math.inf) == pytest.approx(2.0, abs=1e-10)
    expect = 2.0 * math.sqrt(math.pi)
    assert w1p_norm(f, 2.0) == pytest.approx(expect, rel=1e-10)


def test_lp_norm_validation():
    f = Field(GRID, np.ones(GRID.n_points))
    with pytest.raises(InvalidParameterError):
        lp_norm(f, 0.5)
    assert lp_norm(f, math.inf) == 1.0
    assert lp_norm(f, 1.0) == pytest.approx(GRID.length, rel=1e-12)
    # at a p far past the values' range, |x|^p underflows below 1 and
    # overflows above it: such a row is summed scaled by its peak, which
    # gives the peak itself at p = 1e308; a zero row's norm is still 0, and
    # a row that neither under- nor overflows keeps the formula's bits
    small, big = 0.5 * f.values, 3.0 * f.values
    for vals, peak in ((small, 0.5), (big, 3.0)):
        assert lp._lp_rows(vals, GRID.spacing, 1e308) == peak
        assert lp_norm(Field(GRID, vals), 1e308) == lp_norm(Field(GRID, vals),
                                                             math.inf)
    assert lp._lp_rows(np.stack([0.0 * small, small]), GRID.spacing,
                       1e308).tolist() == [0.0, 0.5]
    assert lp._lp_rows(np.zeros((2, 16)), 0.1, 1e308).tolist() == [0.0, 0.0]
    want = float(GRID.spacing * np.sum(small ** 3.0)) ** (1.0 / 3.0)
    assert lp_norm(Field(GRID, small), 3.0) == want
    # beside a row whose sum underflows, a row whose sum does not keeps
    # its bits
    tiny = 1e-17 * np.cos(GRID.x)
    rows = lp._lp_rows(np.stack([tiny, small]), GRID.spacing, 20.0)
    want = float(GRID.spacing * np.sum(small ** 20.0)) ** (1.0 / 20.0)
    assert rows[1] == want
    scaled = (float(GRID.spacing * np.sum((np.abs(tiny) / 1e-17) ** 20.0))
              ** (1.0 / 20.0)) * 1e-17
    assert rows[0] == scaled > 0.0


@pytest.mark.parametrize("p", [1990.0, 2050.0, 2080.0])
def test_lp_norm_rescues_a_sum_in_the_subnormal_range(p):
    # 0.7^p is subnormal here: summed as it is, it keeps 20 bits or fewer
    # (the norm came out 0.7000029 at p = 2080), so the row is summed scaled
    # by its peak, and a constant field's norm on a unit length is its value
    f = Field(PeriodicGrid(1.0, 16), np.full(16, 0.7))
    assert lp_norm(f, p) == 0.7


def test_besov_tail_diagnostic_only_at_debug(caplog, monkeypatch):
    calls = []
    tail_fraction = lp._tail_fraction

    def counted(bank, spec):
        calls.append(1)
        return tail_fraction(bank, spec)

    monkeypatch.setattr(lp, "_tail_fraction", counted)
    f = Field(GRID, np.cos(2000.0 * GRID.x))  # all mass beyond the top annulus
    idx = BesovIndex(1.0, 2.0, 2.0)
    caplog.set_level(logging.INFO, logger="rchlab.littlewood_paley")
    quiet = besov_norm(BANK, f, idx)
    assert calls == [] and "beyond the top annulus" not in caplog.text
    caplog.set_level(logging.DEBUG, logger="rchlab.littlewood_paley")
    assert besov_norm(BANK, f, idx) == quiet
    assert calls == [1] and "beyond the top annulus" in caplog.text


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_one_profile_serves_every_regularity(p):
    f = random_band_limited(GRID, 900.0, seed=4)
    profile = block_profile(BANK, f, p)
    for j in range(-1, BANK.j_max + 1):
        assert profile[j + 1] == pytest.approx(
            lp_norm(dyadic_block(BANK, f, j), p), rel=1e-12, abs=1e-300)
    for s in (-1.0, 0.0, 0.5, 2.0, 3.0):
        weighted = weight_profile(profile, s)
        for r in (1.0, 2.0, math.inf):
            idx = BesovIndex(s, p, r)
            assert np.array_equal(weighted, block_norms(BANK, f, idx))
            assert sequence_norm(weighted, r) == besov_norm(BANK, f, idx)
    # several indices in one call, with p interleaved, equal one besov_norm
    # per index bit for bit
    indices = [BesovIndex(s, q, r) for s in (-1.0, 2.0)
               for r in (1.0, 2.0, math.inf) for q in (p, 1.0, 2.0, math.inf)]
    assert besov_norms(BANK, f, indices) == [besov_norm(BANK, f, idx)
                                             for idx in indices]


def test_one_forward_transform_per_field(monkeypatch):
    calls = []
    rfft = lp.rfft

    def counted(values, *args, **kwargs):
        calls.append(1)
        return rfft(values, *args, **kwargs)

    f = random_band_limited(GRID, 900.0, seed=5)
    indices = [BesovIndex(2.0, 1.0, 2.0), BesovIndex(2.0, 2.0, 2.0),
               BesovIndex(1.0, math.inf, 1.0)]
    want = [besov_norm(BANK, f, idx) for idx in indices]
    monkeypatch.setattr(lp, "rfft", counted)
    assert besov_norms(BANK, f, indices) == want
    assert calls == [1]


def test_tail_diagnostic_reuses_the_spectrum(caplog, monkeypatch):
    f = Field(GRID, np.cos(0.3 * GRID.x) + np.cos(2000.0 * GRID.x))
    want = ("besov_norm: %.3e of the L2 mass sits beyond the top annulus and "
            "is carried by block j_max=%d" % (high_tail_fraction(BANK, f),
                                              BANK.j_max))
    calls = []

    def counted(fn):
        def wrapper(values, *args, **kwargs):
            calls.append(1)
            return fn(values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(lp, "rfft", counted(lp.rfft))
    monkeypatch.setattr(spectral, "rfft", counted(spectral.rfft))
    caplog.set_level(logging.DEBUG, logger="rchlab.littlewood_paley")
    besov_norm(BANK, f, BesovIndex(1.0, 2.0, 2.0))
    assert calls == [1]
    assert [r.getMessage() for r in caplog.records] == [want]


def test_supports_cover_every_nonzero():
    for bank in (BANK, build_filter_bank(PeriodicGrid(64.0 * np.pi, 2**14))):
        assert len(bank.supports) == bank.j_max + 2
        for j, (lo, hi) in enumerate(bank.supports, start=-1):
            phi = bank.filter_for(j)
            assert np.flatnonzero(phi).tolist() == [
                i for i in range(lo, hi) if phi[i] != 0.0], j


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("band_limited", [False, True], ids=["random", "band"])
def test_profile_on_supports_matches_full_products(p, band_limited):
    # a block spectrum formed on its filter's support differs from the
    # full-length product only in the sign of zeros, which no norm sees
    if band_limited:  # the blocks above k = 100 are zero
        f = random_band_limited(GRID, 100.0, seed=3)
    else:
        f = Field(GRID, np.random.default_rng(3).normal(size=GRID.n_points))
    spec = lp._spectrum(BANK, f)
    want = [lp._block_lp_from_spec(spec * BANK.filter_for(j), GRID, p)
            for j in range(-1, BANK.j_max + 1)]
    assert lp._profile_from_spec(BANK, spec, p).tolist() == want


def test_lp_norm_at_p1_is_the_pow_formula():
    f = Field(GRID, np.random.default_rng(4).normal(size=GRID.n_points))
    want = (GRID.spacing * np.sum(np.abs(f.values) ** 1.0)) ** 1.0
    assert lp_norm(f, 1.0) == want


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_stacked_distances_match_per_snapshot_norms(p):
    # N = 2^12 stacks 8 snapshots to a block, so 11 make a remainder of 3
    grid = PeriodicGrid(64.0 * np.pi, 2**12)
    assert spectral._stack_rows(grid.n_points) == 8
    bank = build_filter_bank(grid)
    rng = np.random.default_rng(31)
    states = rng.normal(size=(11, grid.n_points))
    refs = rng.normal(size=(11, grid.n_points))
    t = 0.01 * np.arange(11.0)
    idx = BesovIndex(1.5, p, 2.0)
    # per-snapshot, single-array, scalar and row-wise t h references
    for ref in (refs, refs[0], 0.0, t[:, None] * refs[0]):
        want = [besov_norm(bank, Field(grid, a - b), idx) for a, b
                in zip(states, np.broadcast_to(ref, states.shape))]
        assert lp._distances(bank, states, ref, (idx,)) == [want]
    # two indices, one call: a list of norms per index
    pair = (idx, BesovIndex(2.0, 1.0 if p == 2.0 else 2.0, 1.0))
    want = [besov_norms(bank, Field(grid, a - refs[0]), pair) for a in states]
    assert lp._distances(bank, states, refs[0], pair) == [
        [row[0] for row in want], [row[1] for row in want]]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
def test_zero_field_has_besov_norm_exactly_zero(p):
    idx = BesovIndex(2.0, p, 1.0)
    assert besov_norm(BANK, Field(GRID, np.zeros(GRID.n_points)), idx) == 0.0
    f = random_band_limited(GRID, 200.0, seed=3).values
    norms = lp._besov_rows(BANK, rfft(np.stack([f, 0.0 * f, 2.0 * f])),
                           (idx,))[0]
    assert norms[1] == 0.0
    assert norms[0] > 0.0 and norms[2] > 0.0


def _full_length_filters(grid):
    """The bank's filters as j_max + 2 full-length arrays, formed from all
    j_max + 1 cutoffs at once: the construction the bank's pieces replace."""
    k = grid.k
    j_max = lp._top_block(grid.k_nyquist)
    chis = [chi_profile(k / 2.0 ** j) for j in range(j_max + 1)]
    return [chis[0]] + [b - a for a, b in zip(chis, chis[1:])] + [1.0 - chis[-1]]


def _check_bank(grid):
    """Check the bank of ``grid``, or its refusal, against the full-length
    construction bit for bit; returns the bank or None."""
    if lp._top_block(grid.k_nyquist) < 3:
        with pytest.raises(InvalidParameterError, match="grid too small"):
            build_filter_bank(grid)
        return None
    bank = build_filter_bank(grid)
    want = _full_length_filters(grid)
    assert len(want) == len(bank.supports) == bank.j_max + 2
    for j, phi in enumerate(want, start=-1):
        assert bank.filter_for(j).tobytes() == phi.tobytes(), j
    assert bank.partition_values().tobytes() == (
        want[0] + np.sum(want[1:], axis=0)).tobytes()
    return bank


@pytest.mark.parametrize("length", [2.0 * np.pi, 64.0 * np.pi, 1000.0])
def test_filters_match_the_full_length_construction(length):
    for e in range(4, 20):
        _check_bank(PeriodicGrid(length, 2**e))


@settings(max_examples=60, deadline=None)
@given(length=st.floats(0.5, 5000.0), e=st.integers(4, 12))
def test_bank_partitions_unity_on_random_grids(length, e):
    grid = PeriodicGrid(length, 2**e)
    bank = _check_bank(grid)
    if bank is None:
        return
    assert np.max(np.abs(bank.partition_values() - 1.0)) <= 1e-15
    # each support is tight (an annulus may hold no lattice mode: (0, 0)),
    # and each mode lies in one support or two
    cover = np.zeros(len(grid.k), dtype=int)
    for (lo, hi), piece in zip(bank.supports, bank.filters):
        assert len(piece) == hi - lo
        assert hi == lo == 0 or piece[0] != 0.0 != piece[-1]
        cover[lo:hi] += 1
    assert 1 <= cover.min() and cover.max() <= 2


# |N(c f) - c N(f)| over c N(f); at most 37 ulps over 7,500 draws like these
HOMOGENEITY_ULPS = 128


@settings(max_examples=60, deadline=None)
@given(length=st.floats(0.5, 5000.0), e=st.integers(4, 12),
       scale=st.floats(1e-3, 1e3),
       p=st.one_of(st.sampled_from([1.0, 2.0, math.inf]),
                   st.floats(1.0, 1e308)),
       s=st.floats(-2.0, 3.0), r=st.sampled_from([1.0, 2.0, math.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_besov_norm_is_homogeneous_on_random_grids(length, e, scale, p, s, r,
                                                   seed):
    grid = PeriodicGrid(length, 2**e)
    if lp._top_block(grid.k_nyquist) < 3:
        return
    bank = build_filter_bank(grid)
    f = np.random.default_rng(seed).normal(size=grid.n_points)
    idx = BesovIndex(s, p, r)
    a = scale * besov_norm(bank, Field(grid, f), idx)
    b = besov_norm(bank, Field(grid, scale * f), idx)
    assert abs(b - a) <= HOMOGENEITY_ULPS * np.finfo(float).eps * a


def test_bank_keeps_only_its_supports():
    # at 2^20 points one full-length filter is N/2 + 1 floats, 4 MiB; the
    # full-length bank kept 56 MiB and peaked at 108 MiB while it built
    grid = PeriodicGrid(64.0 * np.pi, 2**20)
    full = 8 * (grid.n_points // 2 + 1)
    tracemalloc.start()
    try:
        bank = build_filter_bank(grid)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(piece.size for piece in bank.filters) * 8 <= 2 * full
    assert kept <= 2 * full
    assert peak < 8 * full
