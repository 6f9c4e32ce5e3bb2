"""Dyadic filters, Besov/Sobolev norms, sharp constants."""

import logging
import math

import numpy as np
import pytest

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
