"""High/low-frequency data families used by the well-posedness experiments.

Everything is built from one band-limited bump ``psi`` whose transform is a
smooth plateau (1 on |k| <= 1/4, 0 beyond 1/2).  The high-frequency family
modulates psi to a dyadic carrier ``(33/24) 2^n`` (snapped to the lattice),
scaled by ``2^{-n s}``; the low-frequency family is ``(24/33) 2^{-n} psi``.
:func:`certification_tables` tabulates the norm identities these families
are designed to satisfy, with empirical constants taken over the top half of
the mode range, in one pass that transforms each member once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyOverflowError, InvalidParameterError
from .littlewood_paley import (BesovIndex, DyadicFilterBank, _besov_rows,
                               _weighted, block_profile, build_filter_bank,
                               lp_norm, smooth_plateau)
from .spectral import (Field, PeriodicGrid, _dx_symbol, conv_spec, irfft, rfft,
                       synthesize)

PLATEAU_RADIUS = 0.25
SUPPORT_RADIUS = 0.5
CARRIER_RATIO = 33.0 / 24.0


@dataclass
class BumpProfile:
    """The band-limited bump and the grid it lives on."""

    grid: PeriodicGrid
    field: Field

    @property
    def peak(self) -> float:
        return float(self.field.values[self.grid.n_points // 2])


def build_psi(grid: PeriodicGrid) -> BumpProfile:
    """Synthesize the plateau bump; requires the lattice to resolve its
    transition band (frequency spacing at most 1/32)."""
    dk = 2.0 * np.pi / grid.length
    if dk > 1.0 / 32.0 + 1e-15:
        raise InvalidParameterError(
            f"frequency spacing {dk:.4g} too coarse for the plateau profile; "
            f"need length >= {64.0 * np.pi:.4g}")
    f = synthesize(grid, lambda k: smooth_plateau(k, PLATEAU_RADIUS, SUPPORT_RADIUS))
    return BumpProfile(grid=grid, field=f)


def _snapped_carrier(grid: PeriodicGrid, n: int) -> tuple[float, float]:
    """The carrier of index n rounded to the nearest lattice wavenumber, and
    the raw carrier."""
    k_raw = CARRIER_RATIO * 2.0**n
    dk = 2.0 * np.pi / grid.length
    return round(k_raw / dk) * dk, k_raw


def max_feasible_n(grid: PeriodicGrid) -> int:
    """Largest mode index whose snapped carrier plus side band fits under the
    dealias cap, or -1 when none does.

    The snapped carrier never falls as n grows, so the indices that fit are
    0 .. max_feasible_n, and the walk up from -1 stops at the last of them.
    """
    n = -1
    # 2.0**1024 overflows
    while n < 1023 and (_snapped_carrier(grid, n + 1)[0] + SUPPORT_RADIUS
                        <= grid.dealias_cap):
        n += 1
    return n


def modulation_frequency(grid: PeriodicGrid, n: int) -> tuple[float, float]:
    """Lattice-snapped carrier for index n and the relative snap offset.

    Raises :class:`FrequencyOverflowError` (naming the maximal feasible n)
    when the carrier plus side band does not fit under the dealias cap.
    """
    if n < 0:
        raise InvalidParameterError(f"mode index must be nonnegative, got {n}")
    top = max_feasible_n(grid)
    # refusing n > top first keeps 2.0**n finite
    if n > top:
        raise FrequencyOverflowError(
            f"carrier of mode index {n} + side band exceeds the dealias cap "
            f"{grid.dealias_cap:.6g}; maximal feasible n on this grid is {top}",
            max_feasible_n=top)
    k_snap, k_raw = _snapped_carrier(grid, n)
    return float(k_snap), abs(k_snap - k_raw) / 2.0**n


def make_w0n(bump: BumpProfile, n: int, s: float) -> Field:
    """High-frequency member: 2^{-n s} psi(x) sin(k_n x)."""
    grid = bump.grid
    k_n, _ = modulation_frequency(grid, n)
    # 2^1024 overflows a float; below 2^-1022 it is subnormal or zero
    if not (math.isfinite(s) and -1022 <= -n * s < 1024):
        raise InvalidParameterError(f"w0n's amplitude 2^(-n s) is not a "
                                    f"normal float at n={n}, s={s!r}")
    vals = 2.0 ** (-n * s) * bump.field.values * np.sin(k_n * grid.x)
    return Field(grid, vals)


def make_v0n(bump: BumpProfile, n: int) -> Field:
    """Low-frequency member: (24/33) 2^{-n} psi(x)."""
    return Field(bump.grid, (2.0 ** (-n) / CARRIER_RATIO) * bump.field.values)


@dataclass
class DataFamily:
    """One member of the combined family and its derived quantities."""

    n: int
    s: float
    w0n: Field
    v0n: Field
    u0n: Field
    carrier: float

    @functools.cached_property
    def z0n(self) -> Field:
        """Transport seed -u0n d_x u0n as one :func:`conv_spec`, on first read."""
        grid = self.u0n.grid
        su = rfft(self.u0n.values)
        un = irfft(su[:grid._dealias_from], grid.n_points)
        return Field(grid, -irfft(conv_spec(un, su * _dx_symbol(grid), grid),
                                  grid.n_points))


def build_family(bump: BumpProfile, n: int, s: float) -> DataFamily:
    """Assemble w0n, v0n and their sum; z0n is formed on first read."""
    k_n, _ = modulation_frequency(bump.grid, n)
    w = make_w0n(bump, n, s)
    v = make_v0n(bump, n)
    u = Field(bump.grid, w.values + v.values)
    return DataFamily(n=n, s=s, w0n=w, v0n=v, u0n=u, carrier=k_n)


@dataclass
class CertTable:
    """Tabulated certification quantity over a mode range."""

    quantity: str
    ns: np.ndarray
    values: np.ndarray
    empirical_min: float  # over the top half of the range


def _top_half(seq):
    """Upper half of a list, range or array: the window of every empirical
    floor and fitted slope."""
    return seq[len(seq) // 2:]


def _cert_table(quantity: str, ns, values) -> CertTable:
    values = np.asarray(values)
    return CertTable(quantity=quantity, ns=np.asarray(ns, dtype=int),
                     values=values,
                     empirical_min=float(np.min(_top_half(values))))


def _low_product_norm(bank: DyadicFilterBank, sv: np.ndarray,
                      sdw: np.ndarray, s: float, p: float) -> float:
    """Sup-weighted Besov norm of v0n d_x w0n, from the one-sided spectra
    ``sv`` of v0n and ``sdw`` of d_x w0n.

    Both factors are cut at the 2/3 cap and so is the result, so the product
    is formed on the N-point lattice: every alias of a product of two masked
    factors lands above the cap, where :func:`conv_spec` zeroes it.  Only
    rounding separates this from the exact 2N :func:`~rchlab.spectral.product`.
    """
    grid = bank.grid
    spec = conv_spec(irfft(sv[:grid._dealias_from], grid.n_points), sdw, grid)
    return _besov_rows(bank, spec, (BesovIndex(s, p, math.inf),))[0][0]


def check_low_product(bump: BumpProfile, n_range, s: float,
                      p: float) -> CertTable:
    """Sup-weighted Besov norms of v0n d_x w0n; their floor certifies the
    first-order gap between neighbouring family members.  The
    ``low_product_norm`` table of :func:`certification_tables`."""
    return certification_tables(bump, n_range, s, p)[-1]


def certification_tables(bump: BumpProfile, n_range, s: float, p: float,
                         r: float = 2.0) -> list[CertTable]:
    """Every lemma-check table in one pass over the mode range.

    Emits the carrier norms at the three neighbouring regularities (their
    log2 slopes against n should be theta - s), the carrier derivative in
    L^p (slope 1 - s), the low-frequency companion norm (slope -1), the
    L^p norms of psi^2 cos(k_n x) (their floor is the modulation-stability
    constant of the squared bump), and the low-product norms.  Each member
    w0n, v0n is built and transformed once, d_x w0n is read off the
    spectrum of w0n, and no member outlives its own row.
    """
    ns = [int(n) for n in n_range]
    if not ns:
        raise InvalidParameterError("need at least one mode index, got an "
                                    "empty range")
    grid = bump.grid
    bank = build_filter_bank(grid)
    if max(ns) > bank.j_max:
        raise InvalidParameterError(
            f"block {max(ns)} not resolvable (j_max={bank.j_max}); "
            f"enlarge the grid")
    carrier_idx = {f"w0n_besov_{tag}": BesovIndex(theta, p, r) for theta, tag
                   in ((s - 1.0, "minus"), (s, "center"), (s + 1.0, "plus"))}
    # psi is band-limited to |k| <= 1/2, so its square needs no spectral step
    psi2 = bump.field.values * bump.field.values
    # v0n = 2^{-n} fl(24/33) psi.  A power-of-two scale commutes with every
    # rounding in the transforms, abs, sums and sqrt while no value nears the
    # subnormal range (the least nonzero |v0n| is 9e-22 even at n = 11), so
    # at p = 1, 2 or inf the profile of v0n is 2^{n_min - n} times that of
    # v0(n_min), bit for bit.  At any other p, |v|^p rounds
    # differently under a scale, and each member takes its own norm.
    n_min = min(ns)
    v_profile = (block_profile(bank, make_v0n(bump, n_min), p)
                 if p in (1.0, 2.0, math.inf) else None)

    v_idx = BesovIndex(s, p, r)

    def v0n_besov(n: int, sv: np.ndarray) -> float:
        if v_profile is None:
            return _besov_rows(bank, sv, (v_idx,))[0][0]
        return _weighted(2.0 ** (n_min - n) * v_profile, v_idx)[1]

    def row(n: int) -> list[float]:
        sw = rfft(make_w0n(bump, n, s).values)
        sdw = sw * _dx_symbol(grid)
        sv = rfft(make_v0n(bump, n).values)
        k_n, _ = modulation_frequency(grid, n)
        return [*(norms[0] for norms in _besov_rows(bank, sw,
                                                    carrier_idx.values())),
                lp_norm(Field(grid, irfft(sdw, grid.n_points)), p),
                v0n_besov(n, sv),
                lp_norm(Field(grid, psi2 * np.cos(k_n * grid.x)), p),
                _low_product_norm(bank, sv, sdw, s, p)]

    quantities = [*carrier_idx, "dx_w0n_lp", "v0n_besov", "psi2_cos_norm",
                  "low_product_norm"]
    return [_cert_table(quantity, ns, column) for quantity, column
            in zip(quantities, zip(*[row(n) for n in ns]))]


def builtin_profile(name: str, grid: PeriodicGrid) -> Field:
    """Named initial states for the CLI and smoke tests."""
    if name == "zero":
        return Field(grid, np.zeros(grid.n_points))
    if name == "smoke":
        bump = build_psi(grid)
        dk = 2.0 * np.pi / grid.length
        q = round(0.75 / dk) * dk
        vals = 0.25 / bump.peak * bump.field.values * np.cos(q * grid.x)
        return Field(grid, vals)
    if name == "psi":
        return build_psi(grid).field
    raise InvalidParameterError(
        f"unknown builtin profile {name!r}; choose zero|smoke|psi")
