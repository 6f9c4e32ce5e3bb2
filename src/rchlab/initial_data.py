"""High/low-frequency data families used by the well-posedness experiments.

Everything is built from one band-limited bump ``psi`` whose transform is a
smooth plateau (1 on |k| <= 1/4, 0 beyond 1/2).  The high-frequency family
modulates psi to a dyadic carrier ``(33/24) 2^n`` (snapped to the lattice),
scaled by ``2^{-n s}``; the low-frequency family is ``(24/33) 2^{-n} psi``.
Certification helpers tabulate the norm identities these families are
designed to satisfy, with empirical constants taken over the top half of the
mode range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyOverflowError, InvalidParameterError
from .littlewood_paley import (BesovIndex, DyadicFilterBank, besov_norm,
                               block_norms, block_profile, build_filter_bank,
                               lp_norm, sequence_norm, smooth_plateau,
                               weight_profile)
from .spectral import Field, PeriodicGrid, ddx, product, synthesize

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


def max_feasible_n(grid: PeriodicGrid) -> int:
    """Largest mode index whose side bands fit under the dealias cap."""
    cap = grid.dealias_cap - SUPPORT_RADIUS
    if cap <= 0:
        return -1
    return int(math.floor(math.log2(cap / CARRIER_RATIO) + 1e-12))


def modulation_frequency(grid: PeriodicGrid, n: int) -> tuple[float, float]:
    """Lattice-snapped carrier for index n and the relative snap offset.

    Raises :class:`FrequencyOverflowError` (naming the maximal feasible n)
    when the carrier plus side band does not fit under the dealias cap.
    """
    if n < 0:
        raise InvalidParameterError(f"mode index must be nonnegative, got {n}")
    k_raw = CARRIER_RATIO * 2.0**n
    dk = 2.0 * np.pi / grid.length
    k_snap = round(k_raw / dk) * dk
    if k_snap + SUPPORT_RADIUS > grid.dealias_cap:
        raise FrequencyOverflowError(
            f"carrier {k_snap:.6g} + side band exceeds the dealias cap "
            f"{grid.dealias_cap:.6g}; maximal feasible n on this grid is "
            f"{max_feasible_n(grid)}",
            max_feasible_n=max_feasible_n(grid))
    return float(k_snap), abs(k_snap - k_raw) / 2.0**n


def make_w0n(bump: BumpProfile, n: int, s: float) -> Field:
    """High-frequency member: 2^{-n s} psi(x) sin(k_n x)."""
    grid = bump.grid
    k_n, _ = modulation_frequency(grid, n)
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
    z0n: Field
    carrier: float
    carrier_snap_offset: float


def build_family(bump: BumpProfile, n: int, s: float) -> DataFamily:
    """Assemble w0n, v0n, their sum, and the transport seed -u0n d_x u0n."""
    k_n, snap = modulation_frequency(bump.grid, n)
    w = make_w0n(bump, n, s)
    v = make_v0n(bump, n)
    u = Field(bump.grid, w.values + v.values)
    z = product(u, ddx(u), dealias=True)
    z.values = -z.values
    return DataFamily(n=n, s=s, w0n=w, v0n=v, u0n=u, z0n=z,
                      carrier=k_n, carrier_snap_offset=snap)


@dataclass
class CertTable:
    """Tabulated certification quantity over a mode range."""

    quantity: str
    ns: np.ndarray
    values: np.ndarray
    empirical_min: float  # over the top half of the range

    def rows(self) -> list[dict]:
        return [{"n": int(n), self.quantity: float(v)}
                for n, v in zip(self.ns, self.values)]


def _top_half(seq):
    """Upper half of a list, range or array: the window of every empirical
    floor and fitted slope."""
    return seq[len(seq) // 2:]


def check_psii(bump: BumpProfile, a: float, n_range) -> CertTable:
    """Lattice L^a norms of psi^2 cos(k_n x); the empirical floor of these
    is the modulation-stability constant of the squared bump."""
    ns = np.asarray(list(n_range), dtype=int)
    psi2 = product(bump.field, bump.field)
    vals = []
    for n in ns:
        k_n, _ = modulation_frequency(bump.grid, int(n))
        f = Field(bump.grid, psi2.values * np.cos(k_n * bump.grid.x))
        vals.append(lp_norm(f, a))
    values = np.asarray(vals)
    return CertTable(quantity="psi2_cos_norm", ns=ns, values=values,
                     empirical_min=float(np.min(_top_half(values))))


def check_low_product(bump: BumpProfile, n_range, s: float, p: float,
                      bank: DyadicFilterBank | None = None) -> CertTable:
    """Sup-weighted Besov norms of v0n d_x w0n; their floor certifies the
    first-order gap between neighbouring family members."""
    ns = np.asarray(list(n_range), dtype=int)
    if bank is None:
        bank = build_filter_bank(bump.grid)
    if int(np.max(ns)) > bank.j_max:
        raise InvalidParameterError(
            f"block {int(np.max(ns))} not resolvable (j_max={bank.j_max}); "
            f"enlarge the grid")
    idx = BesovIndex(s, p, math.inf)
    vals = []
    for n in ns:
        w = make_w0n(bump, int(n), s)
        v = make_v0n(bump, int(n))
        f = product(v, ddx(w), dealias=True)
        vals.append(float(np.max(block_norms(bank, f, idx))))
    values = np.asarray(vals)
    return CertTable(quantity="low_product_norm", ns=ns, values=values,
                     empirical_min=float(np.min(_top_half(values))))


def _carrier_norms(bank: DyadicFilterBank, w: Field, indices,
                   p: float) -> list[float]:
    """Besov norms of ``w`` at each index from its one block profile, then
    ||d_x w||_{L^p}."""
    profile = block_profile(bank, w, p)
    row = [sequence_norm(weight_profile(profile, idx.s), idx.r)
           for idx in indices]
    row.append(lp_norm(ddx(w), p))
    return row


def certification_tables(bump: BumpProfile, n_range, s: float, p: float,
                         r: float = 2.0) -> list[CertTable]:
    """Every lemma-check table in one pass over the mode range.

    Emits the carrier norms at the three neighbouring regularities (their
    log2 slopes against n should be theta - s), the carrier derivative in
    L^p (slope 1 - s), the low-frequency companion norm (slope -1), the
    squared-bump modulation norms, and the low-product norms.
    """
    ns = list(n_range)
    bank = build_filter_bank(bump.grid)
    carrier_idx = {f"w0n_besov_{tag}": BesovIndex(theta, p, r) for theta, tag
                   in ((s - 1.0, "minus"), (s, "center"), (s + 1.0, "plus"))}
    # one member at a time, so that no member outlives its own row
    rows = [_carrier_norms(bank, make_w0n(bump, n, s), carrier_idx.values(), p)
            for n in ns]
    tables: list[CertTable] = []
    for quantity, column in zip([*carrier_idx, "dx_w0n_lp"], zip(*rows)):
        vals = np.asarray(column)
        tables.append(CertTable(
            quantity=quantity, ns=np.asarray(ns, dtype=int), values=vals,
            empirical_min=float(np.min(_top_half(vals)))))
    idx_s = BesovIndex(s, p, r)
    vals = np.asarray([besov_norm(bank, make_v0n(bump, n), idx_s) for n in ns])
    tables.append(CertTable(quantity="v0n_besov", ns=np.asarray(ns, dtype=int),
                            values=vals,
                            empirical_min=float(np.min(_top_half(vals)))))
    tables.append(check_psii(bump, p, ns))
    tables.append(check_low_product(bump, ns, s, p, bank))
    return tables


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
