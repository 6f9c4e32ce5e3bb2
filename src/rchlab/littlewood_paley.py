"""Dyadic frequency decomposition and the norms built from it.

The bank follows the standard construction: a smooth radial cutoff ``chi``
equal to 1 for |xi| <= 1 and 0 for |xi| >= 4/3, annular filters
``phi(xi) = chi(xi/2) - chi(xi)``, and dyadic blocks ``phi(2^{-j} xi)`` for
j >= 0 with the cutoff itself as block j = -1.  On a finite lattice the
family stops at ``j_max`` (largest j with (8/3) 2^j <= k_Nyquist); the
residual high-frequency tail is folded into block ``j_max`` so that the
blocks still sum to the identity on every lattice mode.  The bank stores
each filter on its support only, about N/2 floats in all.

A Besov norm is computed in two steps.  :func:`block_profile` transforms the
field once and measures every block in L^p: Plancherel for p = 2, one inverse
transform per block otherwise.  The profile does not depend on (s, r), so one
profile serves every regularity: :func:`weight_profile` applies the weights
2^{js} and :func:`sequence_norm` takes the l^r norm over j.
:func:`besov_norms` measures one field at several indices from one forward
transform and one profile per distinct p, as one row of a stacked
:func:`_besov_rows`: the profiles reduce along the last axis.
:func:`_distances` measures every per-snapshot norm of the campaigns and of
``norms.csv``, a stacked block of ``_stack_rows(N)`` rows per call, through
:func:`_chunked_norms`, which forms each block's rows only when it measures
them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .spectral import (Field, PeriodicGrid, _k_squared, _spectrum_energies,
                       _stack_rows, ddx, irfft, mode_energies, rfft)

log = logging.getLogger(__name__)


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    a = np.exp(-1.0 / ti)
    b = np.exp(-1.0 / (1.0 - ti))
    out[inner] = a / (a + b)
    return out


def smooth_plateau(r, lo: float, hi: float) -> np.ndarray:
    """Even profile equal to 1 for |r| <= lo and 0 for |r| >= hi."""
    if not 0.0 < lo < hi:
        raise InvalidParameterError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    return 1.0 - smooth_step((np.abs(r) - lo) / (hi - lo))


def chi_profile(xi) -> np.ndarray:
    """Low-frequency cutoff: 1 on |xi| <= 1, 0 on |xi| >= 4/3."""
    return smooth_plateau(xi, 1.0, 4.0 / 3.0)


@dataclass(frozen=True)
class BesovIndex:
    """Besov indices (s, p, r); p and r may be math.inf."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise InvalidParameterError(f"s must be finite, got {self.s!r}")
        for name, v in (("p", self.p), ("r", self.r)):
            if not (v >= 1.0):
                raise InvalidParameterError(f"{name} must lie in [1, inf], got {v!r}")


def _top_block(k_nyquist: float) -> int:
    """Largest j >= -1 with (8/3) 2^j <= ``k_nyquist``, with no tolerance."""
    j = -1
    while (8.0 / 3.0) * 2.0 ** (j + 1) <= k_nyquist:
        j += 1
    return j


class DyadicFilterBank:
    """Dyadic filters on the one-sided lattice spectrum, each stored on its
    support only."""

    def __init__(self, grid: PeriodicGrid):
        k = grid.k
        j_max = _top_block(grid.k_nyquist)
        if j_max < 3:
            raise InvalidParameterError(
                f"grid too small to host a dyadic family: j_max={j_max} < 3")
        self.grid = grid
        self.j_max = j_max
        # filters[j + 1] is block j, j = -1 .. j_max, on the [lo, hi) that
        # holds its nonzeros, supports[j + 1]; the top block absorbs
        # everything the family no longer resolves
        self.filters = []
        self.supports = []
        chi = chi_profile(k)
        self._keep(chi)
        for j in range(1, j_max + 1):
            prev, chi = chi, chi_profile(k / 2.0 ** j)
            self._keep(chi - prev)
        self._keep(1.0 - chi)

    def _keep(self, phi: np.ndarray) -> None:
        nz = np.flatnonzero(phi)
        lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
        self.filters.append(phi[lo:hi].copy())
        self.supports.append((lo, hi))

    def filter_for(self, j: int) -> np.ndarray:
        """Block j's filter on the whole one-sided spectrum, a fresh array."""
        if not -1 <= j <= self.j_max:
            raise InvalidParameterError(
                f"block {j} not resolvable on this grid (j_max={self.j_max})")
        out = np.zeros_like(self.grid.k)
        lo, hi = self.supports[j + 1]
        out[lo:hi] = self.filters[j + 1]
        return out

    def partition_values(self) -> np.ndarray:
        """Lattice sum of all filters; identically 1 up to rounding."""
        return self.filter_for(-1) + sum(self.filter_for(j)
                                         for j in range(self.j_max + 1))


def build_filter_bank(grid: PeriodicGrid) -> DyadicFilterBank:
    return DyadicFilterBank(grid)


def dyadic_block(bank: DyadicFilterBank, f: Field, j: int) -> Field:
    """Project ``f`` onto dyadic block ``j`` (zero field for j <= -2)."""
    spec = _spectrum(bank, f)
    n = f.grid.n_points
    if j <= -2:
        return Field(f.grid, np.zeros(n))
    return Field(f.grid, irfft(spec * bank.filter_for(j), n))


def lp_norm(f: Field, p: float) -> float:
    """Lattice L^p norm by the rectangle rule; p may be math.inf."""
    if not p >= 1.0:
        raise InvalidParameterError(f"p must lie in [1, inf], got {p!r}")
    return float(_lp_rows(f.values, f.grid.spacing, p))


def _lp_rows(vals: np.ndarray, h: float, p: float) -> np.ndarray:
    """:func:`lp_norm` of each row of ``vals``, along the last axis; at
    ``h = 1`` the l^p norm of each row, which :func:`sequence_norm` takes."""
    a = np.abs(vals)
    if p == math.inf:
        return np.max(a, axis=-1)
    if p == 1.0:  # numpy takes no fast path for ** 1.0: a pow per point
        return h * np.sum(a, axis=-1)
    # a scalar pow per row: numpy's vectorized pow differs in some last bits
    root = np.vectorize(lambda x: x ** (1.0 / p))
    if p == 2.0:  # the workloads' hot path; |x|^2 is normal for 1e-154..1e154
        return root(h * np.sum(a ** p, axis=-1))
    with np.errstate(over="ignore"):
        sums = h * np.sum(a ** p, axis=-1)
    norms = root(sums)
    # |x|^p under- or overflows for p far past the values' range, and a sum
    # below 2^-970 may hold subnormal terms, each off by up to 2^-1075, more
    # than an ulp of the sum: only those rows are summed again, scaled by
    # their peak (Blue 1978, LAPACK dnrm2)
    peak = np.max(a, axis=-1)
    lost = (((sums < 2.0 ** -970) | (sums == math.inf)) & (0.0 < peak)
            & (peak < math.inf))
    if np.any(lost):
        top = peak[lost]
        norms[lost] = root(h * np.sum((a[lost] / top[:, None]) ** p,
                                      axis=-1)) * top
    return norms


def _spectral_l2(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    # Plancherel on the lattice: ||g||_2^2 = L sum |c_m|^2 over signed modes;
    # the energies double the paired modes, which doubles their sum exactly
    e = _spectrum_energies(spec, grid.n_points)
    return np.sqrt(grid.length
                   * (e[..., 0] + e[..., -1] + np.sum(e[..., 1:-1], axis=-1)))


def _block_lp_from_spec(spec: np.ndarray, grid: PeriodicGrid, p: float):
    if p == 2.0:
        return _spectral_l2(spec, grid)
    return _lp_rows(irfft(spec, grid.n_points), grid.spacing, p)


def _profile_from_spec(bank: DyadicFilterBank, spec: np.ndarray,
                       p: float) -> np.ndarray:
    # Each block spectrum is formed on its filter's support only.  Outside
    # it a full product holds +-0 and the buffer +0: the block values agree
    # up to the sign of zeros, which the norms' abs removes.
    block = np.zeros_like(spec)
    profile = []
    for (lo, hi), piece in zip(bank.supports, bank.filters):
        np.multiply(spec[..., lo:hi], piece, out=block[..., lo:hi])
        profile.append(_block_lp_from_spec(block, bank.grid, p))
        block[..., lo:hi] = 0.0
    return np.stack(profile, axis=-1)


def _spectrum(bank: DyadicFilterBank, f: Field) -> np.ndarray:
    """One-sided spectrum of ``f``, which must lie on the bank's grid."""
    if f.grid != bank.grid:
        raise InvalidParameterError("field grid does not match filter bank grid")
    return rfft(f.values)


def block_profile(bank: DyadicFilterBank, f: Field, p: float) -> np.ndarray:
    """Unweighted block norms ||block_j f||_{L^p} for j = -1 .. j_max."""
    return _profile_from_spec(bank, _spectrum(bank, f), p)


def weight_profile(profile: np.ndarray, s: float) -> np.ndarray:
    """Weighted block norms 2^{js} profile_j, j counting from -1."""
    return np.array([2.0 ** (j * s) * val
                     for j, val in enumerate(profile.tolist(), start=-1)])


def sequence_norm(a: np.ndarray, r: float) -> float:
    """l^r norm of a nonnegative sequence; r may be math.inf.  It is the
    L^r norm at unit spacing, rescued where the sum under- or overflows."""
    return float(_lp_rows(a, 1.0, r))


def _weighted(profile: np.ndarray, idx: BesovIndex) -> tuple[np.ndarray, float]:
    """Weighted block norms and their l^r norm; refuses a float overflow."""
    try:
        with np.errstate(over="raise"):
            weighted = weight_profile(profile, idx.s)
            norm = sequence_norm(weighted, idx.r)
    except (OverflowError, FloatingPointError):
        norm = math.inf
    if not math.isfinite(norm):
        raise InvalidParameterError("the weights 2^(js) or their l^r sum "
                                    f"overflow at s={idx.s!r}, r={idx.r!r}")
    return weighted, norm


def block_norms(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> np.ndarray:
    """Weighted block norms 2^{js} ||block_j f||_{L^p} for j = -1 .. j_max."""
    return _weighted(block_profile(bank, f, idx.p), idx)[0]


def _tail_fraction(bank: DyadicFilterBank, spec: np.ndarray) -> np.ndarray:
    energies = _spectrum_energies(spec, bank.grid.n_points)
    total = np.sum(energies, axis=-1)
    tail = np.sum(energies[..., bank.grid.k > (8.0 / 3.0) * 2.0 ** bank.j_max],
                  axis=-1)
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0.0)


def high_tail_fraction(bank: DyadicFilterBank, f: Field) -> float:
    """L^2 mass fraction beyond the top resolved annulus (8/3) 2^{j_max}."""
    return float(_tail_fraction(bank, _spectrum(bank, f)))


def _besov_rows(bank: DyadicFilterBank, spec: np.ndarray,
                indices) -> list[list[float]]:
    """Besov norms at each index of each row of the one-sided spectra
    ``spec`` (1-D: one row), from one stacked block profile per distinct p."""
    profiles: dict[float, np.ndarray] = {}
    norms = []
    for idx in indices:
        if idx.p not in profiles:
            profiles[idx.p] = _profile_from_spec(bank, spec, idx.p)
        norms.append([_weighted(profile, idx)[1]
                      for profile in np.atleast_2d(profiles[idx.p])])
    if log.isEnabledFor(logging.DEBUG):
        tail = float(np.max(_tail_fraction(bank, spec)))
        if tail > 1e-12:
            log.debug("besov_norm: %.3e of the L2 mass sits beyond the top "
                      "annulus and is carried by block j_max=%d", tail,
                      bank.j_max)
    return norms


def _distances(bank: DyadicFilterBank, states, ref,
               indices) -> list[list[float]]:
    """Besov norms of ``states[i] - ref[i]`` for each row i, one list per
    index (one array or scalar ``ref`` serves every row), formed and measured
    ``_stack_rows(N)`` rows at a time, never all rows at once."""
    ref = np.broadcast_to(ref, np.shape(states))
    return _chunked_norms(bank, len(states),
                          lambda rows: states[rows] - ref[rows], indices)


def _chunked_norms(bank: DyadicFilterBank, n_rows: int, make_rows,
                   indices) -> list[list[float]]:
    """Besov norms of ``n_rows`` rows, one list per index; ``make_rows(s)``
    forms the rows of slice ``s``, one block of ``_stack_rows(N)`` at a time."""
    step = _stack_rows(bank.grid.n_points)
    blocks = [_besov_rows(bank, rfft(make_rows(slice(i, i + step))), indices)
              for i in range(0, n_rows, step)]
    return [sum(col, []) for col in zip(*blocks)]


def besov_norms(bank: DyadicFilterBank, f: Field, indices) -> list[float]:
    """Besov norms of ``f`` at each index, as one row of :func:`_besov_rows`."""
    return [norms[0] for norms in _besov_rows(bank, _spectrum(bank, f),
                                              indices)]


def besov_norm(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> float:
    """Besov norm: l^r over j of the weighted block norms."""
    return besov_norms(bank, f, (idx,))[0]


def sobolev_h_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm via the lattice Plancherel identity."""
    sym = (1.0 + _k_squared(f.grid)) ** s
    return float(math.sqrt(f.grid.length * np.sum(sym * mode_energies(f))))


def w1p_norm(f: Field, p: float) -> float:
    """First-order Sobolev norm ||f||_p + ||f'||_p with spectral derivative."""
    return lp_norm(f, p) + lp_norm(ddx(f), p)
