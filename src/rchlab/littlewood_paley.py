"""Dyadic frequency decomposition and the norms built from it.

The bank follows the standard construction: a smooth radial cutoff ``chi``
equal to 1 for |xi| <= 1 and 0 for |xi| >= 4/3, annular filters
``phi(xi) = chi(xi/2) - chi(xi)``, and dyadic blocks ``phi(2^{-j} xi)`` for
j >= 0 with the cutoff itself as block j = -1.  On a finite lattice the
family stops at ``j_max`` (largest j with (8/3) 2^j <= k_Nyquist); the
residual high-frequency tail is folded into block ``j_max`` so that the
blocks still sum to the identity on every lattice mode.

A Besov norm is computed in two steps.  :func:`block_profile` transforms the
field once and measures every block in L^p: Plancherel for p = 2, one inverse
transform per block otherwise.  The profile does not depend on (s, r), so one
profile serves every regularity: :func:`weight_profile` applies the weights
2^{js} and :func:`sequence_norm` takes the l^r norm over j.
:func:`besov_norms` measures one field at several indices from one forward
transform and one profile per distinct p.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .errors import InvalidParameterError
from .spectral import (Field, PeriodicGrid, _spectrum_energies, ddx,
                       mode_energies)

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


class DyadicFilterBank:
    """Precomputed dyadic filters on the one-sided lattice spectrum."""

    def __init__(self, grid: PeriodicGrid):
        k = grid.k
        j_max = int(math.floor(math.log2(grid.k_nyquist * 3.0 / 8.0) + 1e-12))
        while (8.0 / 3.0) * 2.0 ** (j_max + 1) <= grid.k_nyquist:
            j_max += 1
        if j_max < 3:
            raise InvalidParameterError(
                f"grid too small to host a dyadic family: j_max={j_max} < 3")
        self.grid = grid
        self.j_max = j_max
        self.chi_values = chi_profile(k)
        phis = []
        for j in range(j_max):
            phis.append(chi_profile(k / 2.0 ** (j + 1)) - chi_profile(k / 2.0 ** j))
        # top block absorbs everything the family no longer resolves
        phis.append(1.0 - chi_profile(k / 2.0 ** j_max))
        self.phi_values = phis

    def filter_for(self, j: int) -> np.ndarray:
        if j == -1:
            return self.chi_values
        return self.phi_values[j]

    def partition_values(self) -> np.ndarray:
        """Lattice sum of all filters; identically 1 up to rounding."""
        return self.chi_values + np.sum(self.phi_values, axis=0)


def build_filter_bank(grid: PeriodicGrid) -> DyadicFilterBank:
    return DyadicFilterBank(grid)


def dyadic_block(bank: DyadicFilterBank, f: Field, j: int) -> Field:
    """Project ``f`` onto dyadic block ``j`` (zero field for j <= -2)."""
    if f.grid != bank.grid:
        raise InvalidParameterError("field grid does not match filter bank grid")
    n = f.grid.n_points
    if j <= -2:
        return Field(f.grid, np.zeros(n))
    if j > bank.j_max:
        raise InvalidParameterError(
            f"block {j} not resolvable on this grid (j_max={bank.j_max})")
    spec = rfft(f.values) * bank.filter_for(j)
    return Field(f.grid, irfft(spec, n))


def lp_norm(f: Field, p: float) -> float:
    """Lattice L^p norm by the rectangle rule; p may be math.inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not p >= 1.0:
        raise InvalidParameterError(f"p must lie in [1, inf], got {p!r}")
    h = f.grid.spacing
    return float((h * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def _spectral_l2(spec: np.ndarray, grid: PeriodicGrid) -> float:
    # Plancherel on the lattice: ||g||_2^2 = L sum |c_m|^2 over signed modes
    n = grid.n_points
    c2 = np.abs(spec) ** 2 / n**2
    total = c2[0] + c2[-1] + 2.0 * np.sum(c2[1:-1])
    return float(math.sqrt(grid.length * total))


def _block_lp_from_spec(spec: np.ndarray, grid: PeriodicGrid, p: float) -> float:
    if p == 2.0:
        return _spectral_l2(spec, grid)
    if not np.any(spec):
        return 0.0
    return lp_norm(Field(grid, irfft(spec, grid.n_points)), p)


def _profile_from_spec(bank: DyadicFilterBank, spec: np.ndarray,
                       p: float) -> np.ndarray:
    return np.array([_block_lp_from_spec(spec * bank.filter_for(j), bank.grid, p)
                     for j in range(-1, bank.j_max + 1)])


def _spectrum(bank: DyadicFilterBank, f: Field) -> np.ndarray:
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
    """l^r norm of a nonnegative sequence; r may be math.inf."""
    if r == math.inf:
        return float(np.max(a))
    return float(np.sum(a ** r) ** (1.0 / r))


def block_norms(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> np.ndarray:
    """Weighted block norms 2^{js} ||block_j f||_{L^p} for j = -1 .. j_max."""
    return weight_profile(block_profile(bank, f, idx.p), idx.s)


def _tail_fraction(bank: DyadicFilterBank, spec: np.ndarray) -> float:
    energies = _spectrum_energies(spec, bank.grid.n_points)
    total = float(np.sum(energies))
    if total == 0.0:
        return 0.0
    tail = float(np.sum(energies[bank.grid.k > (8.0 / 3.0) * 2.0 ** bank.j_max]))
    return tail / total


def high_tail_fraction(bank: DyadicFilterBank, f: Field) -> float:
    """L^2 mass fraction beyond the top resolved annulus (8/3) 2^{j_max}."""
    return _tail_fraction(bank, _spectrum(bank, f))


def besov_norms(bank: DyadicFilterBank, f: Field, indices) -> list[float]:
    """Besov norms of ``f`` at each index: l^r over j of the weighted block
    norms, from one forward transform and one block profile per distinct p."""
    spec = _spectrum(bank, f)
    profiles: dict[float, np.ndarray] = {}
    norms = []
    for idx in indices:
        if idx.p not in profiles:
            profiles[idx.p] = _profile_from_spec(bank, spec, idx.p)
        norms.append(sequence_norm(weight_profile(profiles[idx.p], idx.s),
                                   idx.r))
    if log.isEnabledFor(logging.DEBUG):
        tail = _tail_fraction(bank, spec)
        if tail > 1e-12:
            log.debug("besov_norm: %.3e of the L2 mass sits beyond the top "
                      "annulus and is carried by block j_max=%d", tail,
                      bank.j_max)
    return norms


def besov_norm(bank: DyadicFilterBank, f: Field, idx: BesovIndex) -> float:
    """Besov norm: l^r over j of the weighted block norms."""
    return besov_norms(bank, f, (idx,))[0]


def sobolev_h_norm(f: Field, s: float) -> float:
    """Fractional Sobolev norm via the lattice Plancherel identity."""
    sym = (1.0 + f.grid.k**2) ** s
    return float(math.sqrt(f.grid.length * np.sum(sym * mode_energies(f))))


def w1p_norm(f: Field, p: float) -> float:
    """First-order Sobolev norm ||f||_p + ||f'||_p with spectral derivative."""
    return lp_norm(f, p) + lp_norm(ddx(f), p)
