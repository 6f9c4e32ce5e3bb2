"""Periodic pseudospectral toolbox on a uniform torus lattice.

All fields live on ``x_j = -L/2 + j*h`` with ``h = L/N`` and are transformed
with real FFTs; lattice wavenumbers are ``k_m = 2*pi*m/L``.  Nonlinear terms
are evaluated on a zero-padded lattice of M > N points: :func:`pad_values`
samples a spectrum there, any polynomial of the samples is formed pointwise,
and :func:`project_values` keeps the first N modes, folding the paired mode
N/2 onto the unpaired Nyquist mode.  No alias of a product of degree p enters
the kept modes when M exceeds (p + 1) N / 2, so M = 2N makes one product
(:func:`conv_spec`) exact.  The 2/3-rule mask (:func:`dealias_spec`) is a
separate step that callers apply to inputs and results.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .errors import GridMismatchError, InvalidParameterError

TWO_THIRDS = 2.0 / 3.0
# largest grid accepted; the largest in use is 2^19 (data --certify --n-max 11)
MAX_POINTS = 2**24


class PeriodicGrid:
    """Uniform lattice on a torus of circumference ``length``.

    ``n_points`` must be a power of two, at least 16, so dyadic filter banks
    and padded transforms stay exact, and at most ``MAX_POINTS``.
    """

    def __init__(self, length: float, n_points: int):
        if not (length > 0.0 and np.isfinite(length)):
            raise InvalidParameterError(f"length must be positive, got {length!r}")
        if n_points < 16 or (n_points & (n_points - 1)) != 0:
            raise InvalidParameterError(
                f"n_points must be a power of two >= 16, got {n_points!r}")
        if n_points > MAX_POINTS:
            raise InvalidParameterError(
                f"n_points {n_points} exceeds the limit MAX_POINTS = 2^"
                f"{MAX_POINTS.bit_length() - 1}")
        self.length = float(length)
        self.n_points = int(n_points)
        self.spacing = self.length / self.n_points
        self.x = -0.5 * self.length + self.spacing * np.arange(self.n_points)
        # one-sided (rfft) wavenumbers, 0..pi/h
        self.k = (2.0 * np.pi / self.length) * np.arange(self.n_points // 2 + 1)
        self.k_nyquist = np.pi / self.spacing
        self.dealias_cap = TWO_THIRDS * self.k_nyquist

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicGrid)
                and self.length == other.length
                and self.n_points == other.n_points)

    def __hash__(self):
        return hash((self.length, self.n_points))

    def __repr__(self):
        return f"PeriodicGrid(length={self.length!r}, n_points={self.n_points})"


@dataclass
class Field:
    """Real scalar field sampled on a :class:`PeriodicGrid`."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n_points,):
            raise GridMismatchError(
                f"values shape {vals.shape} does not match grid size "
                f"{self.grid.n_points}")
        self.values = vals

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def require_same_grid(f: Field, g: Field) -> PeriodicGrid:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")
    return f.grid


def mode_amplitudes(f: Field) -> np.ndarray:
    """One-sided complex mode amplitudes ``rfft(values)/N`` (phase included)."""
    return rfft(f.values) / f.grid.n_points


def synthesize(grid: PeriodicGrid, transform) -> Field:
    """Field whose line Fourier transform is ``transform(k)`` on the lattice.

    The lattice coefficients are ``transform(k_m)/L``, which periodizes the
    line profile; the result is centered at x = 0 and real when ``transform``
    is real and even.
    """
    prof = np.asarray(transform(grid.k), dtype=np.float64)
    signs = np.where(np.arange(grid.n_points // 2 + 1) % 2 == 0, 1.0, -1.0)
    spec = (grid.n_points / grid.length) * prof * signs
    return Field(grid, irfft(spec.astype(np.complex128), grid.n_points))


def _fourier_multiplier(f: Field, symbol: np.ndarray, odd: bool) -> Field:
    spec = rfft(f.values)
    spec *= symbol
    if odd:  # an odd multiplier is ambiguous at the unpaired Nyquist mode
        spec[-1] = 0.0
    return Field(f.grid, irfft(spec, f.grid.n_points))


def ddx(f: Field) -> Field:
    """Spectral derivative; exact for lattice-resolved bands."""
    return _fourier_multiplier(f, 1j * f.grid.k, odd=True)


def helmholtz_inverse(f: Field) -> Field:
    """Apply (1 - d_xx)^{-1}, i.e. convolution with the kernel exp(-|x|)/2."""
    return _fourier_multiplier(f, 1.0 / (1.0 + f.grid.k**2), odd=False)


def grad_p_conv(f: Field) -> Field:
    """Apply d_x (1 - d_xx)^{-1}, the derivative of the kernel convolution."""
    return _fourier_multiplier(f, 1j * f.grid.k / (1.0 + f.grid.k**2), odd=True)


def mode_energies(f: Field) -> np.ndarray:
    """Lattice energies |c_m|^2 of the one-sided modes, doubled for the paired
    modes 1 .. N/2-1, so that L times their sum is ||f||_2^2 (Plancherel)."""
    return _spectrum_energies(rfft(f.values), f.grid.n_points)


def _spectrum_energies(spec: np.ndarray, n_points: int) -> np.ndarray:
    """:func:`mode_energies` of the field whose one-sided spectrum is ``spec``."""
    energies = np.abs(spec) ** 2 / n_points**2
    energies[1:-1] *= 2.0
    return energies


def dealias_spec(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Copy of a one-sided spectrum with the modes above the 2/3-rule cap zeroed."""
    return np.where(grid.k > grid.dealias_cap, 0.0, spec)


def dealias(f: Field) -> Field:
    """Project onto modes below the 2/3-rule cap."""
    return Field(f.grid, irfft(dealias_spec(rfft(f.values), f.grid),
                               f.grid.n_points))


def pad_values(spec: np.ndarray, grid: PeriodicGrid, m: int) -> np.ndarray:
    """Samples on the ``m``-point lattice (m > N) of the field whose one-sided
    spectrum on ``grid`` is ``spec``; the unpaired Nyquist mode is split
    evenly between the paired modes +-N/2."""
    half = grid.n_points // 2
    padded = np.zeros(m // 2 + 1, dtype=np.complex128)
    padded[:half] = spec[:half]
    padded[half] = 0.5 * spec[half]
    vals = irfft(padded, m)
    vals *= m / grid.n_points
    return vals


def project_values(vals: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """One-sided spectrum on ``grid`` of samples on a finer lattice: the
    Galerkin projection onto the first N modes, with the paired mode N/2
    folded onto the unpaired Nyquist mode."""
    n = grid.n_points
    half = n // 2
    # multiplying copies the slice, so the M-point spectrum is freed here
    spec = rfft(vals)[:half + 1] * (n / vals.size)
    spec[half] = 2.0 * spec[half].real
    return spec


def conv_spec(sa: np.ndarray, sb: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Spectrum of the pointwise product, via an exact doubled-grid convolution.

    Inputs and output are one-sided (rfft) spectra on ``grid``; the output is
    the exact product projected onto the lattice modes, with no mask.
    """
    m = 2 * grid.n_points
    prod = pad_values(sa, grid, m)
    prod *= pad_values(sb, grid, m)
    return project_values(prod, grid)


def product(f: Field, g: Field, dealias: bool = False) -> Field:
    """Pointwise product computed as an exact spectral convolution.

    With ``dealias=True`` both inputs and the output are truncated by the
    2/3 rule.
    """
    grid = require_same_grid(f, g)
    sa, sb = rfft(f.values), rfft(g.values)
    if dealias:
        sa, sb = dealias_spec(sa, grid), dealias_spec(sb, grid)
    spec = conv_spec(sa, sb, grid)
    if dealias:
        spec = dealias_spec(spec, grid)
    return Field(grid, irfft(spec, grid.n_points))


def field_to_csv(f: Field, path) -> None:
    """Write (x, value) rows; full float64 round-trip precision.

    Rows are streamed in the ``csv`` module's default dialect: ``repr`` of
    each float, comma separated, CRLF line ends.
    """
    with open(path, "w", newline="") as fh:
        fh.write("x,value\r\n")
        fh.writelines(f"{x!r},{v!r}\r\n"
                      for x, v in zip(f.grid.x.tolist(), f.values.tolist()))


def field_from_csv(path) -> Field:
    """Rebuild a field from (x, value) rows written by :func:`field_to_csv`.

    Raises :class:`InvalidParameterError`, naming ``path``, for a wrong
    header, a row that is not two numbers, fewer than 2 rows, a non-finite
    entry, or an x column that is not a centered uniform lattice.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), [])
        if [c.strip().lower() for c in header[:2]] != ["x", "value"]:
            raise InvalidParameterError(
                f"field CSV {path!r}: unexpected header {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            raise InvalidParameterError(f"field CSV {path!r}: {err}") from err
    n = rows.shape[0]
    if n < 2:
        raise InvalidParameterError(f"field CSV {path!r} has fewer than 2 rows")
    if rows.shape[1] != 2:
        raise InvalidParameterError(
            f"field CSV {path!r} has {rows.shape[1]} columns, expected 2")
    x, vals = rows[:, 0], np.ascontiguousarray(rows[:, 1])
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(vals))):
        raise InvalidParameterError(f"field CSV {path!r} holds non-finite values")
    # the lattice starts at -L/2, so the first abscissa recovers the length
    # exactly (a spacing*n reconstruction can drift by an ulp)
    try:
        grid = PeriodicGrid(length=-2.0 * x[0], n_points=n)
    except InvalidParameterError as err:
        raise InvalidParameterError(f"field CSV {path!r}: {err}") from err
    if not np.allclose(grid.x, x, rtol=0.0, atol=1e-9 * max(1.0, abs(x[0]))):
        raise InvalidParameterError(
            f"field CSV {path!r}: x column is not a centered uniform lattice")
    return Field(grid, vals)


_BIN_HEADER = struct.Struct("<dd")  # little-endian: length, n_points


def field_to_binary(f: Field, path) -> None:
    """Raw little-endian float64 dump with an (L, N) header."""
    with open(path, "wb") as fh:
        fh.write(_BIN_HEADER.pack(f.grid.length, float(f.grid.n_points)))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def field_from_binary(path) -> Field:
    """Rebuild a field written by :func:`field_to_binary`.

    Raises :class:`InvalidParameterError`, naming ``path``, when the header is
    short, the length is not finite and positive, the point count is not a
    positive integer naming a valid grid, the payload is not 8 bytes per
    point, or a value is not finite.
    """
    with open(path, "rb") as fh:
        header = fh.read(_BIN_HEADER.size)
        payload = fh.read()
    if len(header) != _BIN_HEADER.size:
        raise InvalidParameterError(f"field file {path!r} has a truncated header")
    length, n_real = _BIN_HEADER.unpack(header)
    if not (math.isfinite(length) and length > 0.0):
        raise InvalidParameterError(
            f"field file {path!r}: length {length!r} is not finite and positive")
    if not (math.isfinite(n_real) and n_real >= 1.0 and n_real.is_integer()):
        raise InvalidParameterError(
            f"field file {path!r}: point count {n_real!r} is not a positive integer")
    n = int(n_real)
    if len(payload) != 8 * n:
        raise InvalidParameterError(
            f"field file {path!r}: payload of {len(payload)} bytes, "
            f"expected {8 * n} for {n} points")
    vals = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError(f"field file {path!r} holds non-finite values")
    try:
        grid = PeriodicGrid(length, n)
    except InvalidParameterError as err:
        raise InvalidParameterError(f"field file {path!r}: {err}") from err
    return Field(grid, vals)
