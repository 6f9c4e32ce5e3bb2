"""Periodic pseudospectral toolbox on a uniform torus lattice.

All fields live on ``x_j = -L/2 + j*h`` with ``h = L/N`` and are transformed
with real FFTs; lattice wavenumbers are ``k_m = 2*pi*m/L``.  Nonlinear terms
are evaluated on one zero-padded lattice of 2N points: :func:`pad_values`
samples a spectrum there, any polynomial of the samples is formed pointwise,
and :func:`project_values` keeps the first N modes, folding the paired mode
N/2 onto the unpaired Nyquist mode.  No alias of a product of degree p enters
the kept modes when the lattice exceeds (p + 1) N / 2 points, so 2N makes one
product (:func:`product`) exact, and the kernel's quartic of masked factors,
which needs more than 5N/3 points, exact below the cap.  The 2/3-rule mask
(:func:`dealias_spec`) is a separate step that callers apply to inputs and
results, or a truncation at the cap: :func:`pad_values` and ``irfft`` zero-pad
a short spectrum.  For one product of two masked factors whose result is
masked, the N-point lattice suffices: every alias of the product lands above
the cap.  :func:`conv_spec` is that masked product; it cuts its second factor
and its result at the cap.  It forms the Picard stage's product and, in
:mod:`rchlab.initial_data`, v0n d_x w0n and the transport seed -u0n d_x u0n;
the exact 2N :func:`product` is the tests' reference.  Every derivative
multiplies by one symbol, :func:`_dx_symbol`, i k with the unpaired Nyquist
mode dropped; it and the nonlocal flux's :func:`_flux_symbol` are cached for
the last grid.  These helpers take a leading row axis, so independent rows
share one transform call; ``numpy.fft`` transforms each row as it would alone.
This module is the one home of the transforms: :mod:`rchlab.eulerian`,
:mod:`rchlab.littlewood_paley` and :mod:`rchlab.initial_data` import ``rfft``
and ``irfft`` from it, and no other module imports an FFT library.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .errors import GridMismatchError, InvalidParameterError

TWO_THIRDS = 2.0 / 3.0
# largest grid accepted; the largest in use is 2^19 (data --certify --n-max 11)
MAX_POINTS = 2**24
# points in one stacked transform call, which saves per-call overhead
_STACK_POINTS = 2**15


def _stack_rows(m: int) -> int:
    return max(1, _STACK_POINTS // m)


def _lattice_nyquist(length: float, n_points: int) -> float:
    """k_Nyquist = pi/h of (L, N), refused when they make no lattice: the one
    rule, which :class:`PeriodicGrid` and ``experiments.grid_for_block`` apply."""
    if not (length > 0.0 and np.isfinite(length)):
        raise InvalidParameterError(f"length must be positive, got {length!r}")
    if n_points < 16 or (n_points & (n_points - 1)) != 0:
        raise InvalidParameterError(
            f"n_points must be a power of two >= 16, got {n_points!r}")
    if n_points > MAX_POINTS:
        raise InvalidParameterError(
            f"n_points {n_points} exceeds the limit MAX_POINTS = 2^"
            f"{MAX_POINTS.bit_length() - 1}")
    spacing = float(length) / int(n_points)
    k_nyquist = np.pi / spacing if spacing > 0.0 else math.inf
    if not math.isfinite(k_nyquist):
        raise InvalidParameterError(
            f"length {length!r} puts k_Nyquist past the float range")
    return k_nyquist


class PeriodicGrid:
    """Uniform lattice on a torus of circumference ``length``, wavenumbers
    ``k`` spaced ``dk`` = 2 pi/L apart.  ``n_points`` is a power of two in [16,
    ``MAX_POINTS``], so dyadic filter banks and padded transforms stay exact;
    :func:`_lattice_nyquist` holds that rule and the length rule.
    """

    def __init__(self, length: float, n_points: int):
        self.k_nyquist = _lattice_nyquist(length, n_points)
        self.length = float(length)
        self.n_points = int(n_points)
        self.spacing = self.length / self.n_points
        self.x = -0.5 * self.length + self.spacing * np.arange(self.n_points)
        self.dk = 2.0 * np.pi / self.length
        # one-sided (rfft) wavenumbers, 0..pi/h
        self.k = self.dk * np.arange(self.n_points // 2 + 1)
        self.dealias_cap = TWO_THIRDS * self.k_nyquist
        # k increases with the index: the modes above the cap start here
        self._dealias_from = int(np.sum(self.k <= self.dealias_cap))

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


@functools.lru_cache(maxsize=1)
def _dx_symbol(grid: PeriodicGrid) -> np.ndarray:
    """The derivative's symbol i k on the one-sided spectrum, zero at the
    unpaired Nyquist mode, where an odd multiplier is ambiguous.  Read-only,
    and cached for the last grid asked."""
    sym = 1j * grid.k
    sym[-1] = 0.0
    sym.flags.writeable = False
    return sym


def _k_squared(grid: PeriodicGrid) -> np.ndarray:
    """k^2 on the one-sided spectrum, the symbol of -d_xx.  A lattice whose
    k_Nyquist^2 leaves the float range is refused here, not by the grid: on
    it neither (1 - d_xx)^{-1} nor an H^s weight can be formed."""
    top = float(grid.k[-1])
    if not math.isfinite(top * top):
        raise InvalidParameterError(
            f"length {grid.length!r} puts k_Nyquist^2 past the float range")
    return grid.k**2


@functools.lru_cache(maxsize=1)
def _flux_symbol(grid: PeriodicGrid) -> np.ndarray:
    """The symbol -i k / (1 + k^2) of -d_x (1 - d_xx)^{-1}, which turns the
    nonlocal flux's integrand into G; read-only, cached like
    :func:`_dx_symbol`."""
    sym = -_dx_symbol(grid) / (1.0 + _k_squared(grid))
    sym.flags.writeable = False
    return sym


def _fourier_multiplier(f: Field, symbol: np.ndarray) -> Field:
    spec = rfft(f.values)
    spec *= symbol
    return Field(f.grid, irfft(spec, f.grid.n_points))


def ddx(f: Field) -> Field:
    """Spectral derivative; exact for lattice-resolved bands."""
    return _fourier_multiplier(f, _dx_symbol(f.grid))


def helmholtz_inverse(f: Field) -> Field:
    """Apply (1 - d_xx)^{-1}, i.e. convolution with the kernel exp(-|x|)/2."""
    return _fourier_multiplier(f, 1.0 / (1.0 + _k_squared(f.grid)))


def grad_p_conv(f: Field) -> Field:
    """Apply d_x (1 - d_xx)^{-1}, the derivative of the kernel convolution."""
    return _fourier_multiplier(f, -_flux_symbol(f.grid))


def mode_energies(f: Field) -> np.ndarray:
    """Lattice energies |c_m|^2 of the one-sided modes, doubled for the paired
    modes 1 .. N/2-1, so that L times their sum is ||f||_2^2 (Plancherel)."""
    return _spectrum_energies(rfft(f.values), f.grid.n_points)


def _spectrum_energies(spec: np.ndarray, n_points: int) -> np.ndarray:
    """:func:`mode_energies` of the field whose one-sided spectrum is ``spec``."""
    energies = np.abs(spec) ** 2 / n_points**2
    energies[..., 1:-1] *= 2.0
    return energies


def dealias_spec(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Copy of a one-sided spectrum with the modes above the 2/3-rule cap zeroed."""
    out = spec.copy()
    out[..., grid._dealias_from:] = 0.0
    return out


def dealias(f: Field) -> Field:
    """Project onto modes below the 2/3-rule cap."""
    return Field(f.grid, irfft(dealias_spec(rfft(f.values), f.grid),
                               f.grid.n_points))


def pad_values(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Samples on the 2N-point lattice of the field whose one-sided spectrum
    on ``grid`` is ``spec``, taken as zero past its last entry: ``irfft``
    zero-pads a short spectrum, so a masked one may come truncated at the
    cap.  A full spectrum's unpaired Nyquist mode is split evenly between
    the paired modes +-N/2.  The finer lattice's factor 2 scales the
    spectrum before the transform: a power of two commutes with every
    rounding, so the samples are bit for bit those of the transform
    doubled."""
    half = grid.n_points // 2
    padded = 2.0 * spec
    if padded.shape[-1] > half:
        padded[..., half] *= 0.5
    return irfft(padded, 2 * grid.n_points)


def project_values(vals: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """One-sided spectrum on ``grid`` of samples on a finer lattice: the
    Galerkin projection onto the first N modes, with the paired mode N/2
    folded onto the unpaired Nyquist mode."""
    n = grid.n_points
    half = n // 2
    # multiplying copies the slice, so the M-point spectrum is freed here
    spec = rfft(vals)[..., :half + 1] * (n / vals.shape[-1])
    spec[..., half] = 2.0 * spec[..., half].real
    return spec


def conv_spec(ua: np.ndarray, sb: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Masked spectrum of the pointwise product of ``ua`` and the field of
    ``sb``, formed on the N-point lattice at two transforms of N.

    ``ua`` is the first factor sampled on the lattice, so a caller that
    multiplies one factor many times samples it once; ``sb`` and the output
    are one-sided (rfft) spectra on ``grid``.  ``sb`` is cut at the 2/3 cap
    and the result is zeroed above it.  The product aliases, but when ``ua``
    is masked too no alias reaches a mode the mask keeps, so the result is
    exact up to rounding.
    """
    cut = grid._dealias_from
    prod = irfft(sb[..., :cut], grid.n_points)
    prod *= ua
    out = rfft(prod)
    out[..., cut:] = 0.0
    return out


def product(f: Field, g: Field, dealias: bool = False) -> Field:
    """Pointwise product computed as an exact spectral convolution on the
    2N-point lattice.

    With ``dealias=True`` both inputs and the output are truncated by the
    2/3 rule.
    """
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")
    grid = f.grid
    sa, sb = rfft(f.values), rfft(g.values)
    if dealias:
        sa, sb = dealias_spec(sa, grid), dealias_spec(sb, grid)
    prod = pad_values(sb, grid)
    prod *= pad_values(sa, grid)
    spec = project_values(prod, grid)
    if dealias:
        spec = dealias_spec(spec, grid)
    return Field(grid, irfft(spec, grid.n_points))


_CSV_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=1)
def _csv_abscissae(length: float, n_points: int) -> tuple[str, ...]:
    """``repr(x) + ","`` for every abscissa of a grid: the x column that
    :func:`field_to_csv` writes, the same for every field on that grid."""
    return tuple(f"{x!r}," for x in PeriodicGrid(length, n_points).x.tolist())


def field_to_csv(f: Field, path) -> None:
    """Write (x, value) rows; full float64 round-trip precision.

    Rows are streamed, in blocks of 4096, in the ``csv`` module's default
    dialect: ``repr`` of each float, comma separated, CRLF line ends.  The
    formatted x column of the last grid written is cached.
    """
    xs = _csv_abscissae(f.grid.length, f.grid.n_points)
    vals = f.values.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("x,value\r\n")
        for i in range(0, len(vals), _CSV_BLOCK_ROWS):
            rows = slice(i, i + _CSV_BLOCK_ROWS)
            fh.write("".join([f"{x}{v}\r\n" for x, v
                              in zip(xs[rows], map(repr, vals[rows]))]))


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
    short, the point count is not a positive integer, the payload is not 8
    bytes per point, a value is not finite, or the grid refuses the length or
    the point count.
    """
    with open(path, "rb") as fh:
        header = fh.read(_BIN_HEADER.size)
        payload = fh.read()
    if len(header) != _BIN_HEADER.size:
        raise InvalidParameterError(f"field file {path!r} has a truncated header")
    length, n_real = _BIN_HEADER.unpack(header)
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
