"""Particle-path formulation of the evolution on periodic labels.

State per label xi: position y, stretching y_xi, velocity U = u(t, y), and
slope U_xi = y_xi * u_x(t, y).  The nonlocal terms are half-line convolutions
with exp(-|y - x|) rewritten in label variables (Jacobian y_xi absorbed into
the integrand), evaluated with trapezoidal weights by one O(N) two-sided
exponential scan per right-hand side: the block exponentials exp(+-(y - y_ref))
are computed once and serve both the left and the right sums.  The scan
sums every periodic image of the kernel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import ModelParams
from .errors import BlowUpError, DiffeomorphismError, InvalidParameterError
from .eulerian import SolverConfig, _check_state, _rk4_march
from .littlewood_paley import lp_norm
from .spectral import Field, PeriodicGrid, ddx


@dataclass
class LagrangianState:
    """Particle state over a uniform label grid."""

    grid: PeriodicGrid
    labels: np.ndarray
    y: np.ndarray
    y_xi: np.ndarray
    U: np.ndarray
    U_xi: np.ndarray


@dataclass
class LagrangianTrajectory:
    times: np.ndarray
    states: list[LagrangianState]


def initial_state(u0: Field) -> LagrangianState:
    """Identity-map state carrying ``u0``; labels are the grid nodes."""
    x = u0.grid.x.copy()
    return LagrangianState(grid=u0.grid, labels=x, y=x.copy(),
                           y_xi=np.ones_like(x), U=u0.values.copy(),
                           U_xi=ddx(u0).values)


def _check_monotone(y: np.ndarray, period: float, time=None) -> None:
    gaps = np.diff(y)
    seam = y[0] + period - y[-1]
    # written so that a NaN gap or seam fails it too
    if gaps.size and not (np.min(gaps) > 0.0 and seam > 0.0):
        raise DiffeomorphismError(
            "particle map lost strict monotonicity", time=time)


def _check_particles(arr: np.ndarray, period: float, time=None) -> None:
    """The packed state's map is a diffeomorphism: y_xi > 0, y increasing."""
    if not (np.min(arr[1]) > 0.0):  # a NaN fails it too
        raise DiffeomorphismError("y_xi must stay positive", time=time)
    _check_monotone(arr[0], period, time=time)


def _one_sided_scan(w: np.ndarray, y: np.ndarray,
                    period: float) -> tuple[np.ndarray, np.ndarray]:
    """Both one-sided sums over every periodic image, in one pass.

    ``t_left[i]`` sums ``e^{-|y_i - z|} w_j`` over every image
    ``z = y_j + m period`` (m an integer) strictly left of ``y_i``;
    ``t_right[i]`` sums the same over the images strictly right of it.  The
    nodes are cut into blocks of at most 512, halved until no block spans
    more than 700, and exponents are taken relative to each block's first
    node, so ``e^{rel}`` and ``e^{-rel}`` are computed once, serve both
    sides, and cannot overflow (e^700 is just below the float64 overflow
    threshold).  Two scalar carries cross the blocks, one each way, over two
    laps of the circle; the first builds them from zero, and the second
    keeps them.
    """
    n = len(y)
    block = min(n, 512)  # grid sizes are powers of two, so blocks tile
    # a one-node block spans nothing, so the halving ends
    while block > 1 and np.max(y[block - 1::block] - y[::block]) > 700.0:
        block //= 2
    n_blocks = n // block
    y = y.reshape(n_blocks, block)
    w = w.reshape(n_blocks, block)
    ref = y[:, 0]
    rel = y - ref[:, None]
    e_fwd = np.exp(rel)
    e_bwd = np.exp(np.negative(rel, out=rel), out=rel)
    # exclusive prefix and suffix sums, each one block at a time
    fw = e_fwd * w
    left = np.empty_like(fw)
    left[:, 0] = 0.0
    np.cumsum(fw[:, :-1], axis=1, out=left[:, 1:])
    sums_left = (left[:, -1] + fw[:, -1]).tolist()
    bw = np.multiply(e_bwd, w, out=fw)
    right = np.empty_like(fw)
    right[:, -1] = 0.0
    np.cumsum(bw[:, :0:-1], axis=1, out=right[:, -2::-1])
    sums_right = (right[:, 0] + bw[:, 0]).tolist()
    # decay[b] carries a sum from block b's first node to block b + 1's
    decay = np.exp(ref - np.append(ref[1:], ref[0] + period)).tolist()
    # a lap from zero leaves in block 0 the carry of each node's nearest
    # image; a lap farther multiplies it by q = e^{-period}: divide by 1 - q
    one_minus_q = -math.expm1(-period)
    c = 0.0
    for b in range(n_blocks):
        c = decay[b] * (c + sums_left[b])
    c /= one_minus_q
    carry_left = [c] * n_blocks
    for b in range(1, n_blocks):
        c = decay[b - 1] * (c + sums_left[b - 1])
        carry_left[b] = c
    c = 0.0
    for b in range(n_blocks - 1, -1, -1):
        c = decay[b] * (c + sums_right[(b + 1) % n_blocks])
    c /= one_minus_q
    carry_right = [c] * n_blocks
    for b in range(n_blocks - 1, 0, -1):
        c = decay[b] * (c + sums_right[(b + 1) % n_blocks])
        carry_right[b] = c
    left += np.array(carry_left)[:, None]
    left *= e_bwd
    right += np.array(carry_right)[:, None]
    right *= e_fwd
    return left.reshape(n), right.reshape(n)


def exp_scan_split(weights: np.ndarray, y: np.ndarray, grid: PeriodicGrid,
                   kind: str) -> np.ndarray:
    """Half-line exponential convolutions against ``weights`` at the nodes.

    ``signed`` returns the trapezoidal approximation of
    ``int sgn(xi - eta) e^{-|y(xi) - y(eta)|} w(eta) d eta`` at each node,
    ``unsigned`` the same integral without the sign.  ``y`` must be strictly
    increasing with period ``grid.length``; agreement with direct O(N^2)
    summation is exact up to rounding.
    """
    if kind not in ("signed", "unsigned"):
        raise InvalidParameterError(f"kind must be signed|unsigned, got {kind!r}")
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if y.shape != w.shape or y.shape != (grid.n_points,):
        raise InvalidParameterError("weights/y must match the label grid size")
    _check_monotone(y, grid.length)
    t_left, t_right = _one_sided_scan(w, y, grid.length)
    if kind == "signed":
        return grid.spacing * (t_left - t_right)
    return grid.spacing * (w + t_left + t_right)


def lagrangian_rhs(state: LagrangianState, params: ModelParams) -> LagrangianState:
    """Time derivative of the particle state (returned in state layout)."""
    return _unpack(state.grid, state.labels,
                   _rhs_packed(_pack(state), state.grid, params))


def _pack(state: LagrangianState) -> np.ndarray:
    return np.stack([state.y, state.y_xi, state.U, state.U_xi])


def _unpack(grid, labels, arr) -> LagrangianState:
    return LagrangianState(grid=grid, labels=labels, y=arr[0], y_xi=arr[1],
                           U=arr[2], U_xi=arr[3])


def _rhs_packed(arr: np.ndarray, grid: PeriodicGrid,
                params: ModelParams) -> np.ndarray:
    """Time derivative of the packed state ``(y, y_xi, U, U_xi)``."""
    _check_particles(arr, grid.length)
    y, y_xi, U, U_xi = arr[0], arr[1], arr[2], arr[3]
    # u_x and u_x^2 / 2 are formed in the rows the two fluxes fill later
    out = np.empty_like(arr)
    ux = np.divide(U_xi, y_xi, out=out[2])
    half_ux2 = np.multiply(0.5, ux, out=out[3])
    half_ux2 *= ux
    w = params.quartic(U)  # w = y_xi (U^2 (c1 + U (c2 + c3 U)) + u_x^2 / 2)
    w += half_ux2
    w *= y_xi
    t_left, t_right = _one_sided_scan(w, y, grid.length)
    dxi = grid.spacing
    out[0] = U
    out[1] = U_xi
    # 0.5 (dxi (t_left - t_right)) and w - (0.5 y_xi) (dxi ((w + t_left)
    # + t_right)), each product and sum in that order, in the scan's outputs
    flux = np.subtract(t_left, t_right, out=out[2])
    flux *= dxi
    flux *= 0.5
    t_left += w
    t_left += t_right
    t_left *= dxi
    t_left *= np.multiply(0.5, y_xi, out=t_right)
    np.subtract(w, t_left, out=out[3])
    return out


def lagrangian_solve(state0: LagrangianState, params: ModelParams,
                     cfg: SolverConfig) -> LagrangianTrajectory:
    """RK4 integration of the particle system.

    Requires ``max|u0_x| * t_end < 1`` so the stretching factor is guaranteed
    to stay positive over the run; raises :class:`DiffeomorphismError` with a
    timestamp if y_xi is not positive or the map folds, from t = 0 on.
    """
    grid = state0.grid
    arr0 = _pack(state0)
    # non-finite data anywhere in the state is a blow-up at t = 0, not a
    # crossing of the NaN positions its first stage would make
    if not np.all(np.isfinite(arr0)):
        raise BlowUpError("initial particle state holds a non-finite value",
                          time=0.0)

    def guard(arr, t, t_next):
        _check_particles(arr, grid.length, time=t_next)
        _check_state(arr[2], t_last_good=t)
        return arr

    # the step guard at t = 0, before the slope guard divides by y_xi
    guard(arr0, 0.0, 0.0)
    slope0 = np.max(np.abs(state0.U_xi / state0.y_xi))
    if slope0 * cfg.t_end >= 1.0:
        raise InvalidParameterError(
            f"horizon too long for the slope guard: max|u0_x| * t_end = "
            f"{slope0 * cfg.t_end:.3g} >= 1")

    times, snaps = _rk4_march(
        arr0, arr0, cfg, lambda tau, arr: _rhs_packed(arr, grid, params),
        guard=guard)
    states = [_unpack(grid, state0.labels, arr) for arr in snaps]
    return LagrangianTrajectory(times=times, states=states)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    # one-sided three-point slope, kept zero or within 3 m0 to preserve shape
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(xk: np.ndarray, yk: np.ndarray, x: np.ndarray) -> np.ndarray:
    """PCHIP interpolant of ``(xk, yk)`` at ``x``, NaN outside the nodes.

    Fritsch & Butland (1984) interior slopes, Moler's end slopes (*Numerical
    Computing with MATLAB* 3.6), each step in the order of scipy's
    ``PchipInterpolator`` and PPoly, so the values are bit-identical to
    ``PchipInterpolator(xk, yk, extrapolate=False)(x)``.  ``xk`` must be
    strictly increasing with at least three nodes.
    """
    n = len(xk)
    # interval i holds xk[i] <= x < xk[i + 1]; the last one is closed
    i = np.searchsorted(xk, x, side="right") - 1
    i[x == xk[-1]] = n - 2
    inside = (i >= 0) & (i <= n - 2)
    i = np.clip(i, 0, n - 2)
    # slopes only on the queried nodes and their neighbours; the end rule
    # at a cut end is never read unless that end is the true one
    lo, hi = max(int(i.min()) - 1, 0), min(int(i.max()) + 3, n)
    xk, yk, i = xk[lo:hi], yk[lo:hi], i - lo
    hk = np.diff(xk)
    mk = np.diff(yk) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    dk = np.empty_like(yk)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked by flat
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    dk[0] = _pchip_end_slope(hk[0], hk[1], mk[0], mk[1])
    dk[-1] = _pchip_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])
    h, m, d0 = hk[i], mk[i], dk[i]
    t = (d0 + dk[i + 1] - 2 * m) / h
    s = x - xk[i]
    ss = s * s
    # PPoly's sum: ((0 + y) + d s) + c1 s^2, then + c0 s^3
    vals = ((0.0 + yk[i]) + d0 * s) + ((m - d0) / h - t) * ss
    vals += (t / h) * (ss * s)
    return np.where(inside, vals, np.nan)


def pullback_to_eulerian(state: LagrangianState) -> Field:
    """Sample u = U o y^{-1} on the label grid by monotone cubic interpolation.

    The nodes are y extended by one period on each side.  A flow map that
    has drifted so far that this extension misses part of the grid is first
    moved back by whole periods, which leaves u unchanged.
    """
    grid = state.grid
    period = grid.length
    _check_monotone(state.y, period)
    x = grid.x
    y = state.y
    if y[0] - period > x[0] or y[-1] + period < x[-1]:
        y = y - math.floor((y[0] - x[0]) / period) * period
    ye = np.concatenate([y - period, y, y + period])
    ue = np.concatenate([state.U, state.U, state.U])
    vals = _pchip(ye, ue, x)
    if np.any(np.isnan(vals)):
        raise InvalidParameterError("pullback left the covered interval")
    return Field(grid, vals)


def _w1_intersection_norm(f: Field, p: float) -> float:
    """max(W^{1,inf} norm, W^{1,p} norm), with one spectral derivative."""
    df = ddx(f)
    return max(lp_norm(f, np.inf) + lp_norm(df, np.inf),
               lp_norm(f, p) + lp_norm(df, p))


def stability_distance(a: LagrangianTrajectory, b: LagrangianTrajectory,
                       p: float) -> np.ndarray:
    """Per-snapshot particle-space distance between two runs.

    Sum of the W^{1,inf} intersect W^{1,p} norms of U1 - U2 and y1 - y2
    (both label-periodic), with spectral derivatives on the label grid.
    """
    if len(a.states) != len(b.states) or not np.allclose(a.times, b.times):
        raise InvalidParameterError("trajectories must share snapshot times")
    out = np.empty(len(a.states))
    for i, (sa, sb) in enumerate(zip(a.states, b.states)):
        if sa.grid != sb.grid or not np.array_equal(sa.labels, sb.labels):
            raise InvalidParameterError("trajectories must share label grids")
        du = Field(sa.grid, sa.U - sb.U)
        dy = Field(sa.grid, sa.y - sb.y)
        out[i] = _w1_intersection_norm(du, p) + _w1_intersection_norm(dy, p)
    return out


def linf_along_paths(state: LagrangianState) -> float:
    """max |U|; transport preserves this for the exact flow."""
    return float(np.max(np.abs(state.U)))
