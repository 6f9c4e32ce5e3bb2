"""Pseudospectral method-of-lines solver for the nonlocal evolution.

The equation integrated is ``u_t + u u_x = G(u)`` with

    G(u) = -d_x (1 - d_xx)^{-1} [ (1/2) u_x^2 + c1 u^2 + c2 u^3 + c3 u^4 ],

the coefficients coming from :mod:`rchlab.coefficients`.  One kernel,
:func:`_nonlinear_spec`, serves the solver, :func:`full_rhs`, :func:`rhs_g`
and the Picard iterator.  u is cut by the 2/3-rule mask, so it has no modes
above N/3.  The kernel samples u once on a padded 2N-point lattice, where
c2 u^3 + c3 u^4 is formed pointwise and projected back: a quartic of modes up
to N/3 aliases only onto modes at or above 2N/3, which the mask removes from
the result.  The quadratic terms (1/2) u_x^2 + c1 u^2 and u u_x are formed on
the N-point lattice, from u_x sampled there and from u's even samples on the
2N lattice: a product of two masked factors reaches mode 2N/3 at most, so its
aliases land above the cap too.  An RHS costs two transforms at 2N and three
at N.  Exact products followed by one projection keep the semi-discrete mass
and H1 identities for every rotation.  The kernel also returns those even
samples, u on the N-point lattice, which Picard keeps.

A Picard iterate steps the dealiased spectrum of its increment w = v - u0
from zero and reads the values u0 + w only in its guard, so iterate 1 is u0
exactly.  Per stage time tau it calls the kernel on the interpolated u^m(tau)
and keeps the u^m on the N-point lattice that it returns next to G(u^m(tau)).
Both factors of a stage's u^m v_x and its result are masked, so the 2/3 rule
makes the N-point lattice exact below the cap, and the product is one
:func:`conv_spec`, two transforms at N.  One stacked kernel call makes u^m and
G(u^m) for a block of upcoming stage times, so a step costs 19 transforms, 15
at N and 4 at 2N.

Time stepping is classical RK4 with a fixed step in one march,
:func:`_rk4_march`, shared by :func:`solve`, the Picard iterator for the
frozen-coefficient linearization and the particle solver.  Guard contract: a
check before a step (the CFL guard) and an error in a stage carry the step's
start t; a check of a step's result carries the last good time t (blow-up)
or the step's end (a particle crossing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import ModelParams
from .errors import BlowUpError, CFLError, InvalidParameterError, RchlabError
from .spectral import (Field, PeriodicGrid, _dx_symbol, _flux_symbol,
                       _k_squared, _stack_rows, conv_spec, dealias_spec, ddx,
                       irfft, mode_energies, pad_values, project_values, rfft)

CFL_FRACTION = 0.5
BLOWUP_THRESHOLD = 1e8
KAPPA_DEFAULT = 0.1
MAX_STEPS = 2**20  # of one march: t_end / dt, refused before any time grid


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 configuration, the one home of the time grid: only
    :func:`_stage_times` cuts its positive, finite ``t_end`` into steps."""

    dt: float
    t_end: float
    snapshot_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise InvalidParameterError(
                f"t_end must be positive and finite, got {self.t_end!r}")
        if not (self.dt > 0.0 and np.isfinite(self.dt)):
            raise InvalidParameterError(f"dt must be positive, got {self.dt!r}")
        if not self.dt <= self.t_end <= MAX_STEPS * self.dt:
            raise InvalidParameterError(
                f"t_end must lie in [dt, MAX_STEPS dt] = [dt, {MAX_STEPS} dt],"
                f" got t_end={self.t_end!r} dt={self.dt!r}")
        if self.snapshot_every < 1:
            raise InvalidParameterError("snapshot_every must be >= 1")

    @classmethod
    def sampled(cls, t_end: float, steps: int, samples: int,
                dt: float | None = None) -> SolverConfig:
        """``t_end`` in ``steps`` steps, or in steps of ``dt`` if it is given,
        keeping about ``samples`` snapshots: one every n // samples of the
        march's n steps."""
        if steps < 1 or samples < 1:
            raise InvalidParameterError(
                f"steps and samples must be >= 1, got {steps!r} and {samples!r}")
        cfg = cls(dt=t_end / steps if dt is None else float(dt), t_end=t_end)
        return replace(cfg, snapshot_every=max(1, len(_stage_times(cfg))
                                               // samples))


@dataclass
class Trajectory:
    """Snapshots of one solver run on a common grid."""

    grid: PeriodicGrid
    times: np.ndarray
    states: np.ndarray  # shape (n_snapshots, n_points)

    def field_at(self, i: int) -> Field:
        return Field(self.grid, self.states[i])

    def final(self) -> Field:
        return Field(self.grid, self.states[-1])

    def index_of_time(self, t: float, tol: float = 1e-9) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise InvalidParameterError(f"time {t} not among stored snapshots")
        return i


def _nonlinear_spec(spec_u: np.ndarray, grid: PeriodicGrid, params: ModelParams,
                    advect: bool = True):
    """Spectrum of G(u) - u u_x, or of G(u) alone when ``advect`` is false,
    and the masked u on the N-point lattice.

    ``spec_u`` is the one-sided spectrum of u on ``grid``; it and the
    returned spectrum are cut by the 2/3 rule.  The mask on u is a
    truncation: only the modes below the cap reach the transforms, which
    zero-pad the rest, so nothing copies or writes ``spec_u``.  The result
    is masked in place.  The samples of u are a view of the even samples of
    the kernel's 2N lattice, which it keeps alive.
    """
    m = grid._dealias_from
    spec_u = spec_u[..., :m]
    u = pad_values(spec_u, grid)
    ux = irfft(_dx_symbol(grid)[:m] * spec_u, grid.n_points)
    # c2 u^3 + c3 u^4 needs the 2N lattice; the quadratic terms and u u_x
    # take u on the N lattice, the even samples of the 2N one
    q = u * params.c3
    q += params.c2
    q *= u
    q *= u
    q *= u
    out = project_values(q, grid)
    del q
    un = u[..., ::2]
    if advect:
        adv = rfft(un * ux)
    ux *= ux
    ux *= 0.5
    q = params.c1 * un
    ux += np.multiply(q, un, out=q)
    del q
    out += rfft(ux)
    # the modes above the cap are zeroed, so only the kept ones are formed
    kept = out[..., :m]
    kept *= _flux_symbol(grid)[:m]
    if advect:
        kept -= adv[..., :m]
    out[..., m:] = 0.0
    return out, un


def rhs_g(u: Field, params: ModelParams) -> Field:
    """Nonlocal flux G(u); the advective term is not included."""
    spec = _nonlinear_spec(rfft(u.values), u.grid, params, advect=False)[0]
    return Field(u.grid, irfft(spec, u.grid.n_points))


def full_rhs(u: Field, params: ModelParams) -> Field:
    """Complete right-hand side -u u_x + G(u) of the evolution."""
    spec = _nonlinear_spec(rfft(u.values), u.grid, params)[0]
    return Field(u.grid, irfft(spec, u.grid.n_points))


def kappa_horizon(u0_norm: float, kappa: float = KAPPA_DEFAULT) -> float:
    """Guaranteed-existence horizon T = kappa / (B + B^2 + B^3) for B = ||u0||.

    Zero data never blows up, so B = 0 yields an infinite horizon.
    """
    b = float(u0_norm)
    if b < 0.0 or not math.isfinite(b):
        raise InvalidParameterError(f"data norm must be finite and >= 0, got {b!r}")
    if b == 0.0:
        return np.inf
    return kappa / (b + b**2 + b**3)


def h1_integral(f: Field) -> float:
    """The conserved quadratic integral: sum of lattice L2 masses of u and u_x."""
    # the weight of u_x is k^2, zero at the unpaired Nyquist mode it loses
    sym = 1.0 + _k_squared(f.grid)
    sym[-1] = 1.0
    return float(f.grid.length * np.sum(sym * mode_energies(f)))


def transport_diagnostic(f: Field) -> float:
    """Size function ||u_x||_inf + ||u||_inf + ||u||_inf^2 + ||u||_inf^3."""
    a = float(np.max(np.abs(f.values)))
    b = float(np.max(np.abs(ddx(f).values)))
    return b + a + a**2 + a**3


def _check_state(vals: np.ndarray, t_last_good: float) -> None:
    m = float(np.max(np.abs(vals)))
    if not np.isfinite(m) or m > BLOWUP_THRESHOLD:
        raise BlowUpError(
            f"state norm {m!r} beyond blow-up threshold {BLOWUP_THRESHOLD:g}",
            time=t_last_good)


def _stage_times(cfg: SolverConfig) -> list[tuple]:
    """(t, t + dt/2, t_next) of each step: the floats the march's stages get."""
    dt, t_end = cfg.dt, cfg.t_end
    times = dt * np.arange(int(np.floor(t_end / dt + 1e-9)) + 1)
    if t_end - times[-1] > 1e-9 * max(1.0, t_end):
        times = np.append(times, t_end)
    times[-1] = t_end
    return [(t, t + 0.5 * (t_next - t), t_next)
            for t, t_next in zip(times[:-1], times[1:])]


def _stage_state(state, h, k):
    """``state + h * k``, formed in the one array it returns."""
    y = h * k
    y += state
    return y


def _rk4_march(state, kept, cfg: SolverConfig, rhs, guard, refuse=None):
    """Classical RK4 over the step times of ``cfg``, shared by every integrator.

    Stages call ``rhs(tau, state)`` at exactly tau = t, t + dt/2 (twice) and
    t_next.  ``rhs`` must return a fresh array, which the march may
    overwrite: a step sums its four slopes in their own memory, left to
    right, and the sum becomes the next state.  ``guard(state, t, t_next)``
    may raise after a step and returns the value to keep for it, as ``kept``
    is for the initial state; no state is written in place, so that value
    may share its memory.  ``refuse(kept, t, dt)``, if given, may raise
    before a step.  A stage's rchlab error without a time gets t.  Returns
    the times and kept values at t = 0, every ``cfg.snapshot_every`` steps
    and at the end.
    """
    steps = _stage_times(cfg)
    snaps = [kept]
    snap_times = [0.0]
    for i, (t, t_mid, t_next) in enumerate(steps):
        dt = t_next - t
        if refuse is not None:
            refuse(kept, t, dt)
        try:
            k1 = rhs(t, state)
            k2 = rhs(t_mid, _stage_state(state, 0.5 * dt, k1))
            k3 = rhs(t_mid, _stage_state(state, 0.5 * dt, k2))
            k4 = rhs(t_next, _stage_state(state, dt, k3))
        except RchlabError as err:
            if err.time is None:
                err.time = t
            raise
        # state + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed in k1's memory
        k1 += np.multiply(k2, 2.0, out=k2)
        k1 += np.multiply(k3, 2.0, out=k3)
        k1 += k4
        k1 *= dt / 6.0
        state = np.add(k1, state, out=k1)
        kept = guard(state, t, t_next)
        if (i + 1) % cfg.snapshot_every == 0 or i + 1 == len(steps):
            snaps.append(kept)
            snap_times.append(t_next)
    return np.asarray(snap_times), snaps


def solve(u0: Field, params: ModelParams, cfg: SolverConfig) -> Trajectory:
    """Integrate the full equation from ``u0`` with fixed-step RK4.

    Raises :class:`CFLError` if ``dt * max|u|`` exceeds half the grid spacing
    before a step, and :class:`BlowUpError` if the state exceeds the blow-up
    threshold or loses finiteness; each carries a time as the march says.
    """
    grid = u0.grid

    def cfl(u, t, dt):
        step_max = np.max(np.abs(u))
        if dt * step_max > CFL_FRACTION * grid.spacing:
            raise CFLError(
                f"CFL guard failed: dt*max|u|={dt * step_max:.3e} "
                f"> {CFL_FRACTION} * spacing={CFL_FRACTION * grid.spacing:.3e}",
                time=t)

    def to_lattice(s, t, t_next):
        u = irfft(s, grid.n_points)
        _check_state(u, t_last_good=t)
        return u

    # the state steps in spectral form; the lattice values u feed only the
    # guards and snapshots, since a round trip per step adds more rounding
    # than the RK4 error of a small step; the first snapshot is u0's own
    # values, which np.asarray copies
    times, snaps = _rk4_march(
        rfft(u0.values), u0.values, cfg,
        lambda tau, s: _nonlinear_spec(s, grid, params)[0], to_lattice, cfl)
    return Trajectory(grid=grid, times=times, states=np.asarray(snaps))


def _interpolate_in_time(traj: Trajectory, taus) -> np.ndarray:
    """Cubic Lagrange interpolation over a trajectory's stored snapshots, of
    which a march stores at least two: one row per time in ``taus``, each
    summed from zeros into its row of one array."""
    times = traj.times
    n = len(times)
    out = np.zeros((len(taus), traj.states.shape[1]))
    for row, t in zip(out, taus):
        i = min(max(int(np.searchsorted(times, t)) - 1, 0), n - 2)
        lo = min(max(i - 1, 0), max(n - 4, 0))
        stencil = range(lo, min(lo + 4, n))
        for a in stencil:
            w = 1.0
            for b in stencil:
                if b != a:
                    w *= (t - times[b]) / (times[a] - times[b])
            row += w * traj.states[a]
    return out


def _frozen_rhs(prev: Trajectory | None, s0: np.ndarray, grid: PeriodicGrid,
                params: ModelParams, taus: list):
    """RHS ``G(u^m) - u^m v_x`` of a Picard iterate in increment form: it
    takes and returns spectra of w = v - u0, and ``s0`` is the dealiased
    spectrum of u0.  u^m is interpolated from the values stored in ``prev``
    (None is the zero iterate).  u^m and G(u^m) depend on tau alone, so a
    miss makes them for the next block of ``taus``, the march's distinct
    stage times in order, as rows of one stacked kernel call; the memo holds
    that block with the kernel's u^m on the N-point lattice, and a stage
    costs one :func:`conv_spec`, two transforms at N."""
    if prev is None:
        return lambda tau, w: np.zeros_like(w)
    rows = _stack_rows(2 * grid.n_points)
    memo = {}

    def rhs(tau, w):
        if tau not in memo:
            block = taus[taus.index(tau):][:rows]
            g, un = _nonlinear_spec(rfft(_interpolate_in_time(prev, block)),
                                    grid, params, advect=False)
            # a copy of the view, so that the kernel's 2N samples are freed
            un = np.ascontiguousarray(un)
            memo.clear()
            memo.update(zip(block, zip(un, g)))
        un, g = memo[tau]
        svx = s0 + w
        np.multiply(_dx_symbol(grid), svx, out=svx)
        out = conv_spec(un, svx, grid)
        return np.subtract(g, out, out=out)

    return rhs


def picard_iterate(u0: Field, params: ModelParams, cfg: SolverConfig,
                   m_iters: int) -> list[Trajectory]:
    """Iterates of the frozen-coefficient linearization.

    Iterate zero is identically zero; iterate m+1 solves the linear transport
    problem ``v_t + u^m v_x = G(u^m)`` from the same initial state, with
    ``u^m`` interpolated in time from its stored snapshots.  Returns the
    trajectories of iterates 1..m_iters, each stored at every step.

    The march steps the dealiased spectrum of the increment w = v - u0 from
    zero; the guard and the snapshots read the values u0 + w, so iterate 1
    is u0 exactly.  A step of iterate m+1 costs 19 transforms, 15 at N and
    4 at 2N: per new tau one of the interpolated u^m at N, and two at N and
    two at 2N in the kernel; per stage two at N, and one at N for the guard.
    """
    if m_iters < 1:
        raise InvalidParameterError("m_iters must be >= 1")
    grid = u0.grid
    s0 = dealias_spec(rfft(u0.values), grid)
    every_step = replace(cfg, snapshot_every=1)
    taus = list(dict.fromkeys(np.ravel(_stage_times(cfg))))

    def to_lattice(w, t, t_next):
        vals = u0.values + irfft(w, grid.n_points)
        _check_state(vals, t_last_good=t)
        return vals

    iterates: list[Trajectory] = []
    for _ in range(m_iters):
        rhs = _frozen_rhs(iterates[-1] if iterates else None, s0, grid, params,
                          taus)
        times, snaps = _rk4_march(np.zeros_like(s0), u0.values, every_step,
                                  rhs, guard=to_lattice)
        iterates.append(Trajectory(grid=grid, times=times,
                                   states=np.asarray(snaps)))
        del snaps  # else the list lives through the next iterate's march
    return iterates
