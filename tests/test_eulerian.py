"""Grid solver: right-hand sides, RK4 order, guards, Picard iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.fft import irfft, rfft
from scipy.fft import irfft as sp_irfft
from scipy.fft import rfft as sp_rfft

from rchlab import eulerian, spectral
from rchlab.coefficients import ModelParams, derive_coefficients
from rchlab.errors import BlowUpError, CFLError, InvalidParameterError
from rchlab.eulerian import (SolverConfig, full_rhs, h1_integral,
                             kappa_horizon, picard_iterate, rhs_g, solve,
                             transport_diagnostic)
from rchlab.initial_data import builtin_profile
from rchlab.lagrangian import initial_state, lagrangian_solve
from rchlab.littlewood_paley import (BesovIndex, besov_norm,
                                     build_filter_bank, lp_norm)
from rchlab.spectral import Field, PeriodicGrid, ddx, product

GRID = PeriodicGrid(2.0 * np.pi, 256)
P0 = derive_coefficients(0.0)


def test_rhs_g_cos_oracle():
    # omega=0, u=cos: -d/dx (1-dxx)^{-1} (sin^2/2 + cos^2) = sin(2x)/10
    u = Field(GRID, np.cos(GRID.x))
    expect = np.sin(2.0 * GRID.x) / 10.0
    assert np.max(np.abs(rhs_g(u, P0).values - expect)) <= 1e-13


def test_full_rhs_cos_oracle():
    u = Field(GRID, np.cos(GRID.x))
    expect = 0.6 * np.sin(2.0 * GRID.x)
    assert np.max(np.abs(full_rhs(u, P0).values - expect)) <= 1e-12


def test_rhs_g_general_coefficients():
    # independent spectral evaluation of the quartic flux at omega=1
    p = derive_coefficients(1.0)
    u_vals = np.cos(GRID.x)
    q = (0.5 * np.sin(GRID.x) ** 2 + p.c1 * u_vals**2
         + p.c2 * u_vals**3 + p.c3 * u_vals**4)
    spec = rfft(q)
    k = GRID.k
    expect = irfft(-1j * k / (1.0 + k**2) * spec, GRID.n_points)
    got = rhs_g(Field(GRID, u_vals), p).values
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_zero_rotation_path_is_exact_reduction():
    # the derived omega=0 coefficients are exactly (1, 0, 0), so the rhs
    # agrees bitwise with a hand-built parameter set
    manual = ModelParams(omega=0.0, c=1.0, alpha=0.5, beta0=0.25,
                         beta=5.0 / 12.0, omega1=0.0, omega2=0.0,
                         gamma=P0.gamma, c0=P0.c0, c1=1.0, c2=0.0, c3=0.0)
    rng = np.random.default_rng(1)
    u = Field(GRID, 0.3 * irfft(rfft(rng.normal(size=256))
                                * (GRID.k < 40.0), 256))
    a = full_rhs(u, P0).values
    b = full_rhs(u, manual).values
    assert np.max(np.abs(a - b)) <= 1e-14


def test_rk4_measured_order():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    params = derive_coefficients(1.0)
    t_end = 0.32
    finals = []
    for dt in (0.04, 0.02, 0.01):
        cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_every=10**6)
        finals.append(solve(u0, params, cfg).final().values)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = math.log2(e1 / e2)
    assert order >= 3.8, f"measured order {order:.3f}"


def test_h1_integral_short_drift():
    # omega=0 conserves the H1 integral; check a short window tightly
    grid = PeriodicGrid(2.0 * np.pi, 1024)
    u0 = Field(grid, 0.2 * np.cos(grid.x) + 0.1 * np.sin(2.0 * grid.x))
    cfg = SolverConfig(dt=1.0 / 256.0, t_end=0.25, snapshot_every=16)
    traj = solve(u0, P0, cfg)
    h0 = h1_integral(u0)
    drifts = [abs(h1_integral(traj.field_at(i)) - h0) / h0
              for i in range(len(traj.times))]
    assert max(drifts) <= 1e-10


def test_cfl_guard():
    u0 = Field(GRID, 2.0e8 * np.cos(GRID.x))
    cfg = SolverConfig(dt=1.0, t_end=2.0)
    with pytest.raises(CFLError) as err:
        solve(u0, P0, cfg)
    assert err.value.time is not None


def test_blowup_guard():
    # state above the finiteness threshold trips after the first step
    u0 = Field(GRID, 2.0e8 * np.cos(GRID.x))
    cfg = SolverConfig(dt=5.0e-11, t_end=1.0e-10)
    with pytest.raises(BlowUpError) as err:
        solve(u0, P0, cfg)
    assert err.value.time is not None


def test_kappa_horizon():
    assert kappa_horizon(1.0) == pytest.approx(0.1 / 3.0)
    assert kappa_horizon(0.5) > kappa_horizon(1.0)
    assert kappa_horizon(1.0, kappa=0.2) == pytest.approx(0.2 / 3.0)
    assert kappa_horizon(0.0) == math.inf  # zero data never blows up
    with pytest.raises(InvalidParameterError):
        kappa_horizon(-1.0)
    with pytest.raises(InvalidParameterError):
        kappa_horizon(float("nan"))


def test_solution_stays_comparable_to_data():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    params = derive_coefficients(1.0)
    bank = build_filter_bank(grid)
    idx = BesovIndex(2.0, 2.0, 2.0)
    b0 = besov_norm(bank, u0, idx)
    cfg = SolverConfig(dt=0.01, t_end=0.5 * kappa_horizon(b0),
                       snapshot_every=5)
    traj = solve(u0, params, cfg)
    sup = max(besov_norm(bank, traj.field_at(i), idx)
              for i in range(len(traj.times)))
    assert sup <= 3.0 * b0


def test_transport_diagnostic():
    u = Field(GRID, 0.5 * np.cos(GRID.x))
    expect = 0.5 + 0.5 + 0.25 + 0.125
    assert transport_diagnostic(u) == pytest.approx(expect, rel=1e-10)


def test_solver_config_validation():
    with pytest.raises(InvalidParameterError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(dt=0.1, t_end=0.0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(dt=0.1, t_end=1.0, snapshot_every=0)


def test_solver_config_caps_the_step_count():
    # the constructor alone: a march at the cap would form 2^20 steps
    assert SolverConfig(dt=1.0, t_end=float(eulerian.MAX_STEPS)).t_end == 2**20
    for dt, t_end in ((1.0, 2.0**20 + 1.0), (1e-10, 1e10), (1e-7, 1e7),
                      (1e-300, 1e300)):
        with pytest.raises(InvalidParameterError, match="MAX_STEPS dt"):
            SolverConfig(dt=dt, t_end=t_end)
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        SolverConfig.sampled(1.0, 2**20 + 1, 8)


@pytest.mark.parametrize("t_end", [math.inf, math.nan])
def test_solver_config_refuses_a_non_finite_horizon(t_end):
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        SolverConfig(dt=0.1, t_end=t_end)
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        SolverConfig.sampled(t_end, 48, 8)


def test_snapshot_cadence():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    cfg = SolverConfig(dt=0.01, t_end=0.2, snapshot_every=5)
    traj = solve(u0, derive_coefficients(1.0), cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.2)
    assert len(traj.times) == 5  # 0, 0.05, 0.10, 0.15, 0.20
    i = traj.index_of_time(0.10)
    assert traj.times[i] == pytest.approx(0.10)
    with pytest.raises(InvalidParameterError):
        traj.index_of_time(0.07)


def test_picard_first_iterate_is_frozen_data():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    cfg = SolverConfig(dt=0.02, t_end=0.1)
    iters = picard_iterate(u0, derive_coefficients(1.0), cfg, 1)
    assert len(iters) == 1
    for i in range(len(iters[0].times)):
        assert np.array_equal(iters[0].states[i], u0.values)


def _count_transforms(monkeypatch):
    # rows and points of every rfft/irfft of the two modules, per lattice
    # size: a stacked call counts one per row, and its points are the
    # transform length times the rows
    rows = {}

    def counted(fn, inverse):
        def wrapper(x, *args, **kwargs):
            # every irfft here passes its length
            m = args[0] if inverse else np.shape(x)[-1]
            rows[m] = rows.get(m, 0) + math.prod(np.shape(x)[:-1])
            return fn(x, *args, **kwargs)
        return wrapper

    for module in (eulerian, spectral):
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(module, name, counted(getattr(module, name),
                                                      name == "irfft"))
    return rows


@pytest.mark.parametrize("advect", [True, False])
def test_kernel_transform_budget(monkeypatch, advect):
    # u at 2N and the projection of the cubic and quartic at 2N; u_x and the
    # quadratic flux at N, and u u_x at N when it is wanted
    n = 512
    u = builtin_profile("smoke", PeriodicGrid(64.0 * np.pi, n))
    spec = rfft(u.values)
    rows = _count_transforms(monkeypatch)
    eulerian._nonlinear_spec(spec, u.grid, derive_coefficients(1.0), advect)
    assert rows == {2 * n: 2, n: 3 if advect else 2}


@pytest.mark.parametrize("m_iters", [1, 2, 4])
def test_picard_transform_budget(monkeypatch, m_iters):
    # one transform of u0, one guard transform per step, and per step of a
    # later iterate 2 new taus x (3 at N + 2 at 2N), 4 stages x 2 at N and
    # the guard at N, plus the kernel call at tau = 0
    n = 512
    u0 = builtin_profile("smoke", PeriodicGrid(64.0 * np.pi, n))
    p = derive_coefficients(1.0)
    rows = _count_transforms(monkeypatch)
    n_steps = 5
    iters = picard_iterate(u0, p, SolverConfig(dt=0.02, t_end=0.1), m_iters)
    assert len(iters[0].times) == n_steps + 1
    assert sum(rows.values()) == 1 + n_steps + (m_iters - 1) * (
        19 * n_steps + 5)
    per_step, at_zero = 15 * n + 4 * 2 * n, 3 * n + 2 * 2 * n
    assert sum(m * r for m, r in rows.items()) == (1 + n_steps) * n + (
        m_iters - 1) * (per_step * n_steps + at_zero)


@pytest.mark.parametrize("m_iters", [1, 3])
def test_picard_stage_products_run_on_the_n_point_lattice(monkeypatch,
                                                          m_iters):
    # every stage of a later iterate makes one product through the module's
    # conv_spec binding, with u^m on the N-point lattice
    first_factors = []

    def counting(ua, sb, grid):
        first_factors.append(np.shape(ua))
        return spectral.conv_spec(ua, sb, grid)

    monkeypatch.setattr(eulerian, "conv_spec", counting)
    n, n_steps = 512, 5
    u0 = builtin_profile("smoke", PeriodicGrid(64.0 * np.pi, n))
    picard_iterate(u0, derive_coefficients(1.0),
                   SolverConfig(dt=0.02, t_end=0.1), m_iters)
    assert first_factors == [(n,)] * (4 * n_steps * (m_iters - 1))


def test_stage_times_are_the_taus_the_march_passes():
    # 0.1 = 3 x 0.03 + a short last step of 0.01
    cfg = SolverConfig(dt=0.03, t_end=0.1)
    seen = []

    def spy(tau, y):
        seen.append(tau)
        return y

    eulerian._rk4_march(np.ones(1), 1.0, cfg, spy, guard=lambda y, t, tn: y)
    stages = eulerian._stage_times(cfg)
    assert seen == [tau for t, mid, tn in stages for tau in (t, mid, mid, tn)]
    assert len(stages) == 4 and stages[-1][2] == 0.1
    assert stages[-1][2] - stages[-1][0] == pytest.approx(0.01, abs=1e-15)


def _scalar_interpolate(traj, t):
    # the cubic Lagrange interpolation as it ran before, one tau per call
    times = traj.times
    n = len(times)
    i = min(max(int(np.searchsorted(times, t)) - 1, 0), n - 2)
    lo = min(max(i - 1, 0), max(n - 4, 0))
    stencil = range(lo, min(lo + 4, n))
    out = np.zeros_like(traj.states[0])
    for a in stencil:
        w = 1.0
        for b in stencil:
            if b != a:
                w *= (t - times[b]) / (times[a] - times[b])
        out += w * traj.states[a]
    return out


@pytest.mark.parametrize("n_snaps", [2, 3, 4, 5, 51])
def test_block_interpolation_matches_the_scalar_loop(n_snaps):
    rng = np.random.default_rng(n_snaps)
    times = 0.01 * np.arange(float(n_snaps))
    times[-1] -= 0.004  # a short last step
    traj = eulerian.Trajectory(GRID, times,
                               rng.normal(size=(n_snaps, GRID.n_points)))
    stages = np.ravel([(t, t + 0.5 * (tn - t), tn)
                       for t, tn in zip(times[:-1], times[1:])])
    taus = list(dict.fromkeys(stages)) + [-0.003, times[-1] + 0.002]
    got = eulerian._interpolate_in_time(traj, taus)
    want = np.array([_scalar_interpolate(traj, t) for t in taus])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _per_tau_picard(u0, params, cfg, m_iters):
    # the Picard iterator with one unstacked kernel call per tau and a memo
    # of the last two taus, as it ran before the stage times were stacked
    grid = u0.grid
    s0 = eulerian.dealias_spec(eulerian.rfft(u0.values), grid)
    every_step = SolverConfig(dt=cfg.dt, t_end=cfg.t_end)

    def frozen(prev):
        memo = {}

        def rhs(tau, w):
            if tau not in memo:
                if len(memo) == 2:
                    del memo[next(iter(memo))]
                vals = eulerian._interpolate_in_time(prev, [tau])[0]
                g, un = eulerian._nonlinear_spec(eulerian.rfft(vals), grid,
                                                 params, advect=False)
                memo[tau] = np.ascontiguousarray(un), g
            un, g = memo[tau]
            svx = 1j * grid.k * (s0 + w)
            svx[-1] = 0.0
            return g - eulerian.dealias_spec(
                eulerian.conv_spec(un, svx, grid), grid)

        return rhs

    def to_lattice(w, t, t_next):
        return u0.values + eulerian.irfft(w, grid.n_points)

    iterates = []
    for _ in range(m_iters):
        rhs = (frozen(iterates[-1]) if iterates
               else lambda tau, w: np.zeros_like(w))
        times, snaps = eulerian._rk4_march(np.zeros_like(s0), u0.values,
                                           every_step, rhs, guard=to_lattice)
        iterates.append(eulerian.Trajectory(grid, times, np.asarray(snaps)))
    return iterates


@pytest.mark.parametrize("omega", [0.0, 1.0, 2.5])
def test_stacked_picard_matches_the_per_tau_memo(omega):
    # N = 2^10 stacks 16 taus to a call; 11 steps with a short last one
    # make 23 taus, so a full block and a remainder
    u0 = builtin_profile("smoke", PeriodicGrid(64.0 * np.pi, 2**10))
    p = derive_coefficients(omega)
    cfg = SolverConfig(dt=0.01, t_end=0.105)
    assert eulerian._stack_rows(2 * 2**10) == 16
    got = picard_iterate(u0, p, cfg, 4)
    want = _per_tau_picard(u0, p, cfg, 4)
    for a, b in zip(got, want):
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)


@pytest.mark.parametrize("omega", [0.0, 1.0, 2.5])
def test_picard_second_iterate_matches_value_form_rk4(omega):
    # iterate 1 is u0 at every time, so iterate 2 solves v_t = G(u0) - u0 v_x;
    # march that in lattice values with library products as a reference
    grid = PeriodicGrid(64.0 * np.pi, 2**10)
    u0 = builtin_profile("smoke", grid)
    p = derive_coefficients(omega)
    dt, n_steps = 0.01, 10
    g0 = rhs_g(u0, p).values

    def rhs(v):
        return g0 - product(u0, ddx(Field(grid, v)), dealias=True).values

    v = u0.values
    want = [v]
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        want.append(v)
    got = picard_iterate(u0, p, SolverConfig(dt=dt, t_end=dt * n_steps), 2)[1]
    want = np.asarray(want)
    assert got.states.shape == want.shape
    assert np.max(np.abs(got.states - want)) <= 1e-13 * np.max(np.abs(want))


def test_picard_validation():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    cfg = SolverConfig(dt=0.02, t_end=0.1)
    with pytest.raises(InvalidParameterError):
        picard_iterate(u0, derive_coefficients(1.0), cfg, 0)


def test_final_partial_step():
    # t_end not divisible by dt still lands exactly on t_end
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    cfg = SolverConfig(dt=0.03, t_end=0.1, snapshot_every=1)
    traj = solve(u0, derive_coefficients(1.0), cfg)
    assert traj.times[-1] == 0.1


def test_mass_and_h1_conserved_with_rotation():
    # at omega=1 every c_k term integrates to zero against u, so exact
    # products followed by one projection keep both invariants to rounding
    p = derive_coefficients(1.0)
    u0 = Field(GRID, 0.5 * np.cos(GRID.x) + 0.3 * np.sin(3.0 * GRID.x))
    cfg = SolverConfig(dt=1.0 / 1024.0, t_end=1.0, snapshot_every=64)
    traj = solve(u0, p, cfg)
    h0 = h1_integral(u0)
    m0 = np.mean(u0.values)
    for i in range(len(traj.times)):
        f = traj.field_at(i)
        assert abs(h1_integral(f) - h0) / h0 <= 1e-9
        assert abs(np.mean(f.values) - m0) <= 1e-13


def _oversampled_rhs(u_vals, params, advect):
    # independent evaluation: powers taken directly on a 4x finer lattice,
    # where a quartic of modes below N/2 cannot alias onto modes below N/2
    n = GRID.n_points
    big = 4 * n
    k_big = (2.0 * np.pi / GRID.length) * np.arange(big // 2 + 1)
    spec = np.zeros(big // 2 + 1, dtype=complex)
    spec[:n // 2 + 1] = rfft(u_vals)
    u = irfft(spec, big) * 4.0
    ux = irfft(1j * k_big * spec, big) * 4.0
    q = (0.5 * ux**2 + params.c1 * u**2 + params.c2 * u**3
         + params.c3 * u**4)
    out = -1j * k_big / (1.0 + k_big**2) * rfft(q) / 4.0
    if advect:
        out -= rfft(u * ux) / 4.0
    return out[:n // 2]


def _random_band(top_mode, seed):
    rng = np.random.default_rng(seed)
    spec = np.zeros(GRID.n_points // 2 + 1, dtype=complex)
    m = np.arange(top_mode + 1)
    spec[m] = ((rng.normal(size=m.size) + 1j * rng.normal(size=m.size))
               * np.exp(-m / 20.0))
    spec[0] = spec[0].real
    vals = irfft(spec, GRID.n_points)
    return 0.5 * vals / np.max(np.abs(vals))


def test_rhs_matches_oversampled_evaluation():
    p = derive_coefficients(1.0)
    top_mode = GRID.n_points // 3  # the 2/3-rule band
    u_vals = _random_band(top_mode, seed=top_mode)
    u = Field(GRID, u_vals)
    for fn, advect in ((rhs_g, False), (full_rhs, True)):
        want = _oversampled_rhs(u_vals, p, advect)
        want[GRID.k[:-1] > GRID.dealias_cap] = 0.0
        # the unpaired Nyquist mode carries a convention, not a value
        got = rfft(fn(u, p).values)[:-1]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, fn.__name__


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(1, 31), st.floats(0.3, 1.0),
       st.integers(0, 2**32 - 1))
def test_mass_and_h1_conserved_at_every_omega(omega, top_mode, scale, seed):
    # random data on modes 0..top_mode, some above the 2/3 cap, with the
    # speed |u| + |F'(u)| of F = c1 u^2 + c2 u^3 + c3 u^4 at most 2
    grid = PeriodicGrid(2.0 * np.pi, 64)
    p = derive_coefficients(omega)
    rng = np.random.default_rng(seed)
    m = np.arange(top_mode + 1)
    spec = ((rng.normal(size=m.size) + 1j * rng.normal(size=m.size))
            * np.exp(-m / 8.0))
    spec[0] = spec[0].real
    vals = irfft(spec, grid.n_points)
    amp = 2.0 / (1.0 + 2.0 * abs(p.c1) + 3.0 * abs(p.c2) + 4.0 * abs(p.c3))
    u0 = Field(grid, scale * amp * vals / np.max(np.abs(vals)))
    traj = solve(u0, p, SolverConfig(dt=1.0 / 512.0, t_end=0.5,
                                     snapshot_every=32))
    h0 = h1_integral(u0)
    m0 = np.mean(u0.values)
    for i in range(len(traj.times)):
        f = traj.field_at(i)
        assert abs(h1_integral(f) - h0) / h0 <= 1e-9
        assert abs(np.mean(f.values) - m0) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.integers(1, GRID.n_points // 3),
       st.integers(0, 2**32 - 1))
def test_rhs_matches_oversampled_evaluation_at_every_omega(omega, top_mode,
                                                           seed):
    p = derive_coefficients(omega)
    u_vals = _random_band(top_mode, seed)
    u = Field(GRID, u_vals)
    for fn, advect in ((rhs_g, False), (full_rhs, True)):
        want = _oversampled_rhs(u_vals, p, advect)
        want[GRID.k[:-1] > GRID.dealias_cap] = 0.0
        got = rfft(fn(u, p).values)[:-1]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, fn.__name__


def _nan_field():
    grid = PeriodicGrid(64.0 * np.pi, 512)
    vals = builtin_profile("smoke", grid).values.copy()
    vals[7] = np.nan
    return Field(grid, vals)


@pytest.mark.parametrize("integrate", [
    lambda u0, p, cfg: solve(u0, p, cfg),
    lambda u0, p, cfg: picard_iterate(u0, p, cfg, 2),
    lambda u0, p, cfg: lagrangian_solve(initial_state(u0), p, cfg),
], ids=["solve", "picard_iterate", "lagrangian_solve"])
def test_nan_initial_field_blows_up_at_time_zero(integrate):
    cfg = SolverConfig(dt=0.01, t_end=0.05)
    with np.errstate(invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            integrate(_nan_field(), derive_coefficients(1.0), cfg)
    assert err.value.time == 0.0


def test_cfl_trip_mid_run_names_the_refused_step(monkeypatch):
    # from step k on the right-hand side is a large constant: step k lifts the
    # mean to dt * 1e5, and the guard refuses step k + 1 before its stages
    grid = PeriodicGrid(64.0 * np.pi, 512)
    dt, k = 0.01, 3
    kernel = eulerian._nonlinear_spec
    calls = []

    def lifted(spec_u, *args, **kwargs):
        calls.append(None)
        out, un = kernel(spec_u, *args, **kwargs)
        if len(calls) > 4 * k:
            out = np.zeros_like(out)
            out[0] = 1e5 * grid.n_points
        return out, un

    monkeypatch.setattr(eulerian, "_nonlinear_spec", lifted)
    with pytest.raises(CFLError) as err:
        solve(builtin_profile("smoke", grid), derive_coefficients(1.0),
              SolverConfig(dt=dt, t_end=1.0))
    assert err.value.time == dt * (k + 1)
    assert len(calls) == 4 * (k + 1)


def test_rk4_order_away_from_rounding():
    # errors of 6e-7 down to 1.5e-10 against a dt/8 reference: far above
    # rounding, so the measured order reads the scheme's, 4
    grid = PeriodicGrid(64.0 * np.pi, 2**9)
    u0 = builtin_profile("smoke", grid)
    params = derive_coefficients(1.0)
    dts = [0.25 / 2**i for i in range(4)]

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=2.0, snapshot_every=10**6)
        return solve(u0, params, cfg).final().values

    ref = final(dts[-1] / 8.0)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in dts]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 4.0) <= 0.1 for o in orders), orders


def test_rk4_march_is_the_classical_scheme():
    # every integrator steps through this march, so a common-mode fault in
    # it would pass the particle/grid cross-checks; pin it to the tableau.
    # On y' = -2y each step multiplies by the RK4 stability polynomial, and
    # on y' = 4 tau^3 the stage times make Simpson's rule, exact for cubics.
    cfg = SolverConfig(dt=0.1, t_end=0.3)
    z = -0.2
    gain = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    times, snaps = eulerian._rk4_march(
        np.ones(1), 1.0, cfg, lambda tau, y: -2.0 * y,
        guard=lambda y, t, t_next: y[0])
    assert np.allclose(times, [0.0, 0.1, 0.2, 0.3], rtol=0.0, atol=1e-15)
    assert snaps == pytest.approx([gain**i for i in range(4)], rel=1e-14)
    _, snaps = eulerian._rk4_march(
        np.zeros(1), 0.0, cfg, lambda tau, y: np.full(1, 4.0 * tau**3),
        guard=lambda y, t, t_next: y[0])
    assert snaps[-1] == pytest.approx(0.3**4, rel=1e-14)


def _textbook_rk4(y, cfg, f):
    """The classical scheme written out: stage states and step results."""
    stages, steps = [], []
    for t, t_mid, t_next in eulerian._stage_times(cfg):
        dt = t_next - t
        k1 = f(t, y)
        k2 = f(t_mid, y + 0.5 * dt * k1)
        k3 = f(t_mid, y + 0.5 * dt * k2)
        k4 = f(t_next, y + dt * k3)
        stages += [y, y + 0.5 * dt * k1, y + 0.5 * dt * k2, y + dt * k3]
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        steps.append(y)
    return stages, steps


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_rk4_march_sums_in_place_bit_for_bit(kind):
    # the march forms stage states in one temporary and sums the slopes in
    # their own memory; every stage state and step must still be the
    # textbook expression, on a packed particle state and on a spectrum
    rng = np.random.default_rng(5)
    if kind == "real":
        y0 = rng.normal(size=(4, 512))
    else:
        y0 = rfft(rng.normal(size=(3, 512))) / 64.0  # complex sin stays finite
    cfg = SolverConfig(dt=0.03, t_end=0.1)  # a short last step of 0.01

    def f(tau, y):
        return np.sin(y) - tau * y

    seen = []

    def spy(tau, y):
        seen.append(y.copy())
        return f(tau, y)

    _, snaps = eulerian._rk4_march(y0, y0, cfg, spy,
                                   guard=lambda y, t, t_next: y)
    stages, steps = _textbook_rk4(y0, cfg, f)
    assert len(seen) == len(stages) == 16
    for got, want in zip(seen + snaps[1:], stages + steps):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(snaps[0], y0)


def _plain_kernel(spec_u, grid, params, advect):
    """The kernel as the plain composition mask -> pad -> pointwise ->
    project -> mask, every array formed anew, with scipy's transforms."""
    sym = spectral._dx_symbol(grid)
    spec_u = spectral.dealias_spec(spec_u, grid)
    u = spectral.pad_values(spec_u, grid)
    ux = sp_irfft(sym * spec_u, grid.n_points)
    q = (((u * params.c3 + params.c2) * u) * u) * u
    out = spectral.project_values(q, grid)
    un = u[..., ::2]
    out = out + sp_rfft((ux * ux) * 0.5 + (params.c1 * un) * un)
    out = out * (-sym / (1.0 + grid.k**2))
    if advect:
        out = out - sp_rfft(un * ux)
    return spectral.dealias_spec(out, grid), un


@pytest.mark.parametrize("n", [2**9, 2**13])
@pytest.mark.parametrize("advect", [True, False])
@pytest.mark.parametrize("rows", [None, 3])
def test_kernel_is_the_plain_composition_bit_for_bit(n, advect, rows):
    # the kernel truncates instead of masking a copy, reuses the flux
    # symbol and masks its result in place: the bits must not move
    grid = PeriodicGrid(64.0 * np.pi, n)
    shape = (n,) if rows is None else (rows, n)
    spec = sp_rfft(0.3 * np.random.default_rng(n).normal(size=shape))
    before = spec.copy()
    params = derive_coefficients(1.0)
    got, un = eulerian._nonlinear_spec(spec, grid, params, advect)
    want, want_un = _plain_kernel(spec, grid, params, advect)
    assert np.array_equal(got, want) and np.array_equal(un, want_un)
    assert np.array_equal(spec, before)  # the input is not written


@pytest.mark.parametrize("n", [256, 2**13])
def test_cached_symbols_are_fresh_and_read_only(n):
    grid = PeriodicGrid(64.0 * np.pi, n)
    other = PeriodicGrid(2.0 * np.pi, n)
    dx = 1j * grid.k
    dx[-1] = 0.0
    fresh = {spectral._dx_symbol: dx,
             spectral._flux_symbol: -dx / (1.0 + grid.k**2)}
    for symbol, want in fresh.items():
        for g in (grid, other, grid):  # the cache holds the last grid only
            got = symbol(g)
            assert np.array_equal(symbol(g), got)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[1] = 0.0
        with pytest.raises(ValueError):
            got *= 2.0
