"""Particle solver: scans vs brute force, flow identities, stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from rchlab import lagrangian
from rchlab.coefficients import derive_coefficients
from rchlab.errors import (BlowUpError, DiffeomorphismError,
                           InvalidParameterError)
from rchlab.eulerian import SolverConfig, rhs_g, solve
from rchlab.initial_data import builtin_profile
from rchlab.lagrangian import (LagrangianState, _one_sided_scan, _pchip,
                               _w1_intersection_norm, exp_scan_split, initial_state, lagrangian_rhs,
                               lagrangian_solve, linf_along_paths,
                               pullback_to_eulerian, stability_distance)
from rchlab.littlewood_paley import lp_norm, w1p_norm
from rchlab.spectral import Field, PeriodicGrid, ddx, helmholtz_inverse

P1 = derive_coefficients(1.0)


def _brute_left(w, y, period):
    # every image y_j - m period strictly left of y_i, in closed form: the
    # nearest lies d = y_i - y_j away for j < i and d + period for j >= i,
    # and each lap further multiplies its term by q = e^{-period}, so the
    # images of node j add up to e^{-d} w_j / (1 - q); 512 rows at a time
    n = len(y)
    out = np.empty(n)
    for i0 in range(0, n, 512):
        rows = np.arange(i0, min(i0 + 512, n))
        d = y[rows, None] - y[None, :]
        d[rows[:, None] <= np.arange(n)] += period
        out[rows] = np.exp(np.negative(d, out=d), out=d) @ w
    return out / -math.expm1(-period)


def _brute_sides(w, y, period):
    return (_brute_left(w, y, period),
            _brute_left(w[::-1], (-y)[::-1], period)[::-1])


def _combine(t_left, t_right, w, grid, kind):
    if kind == "signed":
        return grid.spacing * (t_left - t_right)
    return grid.spacing * (w + t_left + t_right)


def _stretched_map(grid, rng):
    # smooth non-uniform stretching (y_xi between 0.75 and 1.25) plus jitter
    y = grid.x + 0.125 * grid.length / (2.0 * np.pi) \
        * np.sin(2.0 * np.pi * grid.x / grid.length) \
        + 0.2 * grid.spacing * rng.uniform(-1.0, 1.0, grid.n_points)
    assert np.all(np.diff(y) > 0.0)
    return y


def test_scan_matches_brute_force():
    grid = PeriodicGrid(2.0 * np.pi, 512)
    rng = np.random.default_rng(21)
    y = grid.x + 0.3 * grid.spacing * np.sin(grid.x) \
        + 0.2 * grid.spacing * rng.uniform(-1.0, 1.0, 512)
    assert np.all(np.diff(y) > 0.0)
    w = rng.normal(size=512)
    sides = _brute_sides(w, y, grid.length)
    for kind in ("signed", "unsigned"):
        got = exp_scan_split(w, y, grid, kind)
        want = _combine(*sides, w, grid, kind)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-10 * scale, kind


def test_scan_blocked_carry_matches_brute():
    # 2048 nodes make 4 blocks, so the carries cross blocks both ways
    grid = PeriodicGrid(16.0 * np.pi, 2048)
    rng = np.random.default_rng(22)
    y = _stretched_map(grid, rng)
    w = rng.normal(size=2048)
    sides = _brute_sides(w, y, grid.length)
    for kind in ("signed", "unsigned"):
        got = exp_scan_split(w, y, grid, kind)
        want = _combine(*sides, w, grid, kind)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), kind


@pytest.mark.parametrize("length", [2.0 * np.pi, 4.0 * np.pi],
                         ids=["2pi", "4pi"])
def test_scan_sums_every_periodic_image(length):
    # on a short period the images one lap away weigh e^{-L} (1.9e-3 at
    # 2 pi): a scan that keeps some of them and drops others is off by that
    grid = PeriodicGrid(length, 1024)
    rng = np.random.default_rng(24)
    y = _stretched_map(grid, rng)
    w = rng.normal(size=1024)
    for got, want in zip(_one_sided_scan(w, y, length),
                         _brute_sides(w, y, length)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([16, 512, 1024, 2048]),
       st.floats(2.0 * np.pi, 64.0 * np.pi), st.floats(0.0, 0.9),
       st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
def test_scan_matches_image_sum_on_random_maps(n_points, period, jitter,
                                               shift, seed):
    # a random strictly increasing periodic map: positive gaps that fill one
    # period, so every block of 512 nodes spans at most 64 pi < 700
    rng = np.random.default_rng(seed)
    gaps = 1.0 + jitter * rng.uniform(-1.0, 1.0, n_points)
    gaps *= period / np.sum(gaps)
    y = shift + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    w = rng.normal(size=n_points)
    for got, want in zip(_one_sided_scan(w, y, period),
                         _brute_sides(w, y, period)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n_points", [16, 512, 4096])
def test_two_sided_scan_matches_former_kernel(n_points):
    # at L = 32 pi the former kernel, which periodized only to within
    # e^{-period}, and the image sum agree to e^{-32 pi}, so the closed-form
    # image sum stands in for it; 4096 nodes make 8 blocks of 512
    grid = PeriodicGrid(32.0 * np.pi, n_points)
    rng = np.random.default_rng(23)
    y = _stretched_map(grid, rng)
    w = rng.normal(size=n_points)
    for got, want in zip(_one_sided_scan(w, y, grid.length),
                         _brute_sides(w, y, grid.length)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("length, n_points", [(1024.0, 16), (2000.0, 1024)],
                         ids=["16-nodes", "1024-nodes"])
def test_scan_halves_too_wide_a_block(length, n_points):
    # one block of all 16 nodes, or of 512 of the 1024, would span about
    # 960 or 1000, and e^{960} overflows: the blocks are halved until each
    # spans at most 700
    grid = PeriodicGrid(length, n_points)
    rng = np.random.default_rng(25)
    y = _stretched_map(grid, rng)
    w = rng.normal(size=n_points)
    for got, want in zip(_one_sided_scan(w, y, length),
                         _brute_sides(w, y, length)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_scan_rejects_a_nan_position():
    # a NaN gap compares false both ways, so the monotonicity check must fail
    # it rather than let the scan return NaNs
    grid = PeriodicGrid(64.0 * np.pi, 1024)
    y = grid.x.copy()
    y[5] = np.nan
    with pytest.raises(DiffeomorphismError):
        exp_scan_split(np.ones(1024), y, grid, "signed")


def test_unsigned_scan_is_kernel_convolution():
    # at the identity map the unsigned scan is the trapezoid sum of the
    # e^{-|x|} convolution, so it approaches twice the Helmholtz inverse
    # at second order (the kernel kink caps the quadrature rate)
    errs = []
    for n_points in (2**13, 2**14):
        grid = PeriodicGrid(32.0 * np.pi, n_points)
        w = Field(grid, np.cos(0.5 * grid.x) + 0.3 * np.sin(0.25 * grid.x))
        got = exp_scan_split(w.values, grid.x, grid, "unsigned")
        want = 2.0 * helmholtz_inverse(w).values
        errs.append(np.max(np.abs(got - want)))
    assert errs[1] <= 1e-4
    rate = errs[0] / errs[1]
    assert 3.0 <= rate <= 5.0


def test_initial_rhs_matches_grid_solver():
    # at t=0 the particle velocity derivative equals the nonlocal flux
    grid = PeriodicGrid(32.0 * np.pi, 2**16)
    u0 = Field(grid, 0.2 * np.cos(0.5 * grid.x)
               + 0.1 * np.sin(0.25 * grid.x))
    state = initial_state(u0)
    deriv = lagrangian_rhs(state, P1)
    want = rhs_g(u0, P1).values
    assert np.max(np.abs(deriv.U - want)) <= 1e-6
    # and the position/stretching slots carry the transport identities
    assert np.array_equal(deriv.y, u0.values)
    assert np.array_equal(deriv.y_xi, ddx(u0).values)


def _trig_setup(n_points=2**12):
    grid = PeriodicGrid(32.0 * np.pi, n_points)
    u0 = Field(grid, 0.2 * np.cos(0.5 * grid.x))
    return grid, u0


def test_pullback_identity_at_t0():
    _, u0 = _trig_setup()
    back = pullback_to_eulerian(initial_state(u0))
    assert np.max(np.abs(back.values - u0.values)) <= 1e-12


def test_linf_consistency_with_pullback():
    _, u0 = _trig_setup()
    cfg = SolverConfig(dt=1.0 / 128.0, t_end=0.5, snapshot_every=64)
    traj = lagrangian_solve(initial_state(u0), P1, cfg)
    final = traj.states[-1]
    along = linf_along_paths(final)
    back = lp_norm(pullback_to_eulerian(final), math.inf)
    assert abs(along - back) <= 1e-4


def test_cross_agreement_with_grid_solver():
    _, u0 = _trig_setup()
    dt = 1.0 / 128.0
    cfg = SolverConfig(dt=dt, t_end=0.5, snapshot_every=64)
    lag = lagrangian_solve(initial_state(u0), P1, cfg)
    eul = solve(u0, P1, SolverConfig(dt=dt, t_end=0.5, snapshot_every=64))
    back = pullback_to_eulerian(lag.states[-1])
    gap = np.max(np.abs(back.values - eul.final().values))
    assert gap <= 1e-4


def test_stability_distance_linear_response():
    grid, u0 = _trig_setup(2**10)
    bump = Field(grid, 0.1 * np.cos(0.5 * grid.x))
    cfg = SolverConfig(dt=1.0 / 64.0, t_end=0.25, snapshot_every=4)
    base = lagrangian_solve(initial_state(u0), P1, cfg)
    rates = []
    for eps in (1e-2, 1e-3):
        pert = Field(grid, u0.values + eps * bump.values)
        other = lagrangian_solve(initial_state(pert), P1, cfg)
        dist = stability_distance(base, other, 2.0)
        assert dist[0] > 0.0
        rates.append(np.max(dist) / eps)
    ratio = rates[0] / rates[1]
    assert 0.5 <= ratio <= 2.0


def test_slope_guard():
    grid = PeriodicGrid(32.0 * np.pi, 2**10)
    u0 = Field(grid, 2.0 * np.cos(0.5 * grid.x))  # max slope 1.0
    with pytest.raises(InvalidParameterError):
        lagrangian_solve(initial_state(u0),
                         P1, SolverConfig(dt=0.01, t_end=1.5))


def test_scan_validation():
    grid = PeriodicGrid(2.0 * np.pi, 256)
    w = np.zeros(256)
    with pytest.raises(InvalidParameterError):
        exp_scan_split(w, grid.x, grid, "sideways")
    with pytest.raises(InvalidParameterError):
        exp_scan_split(w[:100], grid.x, grid, "signed")
    y_bad = grid.x.copy()
    y_bad[10] = y_bad[12]  # kills monotonicity
    from rchlab.errors import DiffeomorphismError
    with pytest.raises(DiffeomorphismError):
        exp_scan_split(w, y_bad, grid, "signed")


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_w1_intersection_norm_takes_one_derivative(p):
    grid = PeriodicGrid(2.0 * np.pi, 128)
    f = Field(grid, np.random.default_rng(5).normal(size=128))
    assert _w1_intersection_norm(f, p) == max(w1p_norm(f, math.inf),
                                              w1p_norm(f, p))


def test_stability_distance_validation():
    grid, u0 = _trig_setup(2**10)
    cfg_a = SolverConfig(dt=1.0 / 64.0, t_end=0.25, snapshot_every=4)
    cfg_b = SolverConfig(dt=1.0 / 64.0, t_end=0.25, snapshot_every=8)
    a = lagrangian_solve(initial_state(u0), P1, cfg_a)
    b = lagrangian_solve(initial_state(u0), P1, cfg_b)
    with pytest.raises(InvalidParameterError):
        stability_distance(a, b, 2.0)


def test_rhs_requires_positive_stretching():
    grid, u0 = _trig_setup(2**10)
    st = initial_state(u0)
    bad = LagrangianState(grid=st.grid, labels=st.labels, y=st.y,
                          y_xi=-st.y_xi, U=st.U, U_xi=st.U_xi)
    from rchlab.errors import DiffeomorphismError
    with pytest.raises(DiffeomorphismError):
        lagrangian_rhs(bad, P1)


def test_mass_and_energy_conserved_with_rotation():
    # E = int (U^2 y_xi + U_xi^2 / y_xi) d xi and the mass int U y_xi d xi
    # are invariants of the exact flow at every Omega; the particle scheme
    # keeps them to its second-order quadrature error.  At Omega = 1 the
    # cubic and quartic flux terms are on, acting on a U of both signs.
    drifts = []
    for n_points in (2**11, 2**12):
        grid = PeriodicGrid(32.0 * np.pi, n_points)
        u0 = Field(grid, 0.2 * np.cos(0.5 * grid.x)
                   + 0.1 * np.sin(0.25 * grid.x))
        cfg = SolverConfig(dt=1.0 / 128.0, t_end=0.5, snapshot_every=64)
        traj = lagrangian_solve(initial_state(u0), P1, cfg)
        first, last = traj.states[0], traj.states[-1]
        assert traj.times[-1] == 0.5

        def energy(s):
            return grid.spacing * np.sum(s.U**2 * s.y_xi + s.U_xi**2 / s.y_xi)

        def mass(s):
            return grid.spacing * np.sum(s.U * s.y_xi)

        # u0 has zero mass, so its drift is absolute (int |u0| is about 14)
        drifts.append((abs(energy(last) - energy(first)) / energy(first),
                       abs(mass(last) - mass(first))))
    (e_coarse, m_coarse), (e_fine, m_fine) = drifts
    assert e_fine <= 1.5e-6
    assert m_fine <= 8e-6
    assert 3.0 <= e_coarse / e_fine <= 5.0
    assert 3.0 <= m_coarse / m_fine <= 5.0


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
def test_mass_and_energy_conserved_at_every_omega(omega, scale, seed):
    # the invariants of the test above at random Omega, on random data on
    # modes 0..8, scaled to the largest a <= 1/2 on a grid of 1/1000 whose
    # speed bound a + 2|c1| a + 3|c2| a^2 + 4|c3| a^3 is at most 2
    grid = PeriodicGrid(32.0 * np.pi, 2**11)
    p = derive_coefficients(omega)
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.n_points // 2 + 1, dtype=complex)
    spec[:9] = rng.normal(size=9) + 1j * rng.normal(size=9)
    spec[0] = spec[0].real
    vals = np.fft.irfft(spec, grid.n_points)
    a = np.linspace(0.0, 0.5, 501)
    a = a[a * (1.0 + 2.0 * abs(p.c1) + 3.0 * abs(p.c2) * a
               + 4.0 * abs(p.c3) * a * a) <= 2.0][-1]
    u0 = Field(grid, scale * a * vals / np.max(np.abs(vals)))
    cfg = SolverConfig(dt=1.0 / 128.0, t_end=0.5, snapshot_every=64)
    traj = lagrangian_solve(initial_state(u0), p, cfg)
    h = grid.spacing
    energy, mass = [], []
    for s in traj.states:
        energy.append(h * np.sum(s.U**2 * s.y_xi + s.U_xi**2 / s.y_xi))
        mass.append(h * np.sum(s.U * s.y_xi))
    # drifts of at most 3.6e-6 in 300 random draws; the mass reads against
    # int |u0|, since the mean may be near zero
    assert abs(energy[-1] - energy[0]) <= 1e-5 * energy[0]
    assert abs(mass[-1] - mass[0]) <= 1e-5 * h * np.sum(np.abs(u0.values))


def test_stage_crossing_names_the_step_start():
    # one particle moves at unit speed into its resting neighbour a spacing
    # ahead; they meet near t = 0.0982, inside step 7 (0.0875..0.1) after its
    # midpoint, so the stage-4 input of step 7 is the first state that crosses
    grid = PeriodicGrid(2.0 * np.pi, 64)
    st = initial_state(Field(grid, np.zeros(64)))
    st.U[20] = 1.0
    dt = 0.0125
    with pytest.raises(DiffeomorphismError) as err:
        lagrangian_solve(st, derive_coefficients(0.0),
                         SolverConfig(dt=dt, t_end=0.2))
    assert err.value.time == dt * 7


@pytest.mark.parametrize("row, message", [(0, "monotonicity"), (1, "y_xi")])
def test_crossing_in_a_step_result_names_its_end(monkeypatch, row, message):
    # in step k the stages 1, 2 and 4 close a gap (row 0: particle 20 runs
    # into particle 21; row 1: y_xi at node 20 falls) that stage 3 leaves
    # alone.  No stage input crosses, but the step's RK4 combination does.
    grid = PeriodicGrid(2.0 * np.pi, 64)
    dt, k = 0.01, 2
    push = 1.6 * grid.spacing / dt if row == 0 else -1.6 / dt
    rhs = lagrangian._rhs_packed
    calls = []

    def pushed(arr, *args, **kwargs):
        out = rhs(arr, *args, **kwargs)
        calls.append(None)
        step, stage = divmod(len(calls) - 1, 4)
        if step == k and stage != 2:
            out[row, 20] += push
        return out

    monkeypatch.setattr(lagrangian, "_rhs_packed", pushed)
    with pytest.raises(DiffeomorphismError, match=message) as err:
        lagrangian_solve(initial_state(Field(grid, np.zeros(64))), P1,
                         SolverConfig(dt=dt, t_end=0.1))
    assert err.value.time == dt * (k + 1)
    assert len(calls) == 4 * (k + 1)


def test_rk4_order_away_from_rounding():
    # errors of 4e-7 down to 1e-10 in the particle state against a dt/8
    # reference: far above rounding, so the measured order is the scheme's
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    st = initial_state(builtin_profile("smoke", grid))
    dts = [0.25 / 2**i for i in range(4)]

    def final(dt):
        cfg = SolverConfig(dt=dt, t_end=4.0, snapshot_every=10**6)
        s = lagrangian_solve(st, P1, cfg).states[-1]
        return np.stack([s.y, s.y_xi, s.U, s.U_xi])

    ref = final(dts[-1] / 8.0)
    errs = [np.max(np.abs(final(dt) - ref)) for dt in dts]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 4.0) <= 0.1 for o in orders), orders


@pytest.mark.parametrize("length", [2.0 * np.pi, 4.0 * np.pi],
                         ids=["2pi", "4pi"])
def test_pullback_matches_solve_on_a_short_period(length):
    # every particle travels a distance of about 1 while the kernel's
    # periodic images weigh e^{-L}; the gap left is the RK4/PCHIP error
    grid = PeriodicGrid(length, 512)
    u0 = Field(grid, 1.0 + 0.001 * np.sin(2.0 * np.pi * grid.x / length))
    cfg = SolverConfig(dt=0.0025, t_end=1.0, snapshot_every=400)
    p0 = derive_coefficients(0.0)
    lag = lagrangian_solve(initial_state(u0), p0, cfg)
    back = pullback_to_eulerian(lag.states[-1]).values
    assert np.max(np.abs(back - solve(u0, p0, cfg).final().values)) <= 1e-6


def _scipy_pullback(state):
    """The pullback as scipy's PchipInterpolator computes it."""
    period = state.grid.length
    ye = np.concatenate([state.y - period, state.y, state.y + period])
    ue = np.concatenate([state.U, state.U, state.U])
    return PchipInterpolator(ye, ue, extrapolate=False)(state.grid.x)


@pytest.mark.parametrize("omega", [0.0, 1.0, 2.5])
def test_pullback_is_bit_identical_to_scipy(omega):
    grid = PeriodicGrid(32.0 * np.pi, 2**10)
    u0 = Field(grid, 0.2 * np.cos(0.5 * grid.x) + 0.05 * np.sin(1.5 * grid.x))
    cfg = SolverConfig(dt=1.0 / 32.0, t_end=2.0, snapshot_every=16)
    traj = lagrangian_solve(initial_state(u0), derive_coefficients(omega), cfg)
    assert len(traj.states) == 5
    for state in traj.states:
        back = pullback_to_eulerian(state).values
        assert back.tobytes() == _scipy_pullback(state).tobytes()


# node values with flat runs, sign changes and exact (also negative) zeros
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                    st.floats(-10.0, 10.0))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.floats(-100.0, 100.0),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=40),
       st.data())
def test_pchip_is_bit_identical_to_scipy(x0, gaps, data):
    xk = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    n = len(xk)
    yk = np.array(data.draw(st.lists(_VALUES, min_size=n, max_size=n)))
    hits = data.draw(st.lists(st.integers(0, n - 1), max_size=10))
    fracs = data.draw(st.lists(st.floats(-0.1, 1.1), max_size=20))
    # every node hit, the last node included, points between and outside
    x = np.concatenate([xk[hits], [xk[-1]],
                        xk[0] + np.array(fracs) * (xk[-1] - xk[0])])
    ours = _pchip(xk, yk, x)
    ref = PchipInterpolator(xk, yk, extrapolate=False)(x)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    keep = ~np.isnan(ref)
    assert ours[keep].tobytes() == ref[keep].tobytes()


def test_pchip_keeps_scipys_positive_zero():
    # at the node valued -0.0 every term of the cubic is -0.0; PPoly's sum
    # starts from 0.0, so scipy returns +0.0 there
    xk = np.array([-1.0, 0.0, 1.0, 2.0])
    yk = np.array([1.0 / 3.0, -0.0, -1.0, -10.0])
    x = np.array([0.0])
    ref = PchipInterpolator(xk, yk, extrapolate=False)(x)
    assert not np.signbit(ref[0])
    assert _pchip(xk, yk, x).tobytes() == ref.tobytes()


def test_pullback_after_a_drift_of_more_than_half_a_period():
    # u ~ 1 carries every particle a whole period by t = 2 pi; from t = 7
    # y_0 = 3.86 lies beyond pi, past what one period of extension covers
    grid = PeriodicGrid(2.0 * np.pi, 256)
    u0 = Field(grid, 1.0 + 0.001 * np.sin(grid.x))
    cfg = SolverConfig(dt=0.01, t_end=8.0, snapshot_every=100)
    traj = lagrangian_solve(initial_state(u0), derive_coefficients(0.0), cfg)
    assert traj.states[7].y[0] > grid.x[0] + grid.length
    for state in traj.states:
        back = pullback_to_eulerian(state).values
        k = math.floor((state.y[0] - grid.x[0]) / grid.length)
        moved = LagrangianState(grid=grid, labels=state.labels,
                                y=state.y - k * grid.length,
                                y_xi=state.y_xi, U=state.U, U_xi=state.U_xi)
        assert np.array_equal(back, pullback_to_eulerian(moved).values)
        assert abs(np.max(back) - linf_along_paths(state)) <= 1e-4


@pytest.mark.parametrize("k", [-2, -1, 1, 2, 3])
def test_pullback_of_a_map_translated_by_whole_periods(k):
    grid, u0 = _trig_setup(2**10)
    state = initial_state(Field(grid, u0.values + 0.05 * np.sin(1.5 * grid.x)))
    moved = LagrangianState(grid=grid, labels=state.labels,
                            y=state.y + k * grid.length, y_xi=state.y_xi,
                            U=state.U, U_xi=state.U_xi)
    gap = np.abs(pullback_to_eulerian(moved).values
                 - pullback_to_eulerian(state).values)
    assert np.max(gap) <= 1e-12


def test_pullback_rejects_a_folded_map():
    grid, u0 = _trig_setup(2**10)
    state = initial_state(u0)
    state.y[10] = state.y[12]
    with pytest.raises(DiffeomorphismError):
        pullback_to_eulerian(state)


@pytest.mark.parametrize("row", ["y_xi", "U_xi"])
def test_nan_in_the_initial_state_blows_up_at_time_zero(row):
    # a NaN stretching or slope is bad data, not a crossing of particles
    grid = PeriodicGrid(64.0 * np.pi, 512)
    state = initial_state(builtin_profile("smoke", grid))
    getattr(state, row)[7] = np.nan
    with pytest.raises(BlowUpError) as err:
        lagrangian_solve(state, P1, SolverConfig(dt=0.01, t_end=0.05))
    assert err.value.time == 0.0


def test_rhs_rejects_a_nan_stretching():
    state = initial_state(builtin_profile("smoke", PeriodicGrid(64.0 * np.pi,
                                                                512)))
    state.y_xi[7] = np.nan
    with pytest.raises(DiffeomorphismError, match="y_xi"):
        lagrangian_rhs(state, P1)


@pytest.mark.parametrize("name, value, match", [
    pytest.param("y_xi", 0.0, "y_xi", id="0.0"),
    pytest.param("y_xi", -1.0, "y_xi", id="-1.0"),
    # a folded map, y[7] beyond y[8], with a positive stretching everywhere
    pytest.param("y", None, "monotonicity", id="folded"),
])
def test_nonpositive_initial_stretching_fails_at_time_zero(name, value, match):
    # checked before the slope guard, which would divide by a zero y_xi
    state = initial_state(builtin_profile("smoke", PeriodicGrid(64.0 * np.pi,
                                                                512)))
    getattr(state, name)[7] = state.y[9] if value is None else value
    with np.errstate(all="raise"):
        with pytest.raises(DiffeomorphismError, match=match) as err:
            lagrangian_solve(state, P1, SolverConfig(dt=0.01, t_end=0.05))
    assert err.value.time == 0.0


@pytest.mark.parametrize("n", [64, 2**12])
def test_rhs_packed_is_its_textbook_form_bit_for_bit(n):
    # the particle RHS forms u_x and both fluxes in its output rows and in
    # the scan's outputs; each product and sum must keep its order
    grid = PeriodicGrid(64.0 * np.pi, n)
    rng = np.random.default_rng(n)
    xi = grid.x
    y = xi + 0.5 * np.sin(xi / 8.0)  # y_xi = 1 + cos(xi / 8) / 16 > 0
    y_xi = 1.0 + np.cos(xi / 8.0) / 16.0
    U, U_xi = 0.3 * rng.normal(size=n), 0.3 * rng.normal(size=n)
    arr = np.stack([y, y_xi, U, U_xi])
    before = arr.copy()
    ux = U_xi / y_xi
    w = (P1.quartic(U) + 0.5 * ux * ux) * y_xi
    t_left, t_right = _one_sided_scan(w, y, grid.length)
    dxi = grid.spacing
    want = np.stack([U, U_xi, 0.5 * (dxi * (t_left - t_right)),
                     w - 0.5 * y_xi * (dxi * (w + t_left + t_right))])
    assert np.array_equal(lagrangian._rhs_packed(arr, grid, P1), want)
    assert np.array_equal(arr, before)
