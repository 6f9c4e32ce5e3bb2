"""Top-level acceptance checks.

One test per criterion, each printing a single PASS/FAIL line with the
measured numbers and its wall-clock budget.  These pin the tolerances the
whole package is judged against; the per-module suites cover the fine
structure.
"""

import math
import time

import numpy as np

from rchlab.coefficients import cubic_residual, derive_coefficients
from rchlab.errors import InvalidParameterError
from rchlab.eulerian import SolverConfig, h1_integral, solve
from rchlab.experiments import (fit_line, grid_for_block,
                                run_continuous_dependence,
                                run_critical_expansion,
                                run_decomposition_rates,
                                run_nonuniform_critical,
                                run_nonuniform_supercritical,
                                run_picard_convergence)
from rchlab.initial_data import build_psi, builtin_profile, certification_tables
from rchlab.lagrangian import (exp_scan_split, initial_state, lagrangian_solve,
                               pullback_to_eulerian)
from rchlab.littlewood_paley import (BesovIndex, besov_norm, build_filter_bank,
                                     dyadic_block, lp_norm)
from rchlab.spectral import Field, PeriodicGrid, ddx

OMEGA = 1.0


def _announce(num: int, name: str, ok: bool, detail: str,
              elapsed: float, limit: float) -> None:
    ok = ok and elapsed < limit
    tag = "PASS" if ok else "FAIL"
    print(f"AC{num} {name}: {tag} ({detail}; {elapsed:.1f}s/{limit:.0f}s)")
    assert ok, f"AC{num} {name}: {detail}"


def test_ac1_coefficient_derivation():
    t0 = time.perf_counter()
    p0 = derive_coefficients(0.0)
    exact = (p0.c == 1.0 and p0.c1 == 1.0 and p0.c2 == 0.0 and p0.c3 == 0.0)
    worst = 0.0
    for omega in np.arange(0.0, 2.01, 0.1):
        p = derive_coefficients(float(omega))
        r = abs(cubic_residual(p.gamma, p.c, p.alpha, p.beta0, p.beta,
                               p.omega1, p.omega2))
        worst = max(worst, r)
    elapsed = time.perf_counter() - t0
    _announce(1, "coefficient-derivation", exact and worst <= 1e-12,
              f"zero-rotation exact={exact}, max cubic residual={worst:.2e}",
              elapsed, 1.0)


def test_ac2_dyadic_analysis():
    t0 = time.perf_counter()
    grid = PeriodicGrid(2.0 * np.pi, 2**17)
    bank = build_filter_bank(grid)
    total = sum(bank.filter_for(j) for j in range(-1, bank.j_max + 1))
    partition_err = float(np.max(np.abs(total - 1.0)))

    rng = np.random.default_rng(7)
    noise = rng.standard_normal(grid.n_points)
    f = Field(grid, noise)
    recon = np.zeros(grid.n_points)
    for j in range(-1, bank.j_max + 1):
        recon += dyadic_block(bank, f, j).values
    recon_err = float(np.max(np.abs(recon - noise)) / np.max(np.abs(noise)))

    # Bernstein on a field band-limited to the nominal top annulus
    from numpy.fft import irfft, rfft
    spec = rfft(noise)
    spec[np.abs(grid.k) >= (8.0 / 3.0) * 2.0**bank.j_max] = 0.0
    g = Field(grid, irfft(spec, grid.n_points))
    worst_ratio = 0.0  # of the sharp bound (8/3) 2^j
    for j in range(0, bank.j_max + 1):
        piece = dyadic_block(bank, g, j)
        base = lp_norm(piece, 2.0)
        if base <= 1e-12:
            continue
        ratio = lp_norm(ddx(piece), 2.0) / base / ((8.0 / 3.0) * 2.0**j)
        worst_ratio = max(worst_ratio, ratio)
    bernstein_ok = worst_ratio <= 1.0 + 1e-12

    grid2 = PeriodicGrid(2.0 * np.pi, 4096)
    bank2 = build_filter_bank(grid2)
    mono = Field(grid2, np.sin(1024.0 * grid2.x))
    single_err = 0.0
    for s in (0.5, 2.0):
        for r in (1.0, 2.0, math.inf):
            got = besov_norm(bank2, mono, BesovIndex(s, 2.0, r))
            want = 2.0 ** (9.0 * s) * math.sqrt(math.pi)
            single_err = max(single_err, abs(got - want) / want)

    elapsed = time.perf_counter() - t0
    ok = (partition_err <= 1e-12 and recon_err <= 1e-11
          and bernstein_ok and single_err <= 1e-3)
    _announce(2, "dyadic-analysis", ok,
              f"partition={partition_err:.2e}, reconstruction={recon_err:.2e},"
              f" bernstein ratio={worst_ratio:.6f},"
              f" single-block err={single_err:.2e}",
              elapsed, 10.0)


def _brute_left(w, y, period):
    # every image y_j - m period strictly left of y_i: the nearest lies
    # d = y_i - y_j away for j < i and d + period for j >= i, and the images
    # of node j add up to e^{-d} w_j / (1 - e^{-period})
    d = y[:, None] - y[None, :]
    d[np.triu(np.ones(d.shape, dtype=bool))] += period
    return np.exp(np.negative(d, out=d), out=d) @ w / -math.expm1(-period)


def _brute_split(w, y, grid, kind):
    t_left = _brute_left(w, y, grid.length)
    t_right = _brute_left(w[::-1], (-y)[::-1], grid.length)[::-1]
    if kind == "signed":
        return grid.spacing * (t_left - t_right)
    return grid.spacing * (w + t_left + t_right)


def test_ac3_solver_validation():
    t0 = time.perf_counter()
    params = derive_coefficients(OMEGA)

    # temporal order on a smooth run
    grid = PeriodicGrid(64.0 * np.pi, 2**12)
    u0 = builtin_profile("smoke", grid)
    t_end = 0.32
    ref = solve(u0, params, SolverConfig(dt=0.00125, t_end=t_end,
                                         snapshot_every=256)).final()
    errs = []
    for dt in (0.02, 0.01, 0.005):
        fin = solve(u0, params, SolverConfig(dt=dt, t_end=t_end,
                                             snapshot_every=4096)).final()
        errs.append(np.max(np.abs(fin.values - ref.values)))
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))

    # energy drift of the zero-rotation model over a unit time
    grid_h = PeriodicGrid(2.0 * np.pi, 4096)
    p0 = derive_coefficients(0.0)
    w0 = Field(grid_h, 0.5 * np.cos(grid_h.x))
    traj = solve(w0, p0, SolverConfig(dt=1.0 / 1024.0, t_end=1.0,
                                      snapshot_every=1024))
    drift = abs(h1_integral(traj.final()) - h1_integral(w0)) / h1_integral(w0)

    # particle picture against the grid picture
    cfg = SolverConfig(dt=0.005, t_end=0.2, snapshot_every=40)
    lag = lagrangian_solve(initial_state(u0), params, cfg)
    eul = solve(u0, params, cfg)
    cross = max(np.max(np.abs(pullback_to_eulerian(lag.states[i]).values
                              - eul.states[i]))
                for i in range(len(lag.times)))

    # scan kernel against the quadratic-cost reference
    sgrid = PeriodicGrid(2.0 * np.pi, 512)
    rng = np.random.default_rng(21)
    y = sgrid.x + 0.3 * sgrid.spacing * np.sin(sgrid.x) \
        + 0.2 * sgrid.spacing * rng.uniform(-1.0, 1.0, 512)
    w = rng.normal(size=512)
    scan_err = 0.0
    for kind in ("signed", "unsigned"):
        got = exp_scan_split(w, y, sgrid, kind)
        want = _brute_split(w, y, sgrid, kind)
        scan_err = max(scan_err,
                       np.max(np.abs(got - want)) / np.max(np.abs(want)))

    elapsed = time.perf_counter() - t0
    ok = (order >= 3.8 and drift <= 1e-6 and cross <= 1e-4
          and scan_err <= 1e-10)
    _announce(3, "solver-validation", ok,
              f"rk4 order={order:.2f}, h1 drift={drift:.2e},"
              f" particle/grid gap={cross:.2e}, scan err={scan_err:.2e}",
              elapsed, 120.0)


def test_ac4_data_family_certification():
    t0 = time.perf_counter()
    s = 2.0
    ns = list(range(5, 12))
    grid = grid_for_block(ns[-1])
    bump = build_psi(grid)
    tables = {t.quantity: t for t in certification_tables(bump, ns, s, 2.0)}
    x = np.asarray(ns, dtype=float)
    expected = {"w0n_besov_minus": -1.0, "w0n_besov_center": 0.0,
                "w0n_besov_plus": 1.0, "v0n_besov": -1.0}
    slope_err = 0.0
    for quantity, want in expected.items():
        fit = fit_line(x, np.log2(tables[quantity].values))
        slope_err = max(slope_err, abs(fit.slope - want))
    spread = 0.0
    floors_ok = True
    for quantity in ("psi2_cos_norm", "low_product_norm"):
        tb = tables[quantity]
        floors_ok = floors_ok and tb.empirical_min > 0.0
        top = tb.values[len(tb.values) // 2:]
        spread = max(spread, (np.max(top) - np.min(top)) / np.max(top))
    elapsed = time.perf_counter() - t0
    ok = slope_err <= 0.05 and floors_ok and spread <= 0.10
    _announce(4, "data-family-certification", ok,
              f"max slope error={slope_err:.3f}, floors positive={floors_ok},"
              f" top-half spread={spread:.3f}",
              elapsed, 60.0)


def test_ac5_frozen_data_decay():
    t0 = time.perf_counter()
    rep = run_decomposition_rates(2.5, 2.0, 2.0, range(5, 10))
    v = rep.verdicts["frozen_distance_decays"]
    elapsed = time.perf_counter() - t0
    _announce(5, "frozen-data-decay", v.passed,
              f"sup-t distance slope={v.value:.3f} ({v.tolerance})",
              elapsed, 600.0)


def test_ac6_first_order_residuals():
    t0 = time.perf_counter()
    rep_super = run_decomposition_rates(2.0, 2.0, 2.0, range(6, 10))
    v_super = rep_super.verdicts["residual_quadratic"]
    rep_crit = run_critical_expansion(2.0, [8, 9])
    v_crit = rep_crit.verdicts["residual_quadratic"]
    elapsed = time.perf_counter() - t0
    ok = v_super.passed and v_crit.passed
    _announce(6, "first-order-residuals", ok,
              f"t-exponents: supercritical={v_super.value:.3f},"
              f" critical={v_crit.value:.3f} (need >= 1.8)",
              elapsed, 600.0)


def test_ac7_nonuniform_dependence():
    t0 = time.perf_counter()
    ns = range(5, 10)
    runs = {
        "s2p2r2": run_nonuniform_supercritical(2.0, 2.0, 2.0, ns),
        "crit_p2": run_nonuniform_critical(2.0, ns),
        "crit_p1": run_nonuniform_critical(1.0, ns, steps=24),
    }
    details = []
    ok = True
    for tag, rep in runs.items():
        gap = rep.verdicts["initial_gap_vanishes"]
        kap = rep.verdicts["kappa_positive"]
        ok = ok and gap.passed and kap.passed
        details.append(f"{tag}: gap slope={gap.value:.3f},"
                       f" kappa={kap.value:.3f}")
    elapsed = time.perf_counter() - t0
    _announce(7, "nonuniform-dependence", ok, "; ".join(details),
              elapsed, 1800.0)


def test_ac8_continuous_dependence():
    t0 = time.perf_counter()
    rep = run_continuous_dependence(2.0, 2.0, 2.0, [1e-2, 1e-3, 1e-4])
    v = rep.verdicts["distance_vanishes"]
    slope = rep.fits["continuity_slope"].slope
    elapsed = time.perf_counter() - t0
    _announce(8, "continuous-dependence", v.passed,
              f"strictly decreasing={v.passed}, slope={slope:.3f},"
              f" smallest distance={v.value:.2e}",
              elapsed, 300.0)


def test_ac9_picard_contraction():
    t0 = time.perf_counter()
    grid = PeriodicGrid(64.0 * np.pi, 2**12)
    u0 = builtin_profile("smoke", grid)
    rep = run_picard_convergence(u0, OMEGA, 8, steps=200)
    contr = rep.verdicts["contraction"]
    term = rep.verdicts["terminal_agreement"]
    elapsed = time.perf_counter() - t0
    ok = contr.passed and term.passed
    _announce(9, "picard-contraction", ok,
              f"worst ratio={contr.value:.3f}, terminal l2 gap="
              f"{term.value:.2e}",
              elapsed, 300.0)
