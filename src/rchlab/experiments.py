"""Experiment campaigns probing how solutions depend on their data.

Each campaign builds its data families, integrates on a common horizon taken
as half the guaranteed-existence time of the worst family member, tabulates
norms and distances, fits rates by least squares on log data over the top
half of the sweep range, and emits a report with explicit pass/fail verdicts.
Reports are bit-for-bit reproducible: evaluation order is fixed and nothing
draws randomness.

Every campaign measures its per-snapshot Besov norms through
:func:`littlewood_paley._distances`, and the first-order residuals through
the chunk loop beneath it, :func:`littlewood_paley._chunked_norms`.  The
three mode-index sweeps share one skeleton: :func:`_sweep_setup`, one helper
for the top-half slope, and :func:`_residual_check`, which tabulates the
first-order residual rows, fits their late-t exponent and gives its verdict.
The non-uniform sweeps run each mode index's two solves side by side, on
min(2, CPUs) threads; the reports do not depend on the thread count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .coefficients import derive_coefficients
from .errors import InvalidParameterError
from .eulerian import (KAPPA_DEFAULT, SolverConfig, full_rhs, kappa_horizon,
                       picard_iterate, solve, transport_diagnostic)
from .initial_data import _top_half, build_family, build_psi, builtin_profile
from .littlewood_paley import (BesovIndex, DyadicFilterBank, _chunked_norms,
                               _distances, _top_block, besov_norm, besov_norms,
                               build_filter_bank, lp_norm)
from .spectral import Field, PeriodicGrid, _lattice_nyquist

DEFAULT_OMEGA = 1.0
DEFAULT_LENGTH = 64.0 * np.pi
DEFAULT_STEPS = 48  # of each mode-index sweep
DEFAULT_CONTINUITY_STEPS = 64
DEFAULT_PICARD_STEPS = 200
DEFAULT_POINTS = 2**12  # the continuity grid and the CLI's builtin profiles
DEFAULT_SAMPLES = 8


@dataclass
class Fit:
    """Least-squares slope of log data with its standard error."""

    slope: float
    stderr: float
    window: list[float]  # abscissa values actually used


@dataclass
class Verdict:
    passed: bool
    value: float
    tolerance: str
    rows: list[int]
    detail: str


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    table: list[dict]
    fits: dict[str, Fit] = field(default_factory=dict)
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        n = len(self.table)
        for key, v in self.verdicts.items():
            for i in v.rows:
                if not 0 <= i < n:
                    raise InvalidParameterError(
                        f"verdict {key!r} references missing row {i}")

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return repr(f)
    if isinstance(obj, (np.integer, int, str, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return repr(obj)


def write_report(report: ExperimentReport, outdir) -> None:
    """Emit report.json, table.csv and a gnuplot script into ``outdir``."""
    report.validate()
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"name": report.name,
               "parameters": _jsonable(report.parameters),
               "table": _jsonable(report.table),
               "fits": {k: _jsonable(asdict(v)) for k, v in report.fits.items()},
               "verdicts": {k: _jsonable(asdict(v))
                            for k, v in report.verdicts.items()}}
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    columns = list(dict.fromkeys(key for row in report.table for key in row))
    with open(out / "table.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        for row in report.table:
            writer.writerow({k: _jsonable(v) for k, v in row.items()})
    plot = report.parameters["plot"]
    script = [
        f'# {report.name}',
        'set datafile separator ","',
        'set key autotitle columnhead',
        'set grid',
        f'set xlabel "{plot["x"]}"',
        f'set ylabel "{plot["y"]}"',
    ]
    if plot["logscale"]:
        script.append(f'set logscale {plot["logscale"]}')
    script.append(f'plot "table.csv" using {columns.index(plot["x"]) + 1}:'
                  f'{columns.index(plot["y"]) + 1} with linespoints')
    (out / "plot.gp").write_text("\n".join(script) + "\n")


def fit_line(x, y) -> Fit:
    """Ordinary least-squares line fit; stderr of the slope (0 when n = 2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise InvalidParameterError("need at least two points to fit a slope")
    if not np.all(np.isfinite(x)) or np.all(x == x[0]):
        raise InvalidParameterError(
            f"abscissae must be finite and not all equal, got {x.tolist()}")
    xb = x - x.mean()
    sxx = float(np.sum(xb**2))
    slope = float(np.sum(xb * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return Fit(slope=slope, stderr=stderr, window=[float(v) for v in x])


def grid_for_block(n_block: int, length: float = DEFAULT_LENGTH) -> PeriodicGrid:
    """Smallest power-of-two grid whose dyadic family resolves block n: the
    bank's rule on each size's k_Nyquist from the grid's own length rule,
    ``spectral._lattice_nyquist``, which refuses a bad length at once and the
    first size past ``MAX_POINTS`` (a block beyond every allowed grid is an
    error, not an overflow).
    """
    n_pts = 16
    while _top_block(_lattice_nyquist(length, n_pts)) < n_block:
        n_pts *= 2
    return PeriodicGrid(length, n_pts)


def _sweep_setup(idx: BesovIndex, n_list, omega: float, length: float,
                 steps: int, dt: float | None, *, min_indices: int, members):
    """The coefficients, sorted mode indices, per n the family, its bank and
    the Besov norms of ``members`` (rows of one stack), and the solver
    configuration on half the least existence horizon of the first member."""
    params = derive_coefficients(omega)
    n_list = sorted(int(n) for n in n_list)
    if len(set(n_list)) != len(n_list) or len(n_list) < min_indices:
        raise InvalidParameterError(
            f"need at least {min_indices} distinct mode indices, got {n_list}")
    setups = {}
    for n in n_list:
        grid = grid_for_block(n, length)
        fam = build_family(build_psi(grid), n, idx.s)
        bank = build_filter_bank(grid)
        rows = np.stack([getattr(fam, m).values for m in members])
        values = _distances(bank, rows, 0.0, (idx,))[0]
        setups[n] = fam, bank, dict(zip(members, values))
    t_end = 0.5 * min(kappa_horizon(norms[members[0]])
                      for _, _, norms in setups.values())
    cfg = SolverConfig.sampled(t_end, steps, DEFAULT_SAMPLES, dt)
    return params, n_list, setups, cfg


def _top_half_slope(ns, values) -> Fit:
    """Slope of log2 ``values`` against n over the top half of the sweep."""
    return fit_line(_top_half(ns), np.log2(_top_half(values)))


def _residual_check(table: list[dict], n: int, bank: DyadicFilterBank,
                    u0n: Field, traj, h: Field, idx: BesovIndex, key: str,
                    detail: str) -> tuple[Fit, Verdict]:
    """Append a row ``key`` = ||u(t) - u0n - t h|| for every sampled t > 0 of
    ``traj``, the solution from u0n; return the log-log slope of ``key``
    against t over the later half of those rows, and its verdict."""
    late = np.flatnonzero(traj.times > 0.0)
    t = traj.times[late]

    def residuals(rows):  # rounded as (u(t) - u0n) - t h
        return ((traj.states[late[rows]] - u0n.values)
                - t[rows, None] * h.values)

    resids = _chunked_norms(bank, len(late), residuals, (idx,))[0]
    rows = list(range(len(table), len(table) + len(resids)))
    table.extend({"n": n, "t": tt, key: r} for tt, r in zip(t.tolist(), resids))
    fit = fit_line(np.log(_top_half(t.tolist())),
                   np.log([max(r, 1e-300) for r in _top_half(resids)]))
    return fit, Verdict(passed=fit.slope >= 1.8, value=fit.slope,
                        tolerance="t-exponent >= 1.8", rows=rows, detail=detail)


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _solve_pair(u0: Field, w0: Field, params, cfg: SolverConfig):
    """``solve(u0)`` and ``solve(w0)``.  With two CPUs or more, the first
    runs on a worker thread while the calling thread runs the second.  The
    results and errors are taken in that order, so when both solves fail,
    u0's error is raised, as a serial run would raise it.  Both share one
    grid, so the one-entry symbol caches serve them both."""
    if _cpu_count() < 2:
        return solve(u0, params, cfg), solve(w0, params, cfg)
    out = []

    def first():
        try:
            out.append(solve(u0, params, cfg))
        except BaseException as err:
            out.append(err)

    worker = threading.Thread(target=first, daemon=True)
    worker.start()
    try:
        second = solve(w0, params, cfg)
    except Exception as err:
        second = err
    worker.join()
    for result in (out[0], second):
        if isinstance(result, BaseException):
            raise result
    return out[0], second


def _nonuniform_core(name: str, idx: BesovIndex, n_list, omega: float,
                     length: float, steps: int,
                     dt: float | None) -> ExperimentReport:
    params, n_list, setups, cfg = _sweep_setup(
        idx, n_list, omega, length, steps, dt, min_indices=4,
        members=("u0n", "v0n", "w0n"))
    grid_points = {n: b.grid.n_points for n, (_, b, _) in setups.items()}
    table: list[dict] = []
    for n in n_list:
        # each n's data leaves the set-up as its pair starts, and the
        # previous pair's trajectories are gone, to pay for the second solve
        fam, bank, norms = setups.pop(n)
        u0n, w0n = fam.u0n, fam.w0n
        del fam
        traj_u, traj_w = _solve_pair(u0n, w0n, params, cfg)
        dists = _distances(bank, traj_u.states, traj_w.states, (idx,))[0]
        for t, dist in zip(traj_u.times.tolist(), dists):
            table.append({"n": n, "t": t, "distance": dist,
                          "ratio": dist / t if t > 0 else float("nan"),
                          "v0n_norm": norms["v0n"], "w0n_norm": norms["w0n"],
                          "u0n_norm": norms["u0n"]})
        del traj_u, traj_w
    # every n shares cfg, so each has m snapshots at the same times, the
    # first at t = 0: snapshot i of the k-th n is row k m + i
    m = len(table) // len(n_list)
    gap_rows = list(range(0, len(table), m))
    top = _top_half(range(len(n_list)))

    gap_fit, wb_fit = (_top_half_slope(n_list, [r[key] for r in table[::m]])
                       for key in ("v0n_norm", "w0n_norm"))

    # empirical kappa: per sampled t > 0, minimum over top-half n of dist/t
    # (the trend fit reads t rounded to 12 places, as it always has)
    kappa_curve = [(round(table[i]["t"], 12),
                    min(table[k * m + i]["ratio"] for k in top))
                   for i in range(1, m)]
    late = [(t, v) for t, v in kappa_curve if t >= cfg.t_end / 4.0 - 1e-12]
    kappa_emp = min(v for _, v in late)
    kappa_fit = fit_line(np.log([t for t, _ in late]),
                         np.log([max(v, 1e-300) for _, v in late]))

    # t = 0 rows must reproduce the initial gap exactly
    t0_err = max(abs(table[i]["distance"] - table[i]["v0n_norm"])
                 / max(table[i]["v0n_norm"], 1e-300) for i in gap_rows)

    return ExperimentReport(
        name=name,
        parameters={"s": idx.s, "p": idx.p, "r": idx.r, "n_list": n_list,
                    "omega": omega, "length": length, "kappa": KAPPA_DEFAULT,
                    "t_end": cfg.t_end, "dt": cfg.dt, "steps": steps,
                    "snapshot_every": cfg.snapshot_every,
                    "grid_points": grid_points,
                    "plot": {"x": "t", "y": "distance", "logscale": ""}},
        table=table,
        fits={"initial_gap_slope": gap_fit, "w_family_slope": wb_fit,
              "kappa_trend": kappa_fit},
        verdicts={
            "initial_gap_vanishes": Verdict(
                passed=abs(gap_fit.slope + 1.0) <= 0.1, value=gap_fit.slope,
                tolerance="slope within -1 +/- 0.1", rows=gap_rows,
                detail="log2 ||v0n|| vs n over the top half of the range"),
            "w_family_bounded": Verdict(
                passed=abs(wb_fit.slope) <= 0.1, value=wb_fit.slope,
                tolerance="|slope| <= 0.1", rows=gap_rows,
                detail="log2 ||w0n|| vs n over the top half of the range"),
            "kappa_positive": Verdict(
                passed=kappa_emp > 0.0, value=kappa_emp,
                tolerance="min over top-half n, t in [T0/4, T0] of "
                          "distance/t > 0",
                rows=[k * m + i for k in top for i in range(1, m)],
                detail="empirical persistence of the solution gap"),
            "t0_gap_identity": Verdict(
                passed=t0_err <= 1e-12, value=t0_err,
                tolerance="relative error <= 1e-12", rows=gap_rows,
                detail="distance at t=0 equals the initial gap exactly")})


def _critical_index(p: float) -> BesovIndex:
    """The critical index s = 1 + 1/p, r = 1, for p in [1, 2]."""
    if not (1.0 <= p <= 2.0):
        raise InvalidParameterError(f"critical run needs p in [1, 2], got {p}")
    return BesovIndex(1.0 + 1.0 / p, p, 1.0)


def run_nonuniform_supercritical(s: float, p: float, r: float, n_list, *,
                                 omega: float = DEFAULT_OMEGA,
                                 length: float = DEFAULT_LENGTH,
                                 steps: int = DEFAULT_STEPS,
                                 dt: float | None = None) -> ExperimentReport:
    """Gap persistence for indices above the critical line."""
    if not (s > max(1.5, 1.0 + 1.0 / p)):
        raise InvalidParameterError(
            f"supercritical run needs s > max(3/2, 1 + 1/p), got s={s}, p={p}")
    return _nonuniform_core("nonuniform_supercritical", BesovIndex(s, p, r),
                            n_list, omega, length, steps, dt)


def run_nonuniform_critical(p: float, n_list, *, omega: float = DEFAULT_OMEGA,
                            length: float = DEFAULT_LENGTH,
                            steps: int = DEFAULT_STEPS,
                            dt: float | None = None) -> ExperimentReport:
    """Gap persistence on the critical line s = 1 + 1/p, r = 1, p in [1, 2]."""
    return _nonuniform_core("nonuniform_critical", _critical_index(p),
                            n_list, omega, length, steps, dt)


def run_decomposition_rates(s: float, p: float, r: float, n_list, *,
                            omega: float = DEFAULT_OMEGA,
                            length: float = DEFAULT_LENGTH,
                            steps: int = DEFAULT_STEPS,
                            dt: float | None = None) -> ExperimentReport:
    """Decay of the high-frequency evolution toward frozen data, side-band
    boundedness, and the quadratic-in-time first-order residual."""
    idx = BesovIndex(s, p, r)
    params, n_list, setups, cfg = _sweep_setup(
        idx, n_list, omega, length, steps, dt, min_indices=4, members=("w0n",))
    idx_up = BesovIndex(s + 1.0, p, r)
    idx_down = BesovIndex(s - 1.0, p, r)
    table: list[dict] = []
    for n in n_list:
        fam, bank, norms = setups[n]
        traj_w = solve(fam.w0n, params, cfg)
        sup_up, sup_down = np.max(_distances(bank, traj_w.states, 0.0,
                                             (idx_up, idx_down)), axis=1)
        sup_dist = max(_distances(bank, traj_w.states, fam.w0n.values,
                                  (idx,))[0])
        table.append({"n": n, "sup_distance": sup_dist,
                      "sideband_up": sup_up / 2.0**n,
                      "sideband_down": sup_down * 2.0**n,
                      "w0n_norm": norms["w0n"]})
    sup_rows = list(range(len(table)))

    n_big = n_list[-1]
    fam, bank, _ = setups[n_big]
    res_fit, res_verdict = _residual_check(
        table, n_big, bank, fam.u0n, solve(fam.u0n, params, cfg), fam.z0n,
        idx, "first_order_residual",
        f"first-order residual at n={n_big}, top half of the t range")

    decay_fit, up_fit, down_fit = (
        _top_half_slope(n_list, [table[i][key] for i in sup_rows])
        for key in ("sup_distance", "sideband_up", "sideband_down"))

    bound = -(s - 1.5) / 2.0 + 0.3
    return ExperimentReport(
        name="decomposition_rates",
        parameters={"s": s, "p": p, "r": r, "n_list": n_list, "omega": omega,
                    "length": length, "kappa": KAPPA_DEFAULT,
                    "t_end": cfg.t_end, "dt": cfg.dt,
                    "residual_mode_index": n_big,
                    "plot": {"x": "n", "y": "sup_distance", "logscale": "y"}},
        table=table,
        fits={"frozen_distance_slope": decay_fit, "sideband_up_slope": up_fit,
              "sideband_down_slope": down_fit, "residual_t_exponent": res_fit},
        verdicts={
            "frozen_distance_decays": Verdict(
                passed=decay_fit.slope <= bound, value=decay_fit.slope,
                tolerance=f"slope <= -(s-3/2)/2 + 0.3 = {bound:.3g}",
                rows=sup_rows,
                detail="log2 sup_t distance to frozen data vs n, top half"),
            "sidebands_bounded": Verdict(
                passed=abs(up_fit.slope) <= 0.3 and abs(down_fit.slope) <= 0.3,
                value=max(abs(up_fit.slope), abs(down_fit.slope)),
                tolerance="|slope| <= 0.3 for both shifted-index ratios",
                rows=sup_rows,
                detail="sup_t ||w||_{B^{s+-1}} / 2^{+-n} stays flat in n"),
            "residual_quadratic": res_verdict})


def run_critical_expansion(p: float, n_list, *, omega: float = DEFAULT_OMEGA,
                           length: float = DEFAULT_LENGTH,
                           steps: int = DEFAULT_STEPS,
                           dt: float | None = None) -> ExperimentReport:
    """Quadratic-in-time control of the full first-order expansion on the
    critical line, with the boundedness diagnostic of the data family."""
    idx = _critical_index(p)
    params, n_list, setups, cfg = _sweep_setup(
        idx, n_list, omega, length, steps, dt, min_indices=2, members=("u0n",))
    table: list[dict] = []
    for n in n_list:
        fam, bank, norms = setups[n]
        u0 = fam.u0n
        linf = lp_norm(u0, math.inf)
        b2, b3 = besov_norms(bank, u0, (BesovIndex(2.0 + 1.0 / p, p, 1.0),
                                           BesovIndex(3.0 + 1.0 / p, p, 1.0)))
        bracket = transport_diagnostic(u0)
        q_val = (1.0 + linf * b2 + linf**2 * b3 + bracket**2 * b2
                 + linf * bracket**2 * b3)
        table.append({"n": n, "q_diagnostic": q_val, "u0_linf": linf,
                      "u0_norm": norms["u0n"]})
    q_rows = list(range(len(table)))

    n_big = n_list[-1]
    fam, bank, _ = setups[n_big]
    res_fit, res_verdict = _residual_check(
        table, n_big, bank, fam.u0n, solve(fam.u0n, params, cfg),
        full_rhs(fam.u0n, params), idx, "expansion_residual",
        f"full first-order residual at n={n_big}, top half of t range")

    q_fit = fit_line(np.asarray(n_list, dtype=float),
                     np.log2([table[i]["q_diagnostic"] for i in q_rows]))
    return ExperimentReport(
        name="critical_expansion",
        parameters={"p": p, "s": idx.s, "n_list": n_list, "omega": omega,
                    "length": length, "kappa": KAPPA_DEFAULT,
                    "t_end": cfg.t_end, "dt": cfg.dt,
                    "residual_mode_index": n_big,
                    "plot": {"x": "t", "y": "expansion_residual",
                             "logscale": "xy"}},
        table=table,
        fits={"q_diagnostic_slope": q_fit, "residual_t_exponent": res_fit},
        verdicts={
            "q_bounded": Verdict(
                passed=abs(q_fit.slope) <= 0.3, value=q_fit.slope,
                tolerance="|slope| <= 0.3 across the n range", rows=q_rows,
                detail="log2 Q diagnostic vs n stays flat"),
            "residual_quadratic": res_verdict})


def run_continuous_dependence(s: float, p: float, r: float, eps_list,
                              t_end: float | None = None, *,
                              omega: float = DEFAULT_OMEGA,
                              length: float = DEFAULT_LENGTH,
                              n_points: int = DEFAULT_POINTS,
                              steps: int = DEFAULT_CONTINUITY_STEPS,
                              dt: float | None = None) -> ExperimentReport:
    """Vanishing of the solution distance under vanishing data perturbation."""
    idx = BesovIndex(s, p, r)
    eps_list = sorted((float(e) for e in eps_list), reverse=True)
    if (not all(math.isfinite(e) and e > 0.0 for e in eps_list)
            or len(set(eps_list)) != len(eps_list)):
        raise InvalidParameterError(
            f"eps must be distinct, finite and > 0, got {eps_list}")
    params = derive_coefficients(omega)
    grid = PeriodicGrid(length, n_points)
    u0 = builtin_profile("smoke", grid)
    bump = build_psi(grid)
    pert = Field(grid, bump.field.values / bump.peak)
    perturbed = {eps: u0.values + eps * pert.values for eps in eps_list}
    for eps, vals in perturbed.items():
        if np.array_equal(vals, u0.values):
            raise InvalidParameterError(f"eps={eps!r} leaves the data "
                                        f"unchanged: u0 + eps psi/peak "
                                        f"rounds to u0")
    bank = build_filter_bank(grid)
    if t_end is None:
        t_end = 0.5 * kappa_horizon(besov_norm(bank, u0, idx))
    cfg = SolverConfig.sampled(t_end, steps, DEFAULT_SAMPLES, dt)
    base = solve(u0, params, cfg)
    table: list[dict] = []
    for eps, vals in perturbed.items():
        traj = solve(Field(grid, vals), params, cfg)
        table.append({"eps": eps, "sup_distance": max(
            _distances(bank, traj.states, base.states, (idx,))[0])})
    dists = [row["sup_distance"] for row in table]
    strictly_decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    cont_fit = fit_line(np.log(eps_list), np.log(dists))
    return ExperimentReport(
        name="continuous_dependence",
        parameters={"s": s, "p": p, "r": r, "eps_list": eps_list,
                    "omega": omega, "length": length, "n_points": n_points,
                    "t_end": t_end, "dt": cfg.dt,
                    "plot": {"x": "eps", "y": "sup_distance",
                             "logscale": "xy"}},
        table=table,
        fits={"continuity_slope": cont_fit},
        verdicts={"distance_vanishes": Verdict(
            passed=strictly_decreasing, value=dists[-1],
            tolerance="sup-t distance strictly decreasing along eps -> 0",
            rows=list(range(len(table))),
            detail=f"fitted continuity slope {cont_fit.slope:.3f}")})


def run_picard_convergence(u0: Field, omega: float, m_max: int, *,
                           s: float = 2.0, p: float = 2.0, r: float = 2.0,
                           steps: int = DEFAULT_PICARD_STEPS,
                           t_end: float | None = None,
                           dt: float | None = None) -> ExperimentReport:
    """Contraction of the frozen-coefficient iteration toward the solution."""
    if m_max < 3:
        raise InvalidParameterError("need m_max >= 3 to observe contraction")
    idx = BesovIndex(s, p, r)
    idx_gap = BesovIndex(s - 1.0, p, r)
    params = derive_coefficients(omega)
    bank = build_filter_bank(u0.grid)
    if t_end is None:
        t_end = kappa_horizon(besov_norm(bank, u0, idx))
    # every step: the terminal gap pairs the iterate's states with the solver's
    cfg = replace(SolverConfig.sampled(t_end, steps, 1, dt), snapshot_every=1)
    iters = picard_iterate(u0, params, cfg, m_max)
    reference = solve(u0, params, cfg)

    # iters[j] is iterate j+1; iterate zero vanishes identically, so the
    # first gap is just the sup-t norm of iterate one.
    gaps = [max(_distances(bank, cur.states, prev, (idx_gap,))[0])
            for cur, prev in zip(iters, [0.0] + [it.states for it in iters])]
    table: list[dict] = [{"m": m, "iterate_gap": gap}
                         for m, gap in enumerate(gaps, start=1)]
    d_rows = list(range(len(table)))
    ratios = [b / a if a > 0 else float("nan") for a, b in zip(gaps, gaps[1:])]
    for i, rt in enumerate(ratios):
        table[i + 1]["ratio"] = rt  # row m holds d_m / d_{m-1}

    terminal = max(lp_norm(Field(u0.grid, a - b), 2.0)
                   for a, b in zip(iters[-1].states, reference.states))
    table.append({"m": m_max, "terminal_l2_gap": terminal})

    contraction = max(ratios[1:]) if len(ratios) > 1 else float("nan")
    return ExperimentReport(
        name="picard_convergence",
        parameters={"omega": omega, "m_max": m_max, "s": s, "p": p, "r": r,
                    "t_end": t_end, "dt": cfg.dt,
                    "grid_points": u0.grid.n_points, "length": u0.grid.length,
                    "plot": {"x": "m", "y": "iterate_gap", "logscale": "y"}},
        table=table,
        verdicts={
            "contraction": Verdict(
                passed=bool(contraction < 1.0), value=contraction,
                tolerance="gap ratio < 1 for m >= 2", rows=d_rows,
                detail="sup-t Besov gap between consecutive iterates"),
            "terminal_agreement": Verdict(
                passed=terminal <= 1e-6, value=terminal,
                tolerance="sup-t L2 gap to the direct solution <= 1e-6",
                rows=[len(table) - 1],
                detail=f"final iterate m={m_max} against the nonlinear "
                       f"solver")})
