"""Campaign plumbing: fits, reports, output files, cheap end-to-end runs."""

import json
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from rchlab import experiments, spectral
from rchlab.coefficients import derive_coefficients
from rchlab.errors import BlowUpError, InvalidParameterError
from rchlab.eulerian import SolverConfig, Trajectory, _stage_times, solve
from rchlab.experiments import (ExperimentReport, Fit, Verdict,
                                _residual_check, fit_line, grid_for_block,
                                run_continuous_dependence,
                                run_critical_expansion,
                                run_decomposition_rates,
                                run_nonuniform_critical,
                                run_nonuniform_supercritical,
                                run_picard_convergence, write_report)
from rchlab.initial_data import (_top_half, build_family, build_psi,
                                 builtin_profile)
from rchlab.littlewood_paley import BesovIndex, besov_norm, build_filter_bank
from rchlab.spectral import Field, PeriodicGrid


def test_fit_line_exact():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_line(x, 3.0 - 0.5 * x)
    assert fit.slope == pytest.approx(-0.5, abs=1e-13)
    assert fit.stderr <= 1e-13
    assert fit.window == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_residual_rows_match_a_per_snapshot_loop(p):
    # 11 snapshots at N = 2^12: 10 with t > 0, a block of 8 and a remainder
    grid = PeriodicGrid(64.0 * np.pi, 2**12)
    bank = build_filter_bank(grid)
    idx = BesovIndex(2.0, p, 1.0)
    rng = np.random.default_rng(17)
    u0 = Field(grid, rng.normal(size=grid.n_points))
    h = Field(grid, rng.normal(size=grid.n_points))
    times = 0.01 * np.arange(11.0)
    traj = Trajectory(grid, times, rng.normal(size=(11, grid.n_points)))
    table = [{"n": 4}]
    fit, verdict = _residual_check(table, 5, bank, u0, traj, h, idx, "resid",
                                   "at n=5")
    want = [{"n": 5, "t": t, "resid": besov_norm(
                bank, Field(grid, traj.states[i] - u0.values - t * h.values),
                idx)}
            for i, t in enumerate(times.tolist()) if t > 0.0]
    assert verdict.rows == list(range(1, 11))
    assert table[1:] == want
    # the fit and verdict read the later half of the new rows
    late = _top_half(want)
    assert fit == fit_line(np.log([row["t"] for row in late]),
                           np.log([row["resid"] for row in late]))
    assert (verdict.value, verdict.passed, verdict.detail) == (
        fit.slope, fit.slope >= 1.8, "at n=5")


def test_fit_line_two_points_has_zero_stderr():
    fit = fit_line([1.0, 2.0], [5.0, 9.0])
    assert fit.slope == pytest.approx(4.0)
    assert fit.stderr == 0.0


def test_fit_line_noise_widens_stderr():
    x = np.arange(8.0)
    y = x + np.array([0.1, -0.1, 0.05, -0.05, 0.1, -0.1, 0.05, -0.05])
    fit = fit_line(x, y)
    assert fit.stderr > 0.0
    assert abs(fit.slope - 1.0) <= 0.1


def test_fit_line_needs_two_points():
    with pytest.raises(InvalidParameterError):
        fit_line([1.0], [2.0])


@pytest.mark.parametrize("x", [[2.0, 2.0], [0.1, 0.1, 0.1],
                               [1.0, math.inf], [1.0, -math.inf, 2.0],
                               [1.0, math.nan, 2.0]])
def test_fit_line_rejects_degenerate_abscissae(x):
    with pytest.raises(InvalidParameterError):
        fit_line(x, np.arange(len(x), dtype=float))


def test_report_rejects_dangling_verdict_rows():
    report = ExperimentReport(name="demo", parameters={}, table=[{"a": 1}])
    report.verdicts["oops"] = Verdict(passed=True, value=0.0, tolerance="",
                                      rows=[3], detail="")
    with pytest.raises(InvalidParameterError):
        report.validate()
    with pytest.raises(InvalidParameterError, match="missing row 3"):
        ExperimentReport(name="demo", parameters={}, table=[{"a": 1}],
                         verdicts={"oops": report.verdicts["oops"]})


def test_write_report_outputs(tmp_path):
    report = ExperimentReport(
        name="demo",
        parameters={"plot": {"x": "n", "y": "b", "logscale": "y"},
                    "horizon": math.inf},
        table=[{"n": 1, "a": 2.0}, {"n": 2, "a": 3.0, "b": float("nan")}])
    report.fits["trend"] = Fit(slope=1.0, stderr=0.0, window=[1.0, 2.0])
    report.verdicts["ok"] = Verdict(passed=True, value=1.0, tolerance="t",
                                    rows=[0, 1], detail="d")
    write_report(report, tmp_path)

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["name"] == "demo"
    assert payload["parameters"]["horizon"] == "inf"  # non-finite -> repr
    assert payload["table"][1]["b"] == "nan"
    assert payload["fits"]["trend"]["slope"] == 1.0
    assert payload["verdicts"]["ok"]["passed"] is True

    lines = (tmp_path / "table.csv").read_text().splitlines()
    assert lines[0] == "n,a,b"  # union of row keys, first-seen order
    assert lines[1].startswith("1,2.0")
    script = (tmp_path / "plot.gp").read_text()
    assert "set logscale y" in script
    assert "using 1:3" in script  # n is column 1, b column 3


def test_grid_for_block_is_minimal_power_of_two():
    # at the second length, k_Nyquist of 2^15 points falls 8e-13 short of
    # (8/3) 2^7, so block 7 needs 2^16
    for length in (64.0 * np.pi, 96.0 * np.pi * (1.0 + 8e-13)):
        for n in range(5, 9):
            grid = grid_for_block(n, length)
            pts = grid.n_points
            assert pts & (pts - 1) == 0
            need = (8.0 / 3.0) * 2.0**n
            assert grid.k_nyquist >= need
            assert build_filter_bank(grid).j_max >= n
            smaller = PeriodicGrid(length, pts // 2)
            assert smaller.k_nyquist < need
    # a length the grid refuses is refused at once, not doubled forever
    for length in (math.inf, math.nan, -1.0):
        with pytest.raises(InvalidParameterError, match="length"):
            grid_for_block(5, length)
    # a block past every allowed grid stops the doubling at the first size
    # past the cap, however far it lies: no float overflows on the way
    for n in (17, 30, 1100, 10**6):
        with pytest.raises(InvalidParameterError,
                           match="n_points 33554432 exceeds the limit"):
            grid_for_block(n)


def test_time_stepping_override():
    cfg = SolverConfig.sampled(0.3, 48, 8)
    assert cfg.dt == pytest.approx(0.3 / 48.0)
    assert cfg.snapshot_every == 6
    cfg = SolverConfig.sampled(0.3, 48, 8, 0.05)
    assert cfg.dt == 0.05
    assert cfg.snapshot_every == 1  # only 6 steps remain, sampled every step
    with pytest.raises(InvalidParameterError):
        SolverConfig.sampled(0.3, 48, 8, 0.5)
    with pytest.raises(InvalidParameterError):
        SolverConfig.sampled(0.3, 48, 8, -0.1)
    # the cadence comes from the march's own count: 0.15 + 1e-12 is 15 steps
    # of 0.01 (the 1e-12 is rounding, not a 16th step), so 15 // 8 = 1
    cfg = SolverConfig.sampled(0.15 + 1e-12, 48, 8, 0.01)
    assert len(_stage_times(cfg)) == 15
    assert cfg.snapshot_every == 1


@pytest.mark.parametrize("steps, samples, dt", [(0, 8, None), (-4, 8, None),
                                                (48, 0, None), (0, 8, 0.05),
                                                (48, 0, 0.05)])
def test_time_stepping_rejects_empty_counts(steps, samples, dt):
    with pytest.raises(InvalidParameterError, match="steps and samples"):
        SolverConfig.sampled(0.3, steps, samples, dt)


@pytest.mark.parametrize("eps", [[1e-2, 0.0], [1e-2, -1e-3], [1e-2, math.nan],
                                 [1e-2, math.inf], [1e-2, 1e-2],
                                 [1e-2, 1e-3, 1e-3]])
def test_continuous_dependence_rejects_bad_eps(eps):
    with pytest.raises(InvalidParameterError):
        run_continuous_dependence(2.0, 2.0, 2.0, eps, n_points=2**11, steps=4)


@pytest.mark.parametrize("run, n_list", [
    (lambda ns: run_nonuniform_supercritical(2.0, 2.0, 2.0, ns), [4, 5, 6]),
    (lambda ns: run_nonuniform_critical(2.0, ns), [4, 5, 6]),
    (lambda ns: run_decomposition_rates(2.5, 2.0, 2.0, ns), [4, 5, 6]),
    (lambda ns: run_critical_expansion(2.0, ns), [5]),
], ids=["super", "critical", "decomp", "expansion"])
def test_sweeps_need_enough_mode_indices(run, n_list):
    with pytest.raises(InvalidParameterError, match="distinct mode indices"):
        run(n_list)
    with pytest.raises(InvalidParameterError, match="distinct mode indices"):
        run(n_list[:1] + n_list * 2)  # a repeated index is rejected too


def _small_sweeps():
    return {
        "super": run_nonuniform_supercritical(2.0, 2.0, 2.0, range(4, 8),
                                              steps=4),
        "critical": run_nonuniform_critical(2.0, range(4, 8), steps=4),
        "decomp": run_decomposition_rates(2.5, 2.0, 2.0, range(4, 8), steps=8),
        "expansion": run_critical_expansion(2.0, [5, 6], steps=8),
    }


def test_sweep_reports_are_byte_identical_across_runs(tmp_path):
    first, second = _small_sweeps(), _small_sweeps()
    for name, report in first.items():
        assert report.parameters["kappa"] == 0.1
        write_report(report, tmp_path / "a" / name)
        write_report(second[name], tmp_path / "b" / name)
        for out in ("report.json", "table.csv", "plot.gp"):
            assert ((tmp_path / "a" / name / out).read_bytes()
                    == (tmp_path / "b" / name / out).read_bytes()), (name, out)


def _family(n):
    return build_family(build_psi(grid_for_block(n)), n, 2.0)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _solve_threads(monkeypatch):
    """Patch ``experiments.solve`` to record, per solve, its member of the
    family and whether it ran on the calling thread."""
    families = [_family(n) for n in range(4, 8)]
    calls = []

    def recorded(u0, params, cfg):
        member = next(m for fam in families for m in ("u0n", "w0n")
                      if np.array_equal(u0.values, getattr(fam, m).values))
        calls.append((member, threading.current_thread()
                      is threading.main_thread()))
        return solve(u0, params, cfg)

    monkeypatch.setattr(experiments, "solve", recorded)
    return calls


def test_pair_runs_u0n_on_a_worker_and_w0n_on_the_calling_thread(
        monkeypatch, tmp_path):
    calls = _solve_threads(monkeypatch)
    runs = {}
    for cpus in (2, 1):
        _cpus(monkeypatch, cpus)
        calls.clear()
        report = run_nonuniform_supercritical(2.0, 2.0, 2.0, range(4, 8),
                                              steps=4)
        runs[cpus] = sorted(calls)
        write_report(report, tmp_path / str(cpus))
    assert runs[2] == [("u0n", False)] * 4 + [("w0n", True)] * 4
    assert runs[1] == [("u0n", True)] * 4 + [("w0n", True)] * 4  # no thread
    for out in ("report.json", "table.csv", "plot.gp"):
        assert ((tmp_path / "1" / out).read_bytes()
                == (tmp_path / "2" / out).read_bytes()), out


@pytest.mark.parametrize("fail, raised", [
    ({"u0n": 0.25, "w0n": 0.5}, "u0n"),
    ({"w0n": 0.5}, "w0n"),
    ({"u0n": 0.25}, "u0n"),
], ids=["both", "w0n-only", "u0n-only"])
def test_pair_raises_the_error_a_serial_run_raises(monkeypatch, fail, raised):
    # u0n's error comes last in time, so only the serial order picks it
    fam = _family(5)

    def failing(u0, params, cfg):
        for member, t in fail.items():
            if np.array_equal(u0.values, getattr(fam, member).values):
                if member == "u0n":
                    time.sleep(0.05)
                raise BlowUpError(f"{member} blew up", time=t)
        return solve(u0, params, cfg)

    monkeypatch.setattr(experiments, "solve", failing)
    _cpus(monkeypatch, 2)
    with pytest.raises(BlowUpError, match=f"^{raised} blew up$") as info:
        run_nonuniform_supercritical(2.0, 2.0, 2.0, range(4, 8), steps=4)
    assert info.value.time == fail[raised]


def test_concurrent_solves_on_one_grid_match_serial_solves():
    fam = _family(6)
    params = derive_coefficients(1.0)
    cfg = SolverConfig.sampled(0.05, 8, 4)
    data = [fam.u0n, fam.w0n] * 2  # more threads than the pair's two
    serial = [solve(f, params, cfg).states for f in data]
    # every thread starts on cold symbol caches, to race on their one entry,
    # and switches often
    spectral._dx_symbol.cache_clear()
    spectral._flux_symbol.cache_clear()
    start = threading.Barrier(len(data), timeout=60)
    states = [None] * len(data)

    def run(i, f):
        start.wait()
        states[i] = solve(f, params, cfg).states

    threads = [threading.Thread(target=run, args=(i, f))
               for i, f in enumerate(data)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got, want in zip(states, serial):
        assert np.array_equal(got, want)


def test_decomposition_rates_serve_a_large_finite_p():
    # blocks holding only rounding error underflow under |x|^16, and are
    # summed scaled by their peak rather than refused
    report = run_decomposition_rates(2.5, 16.0, 2.0, range(4, 8), steps=8)
    assert report.all_passed()


def _kappa_by_time_matching(report):
    """kappa_positive recomputed by matching rounded times across rows."""
    table, n_list = report.table, report.parameters["n_list"]
    curve_rows = {n: [i for i, row in enumerate(table) if row["n"] == n]
                  for n in n_list}
    times = sorted({round(table[i]["t"], 12) for i in curve_rows[n_list[0]]})
    kappa_curve, kappa_rows = [], []
    for t in times:
        if t <= 0.0:
            continue
        vals = []
        for n in _top_half(n_list):
            for i in curve_rows[n]:
                if abs(table[i]["t"] - t) < 1e-12:
                    vals.append(table[i]["ratio"])
                    kappa_rows.append(i)
        kappa_curve.append((t, min(vals)))
    t_end = report.parameters["t_end"]
    late = [(t, v) for t, v in kappa_curve if t >= t_end / 4.0 - 1e-12]
    fit = fit_line(np.log([t for t, _ in late]),
                   np.log([max(v, 1e-300) for _, v in late]))
    return min(v for _, v in late), sorted(set(kappa_rows)), fit


def test_kappa_by_snapshot_index_matches_time_matching():
    report = run_nonuniform_supercritical(2.0, 2.0, 2.0, range(4, 8), steps=4)
    value, rows, fit = _kappa_by_time_matching(report)
    verdict = report.verdicts["kappa_positive"]
    assert verdict.value == value
    assert verdict.rows == rows
    assert len(rows) == 2 * 4  # two top-half n at each of four t > 0
    assert report.fits["kappa_trend"] == fit


def test_continuous_dependence_small_run(tmp_path):
    report = run_continuous_dependence(
        2.0, 2.0, 2.0, [1e-1, 1e-2], n_points=2**11, steps=16)
    assert [row["eps"] for row in report.table] == [1e-1, 1e-2]
    assert report.verdicts["distance_vanishes"].passed
    assert report.fits["continuity_slope"].slope == pytest.approx(1.0, abs=0.2)
    write_report(report, tmp_path)  # validates row references on disk too
    assert (tmp_path / "report.json").exists()


def test_picard_small_run():
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    report = run_picard_convergence(u0, 1.0, 3, steps=50)
    ms = [row["m"] for row in report.table if "iterate_gap" in row]
    assert ms == [1, 2, 3]
    assert "ratio" not in report.table[0]  # no predecessor for m = 1
    assert report.table[1]["ratio"] > 0.0
    assert report.verdicts["contraction"].passed
    # three iterations cannot reach the terminal tolerance; the verdict
    # exists and reports the honest gap
    assert report.verdicts["terminal_agreement"].value > 0.0
    with pytest.raises(InvalidParameterError):
        run_picard_convergence(u0, 1.0, 2, steps=10)


def test_picard_campaign_peak_does_not_grow_with_m_max():
    # each gap is measured as its iterate arrives, so the campaign holds two
    # iterates and peaks at about 3.9 iterates' bytes; keeping all of them
    # peaked at 4.9 MiB at m_max = 4 and 14.5 MiB at 16, and a generator
    # that kept its snapshot list through a yield at 4.85 iterates
    grid = PeriodicGrid(64.0 * np.pi, 2**11)
    u0 = builtin_profile("smoke", grid)
    iterate = 51 * grid.n_points * 8  # 50 steps, every one stored

    def peak(m_max):
        tracemalloc.start()
        try:
            run_picard_convergence(u0, 1.0, m_max, steps=50)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = peak(4), peak(16)
    assert high - low <= 0.5 * 2**20
    assert high < 4.5 * iterate
