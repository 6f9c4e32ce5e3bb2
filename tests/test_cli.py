"""End-to-end runs of the command line front end (in process)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rchlab import experiments, spectral
from rchlab.cli import _write_norm_table, build_parser, main
from rchlab.coefficients import derive_coefficients
from rchlab.errors import InvalidParameterError
from rchlab.eulerian import SolverConfig, Trajectory, solve
from rchlab.experiments import DEFAULT_LENGTH
from rchlab.initial_data import builtin_profile
from rchlab.lagrangian import (initial_state, lagrangian_solve,
                               pullback_to_eulerian)
from rchlab.littlewood_paley import (BesovIndex, besov_norm, besov_norms,
                                     block_norms, build_filter_bank)
from rchlab.spectral import PeriodicGrid, field_from_csv


def test_coeffs_json(capsys):
    assert main(["coeffs", "--omega", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["c"] == 1.0
    assert data["c1"] == 1.0
    assert data["c2"] == 0.0
    assert data["c3"] == 0.0


def test_coeffs_plain(capsys):
    assert main(["coeffs", "--omega", "1"]) == 0
    out = capsys.readouterr().out
    assert "c1" in out and "gamma" in out


def test_data_then_besov(tmp_path, capsys):
    path = tmp_path / "psi.csv"
    assert main(["data", "--family", "psi", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["besov", "--input", str(path), "--s", "2", "--r", "-1"]) == 0
    out = capsys.readouterr().out.splitlines()
    tag, val = out[0].split(",")
    assert tag == "besov_norm"
    assert float(val) > 0.0
    assert out[1] == "j,weighted_block_norm"
    assert out[2].startswith("-1,")


@pytest.mark.parametrize("s, p, r", [("2", "1", "2"), ("1.5", "2", "-1")])
def test_besov_output_matches_library(tmp_path, capsys, s, p, r):
    path = tmp_path / "psi.csv"
    assert main(["data", "--family", "psi", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["besov", "--input", str(path), "--s", s, "--p", p,
                 "--r", r]) == 0
    out = capsys.readouterr().out.splitlines()
    f = field_from_csv(path)
    bank = build_filter_bank(f.grid)
    idx = BesovIndex(float(s), float(p), math.inf if float(r) <= 0 else float(r))
    assert out[0] == f"besov_norm,{besov_norm(bank, f, idx)!r}"
    want = block_norms(bank, f, idx)
    assert out[2:] == [f"{j},{v!r}" for j, v in
                       zip(range(-1, bank.j_max + 1), want.tolist())]


def test_besov_serves_every_finite_p(capsys):
    # blocks that hold only rounding error underflow under |x|^p from about
    # p = 16; they are summed scaled by their peak, so p = 20 lies near
    # p = 19 and p = 1e308 gives the p = inf norm
    norms = {}
    for p in ("19", "20", "1e308", "inf"):
        assert main(["besov", "--input", "smoke", "--s", "2", "--p", p]) == 0
        _, val = capsys.readouterr().out.splitlines()[0].split(",")
        norms[p] = float(val)
    assert norms["20"] == pytest.approx(norms["19"], rel=1e-3)
    assert norms["1e308"] == norms["inf"]
    assert norms["inf"] == pytest.approx(0.06165048956724885, rel=1e-12)


CAMPAIGN_STEPS = {"nonuniform-super": 48, "nonuniform-critical": 48,
                  "decomp-rates": 48, "critical-expansion": 48,
                  "continuity": 64, "picard": 200}


@pytest.mark.parametrize("command", sorted(CAMPAIGN_STEPS))
def test_campaign_defaults(command):
    parser = build_parser()
    args = parser.parse_args([command])
    assert args.steps == CAMPAIGN_STEPS[command]
    assert (args.omega, args.dt, args.out, args.N) == (1.0, None, None, None)
    assert parser.parse_args([command, "--steps", "7"]).steps == 7


@pytest.mark.parametrize("command", sorted(CAMPAIGN_STEPS))
def test_campaign_report_defaults_to_reports_subcommand(monkeypatch, capsys,
                                                         command):
    report = SimpleNamespace(verdicts={}, all_passed=lambda: True)
    for name in dir(experiments):
        if name.startswith("run_"):
            monkeypatch.setattr(experiments, name, lambda *a, **kw: report)
    written = []
    monkeypatch.setattr(experiments, "write_report",
                        lambda rep, out: written.append(out))
    assert main([command]) == 0
    assert written == [Path("reports") / command]


@pytest.mark.parametrize("command", ["nonuniform-super", "nonuniform-critical",
                                     "decomp-rates", "critical-expansion"])
def test_sweeps_take_no_point_count(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--N", "4096"])
    for sized in ("continuity", "picard"):
        assert parser.parse_args([sized, "--N", "4096"]).N == 4096


def test_solve_writes_snapshots(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01",
               "--N", "2048", "--out", str(out)])
    assert rc == 0
    snaps = sorted(out.glob("snap_*.csv"))
    assert len(snaps) == 6  # t = 0, 0.01, ..., 0.05
    assert len(sorted(out.glob("snap_*.bin"))) == 6
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "t,l2,linf,h1_integral,besov_2_2_2"
    assert len(lines) == 7


def test_two_solves_in_one_process(tmp_path, capsys):
    # the parser and the CSV x column are built once per process: the second
    # run sees only its own --besov list, and its snapshots, written from a
    # warm cache, equal the first run's, written from a cold one
    spectral._csv_abscissae.cache_clear()
    runs = {"a": ["2,2,2"], "b": ["1.5,1,1", "3,2,inf"]}
    for name, triples in runs.items():
        argv = ["solve", "--init", "smoke", "--tend", "0.02", "--dt", "0.01",
                "--N", "2048", "--out", str(tmp_path / name)]
        for triple in triples:
            argv += ["--besov", triple]
        assert main(argv) == 0
    base = "t,l2,linf,h1_integral,"
    headers = {name: (tmp_path / name / "norms.csv").read_text().splitlines()[0]
               for name in runs}
    assert headers == {"a": base + "besov_2_2_2",
                       "b": base + "besov_1.5_1_1,besov_3_2_inf"}
    snaps = sorted(p.name for p in (tmp_path / "a").glob("snap_*.csv"))
    assert len(snaps) == 3
    for snap in snaps:
        assert ((tmp_path / "a" / snap).read_bytes()
                == (tmp_path / "b" / snap).read_bytes()), snap


def test_lagrangian_cross_check(tmp_path, capsys):
    out = tmp_path / "lag"
    rc = main(["lagrangian", "--init", "smoke", "--tend", "0.04",
               "--dt", "0.01", "--N", "2048", "--out", str(out),
               "--cross-check"])
    assert rc == 0
    assert len(sorted(out.glob("flow_*.csv"))) == 5
    rows = (out / "cross_check.csv").read_text().splitlines()[1:]
    gaps = [float(r.split(",")[1]) for r in rows]
    assert max(gaps) <= 1e-4


def test_cross_check_pairs_the_flow_snapshots(tmp_path, capsys):
    # 5 steps kept every 2: the flow and the check hold t = 0, 2, 4, 5 steps
    out = tmp_path / "lag"
    assert main(["lagrangian", "--init", "smoke", "--tend", "0.05",
                 "--dt", "0.01", "--N", "2048", "--snapshot-every", "2",
                 "--out", str(out), "--cross-check"]) == 0
    u0 = builtin_profile("smoke", PeriodicGrid(DEFAULT_LENGTH, 2048))
    cfg = SolverConfig(dt=0.01, t_end=0.05, snapshot_every=2)
    flow = lagrangian_solve(initial_state(u0), derive_coefficients(1.0), cfg)
    eul = solve(u0, derive_coefficients(1.0), cfg)
    rows = [r.split(",") for r in
            (out / "cross_check.csv").read_text().splitlines()[1:]]
    assert len(sorted(out.glob("flow_*.csv"))) == len(flow.times) == 4
    assert [float(t) for t, _ in rows] == flow.times.tolist()
    assert [float(gap) for _, gap in rows] == [
        float(np.max(np.abs(pullback_to_eulerian(state).values - vals)))
        for state, vals in zip(flow.states, eul.states)]


def test_norm_table_matches_per_row_besov_norms(tmp_path):
    # 11 snapshots at N = 2^12: a block of 8 rows and a remainder of 3
    grid = PeriodicGrid(64.0 * np.pi, 2**12)
    assert spectral._stack_rows(grid.n_points) == 8
    rng = np.random.default_rng(23)
    traj = Trajectory(grid, 0.01 * np.arange(11.0),
                      rng.normal(size=(11, grid.n_points)))
    bank = build_filter_bank(grid)
    indices = [BesovIndex(1.5, 1.0, 1.0), BesovIndex(2.0, 2.0, 2.0),
               BesovIndex(2.0, 1.0, math.inf)]
    _write_norm_table(tmp_path / "norms.csv", traj, bank, indices)
    rows = (tmp_path / "norms.csv").read_text().splitlines()[1:]
    assert len(rows) == 11
    for i, row in enumerate(rows):
        want = besov_norms(bank, traj.field_at(i), indices)
        assert row.split(",")[4:] == [repr(v) for v in want]


def test_data_certify(tmp_path, capsys):
    path = tmp_path / "cert.csv"
    rc = main(["data", "--certify", "--n-min", "5", "--n-max", "6",
               "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.splitlines()[0] == "quantity,n,value"
    assert "w0n_besov_center,5," in text
    assert "low_product_norm_top_half_min" in text


@pytest.mark.parametrize("argv, out", [
    (["data", "--certify", "--n-min", "5", "--n-max", "6"], "cert.csv"),
    (["nonuniform-super", "--n-min", "4", "--n-max", "7", "--steps", "8"],
     "report"),
], ids=["data-certify", "nonuniform-super"])
def test_nonpositive_r_means_infinity(tmp_path, capsys, argv, out):
    codes, files = [], []
    for r in ("0", "inf"):
        codes.append(main(argv + ["--r", r, "--out", str(tmp_path / r / out)]))
        files.append({path.relative_to(tmp_path / r): path.read_bytes()
                      for path in (tmp_path / r).rglob("*") if path.is_file()})
    assert codes[0] == codes[1]
    assert files[0] == files[1] and files[0]


def test_r_that_is_not_a_number_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["data", "--r", "abc"])
    assert "argument --r: invalid float value: 'abc'" in capsys.readouterr().err


def test_picard_campaign_exit_code(tmp_path, capsys):
    out = tmp_path / "picard"
    rc = main(["picard", "--N", "2048", "--m-max", "8", "--steps", "100",
               "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0, text
    assert "[PASS] contraction" in text
    assert (out / "report.json").exists()
    assert (out / "table.csv").exists()
    assert (out / "plot.gp").exists()


@pytest.mark.parametrize("argv", [
    ["continuity", "--steps", "0"],
    ["picard", "--steps", "0"],
    ["continuity", "--eps", "0.01", "--eps", "0"],
    ["continuity", "--eps", "0.01", "--eps", "0.01"],
])
def test_bad_campaign_input_is_a_typed_error(tmp_path, argv):
    with pytest.raises(InvalidParameterError):
        main(argv + ["--N", "2048", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_missing_input_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["solve", "--init", str(tmp_path / "nope.csv"),
              "--tend", "0.1", "--dt", "0.05", "--out", str(tmp_path / "x")])


def test_data_family_needs_mode_index(tmp_path):
    with pytest.raises(SystemExit):
        main(["data", "--family", "w0n", "--out", str(tmp_path / "w.csv")])


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code, argv=(), cwd=None):
    """``python -c code argv`` in a fresh interpreter that imports rchlab
    from ``src/``; returns the process."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=300)


def _run_script(argv, cwd):
    """The console entry point in a fresh interpreter; returns the process."""
    return _run_python("from rchlab.cli import run; run()", argv, cwd)


def test_cli_import_leaves_scipy_out():
    proc = _run_python("import rchlab.cli, sys; "
                       "print(sorted(m for m in sys.modules "
                       "if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, head, tail", [
    (["continuity", "--steps", "0", "--N", "2048"],
     "InvalidParameterError: steps and samples must be >= 1", ""),
    (["data", "--family", "w0n", "--n", "30", "--out", "w.csv"],
     "InvalidParameterError: n_points 33554432 exceeds the limit "
     "MAX_POINTS", ""),
    # a block far past the cap is refused the same way, not overflowed to
    (["data", "--family", "w0n", "--n", "1100", "--out", "w.csv"],
     "InvalidParameterError: n_points 33554432 exceeds the limit "
     "MAX_POINTS", ""),
    (["data", "--family", "w0n", "--n", "12", "--N", "2048", "--out", "w.csv"],
     "FrequencyOverflowError: carrier", ""),
    # on a given grid too, with no overflow on the way to the refusal
    (["data", "--family", "w0n", "--n", "1100", "--N", "2048", "--out",
      "w.csv"], "FrequencyOverflowError: carrier of mode index 1100", ""),
    (["solve", "--init", "smoke", "--dt", "1", "--tend", "2", "--out", "x"],
     "CFLError: CFL guard failed: dt*max|u|=", " t=0.0"),
    (["picard", "--init", "smoke", "--N", "2048", "--omega", "2.5",
      "--tend", "0.1", "--dt", "0.03", "--m-max", "5", "--out", "x"],
     "BlowUpError: state norm", " t=0.06"),
    (["solve", "--init", "nope.csv", "--dt", "1", "--tend", "2", "--out", "x"],
     "error: no field file nope.csv", ""),
    (["solve", "--init", "smoke", "--tend", "1", "--dt", "0", "--out", "x"],
     "InvalidParameterError: dt must be positive, got 0.0", ""),
    (["solve", "--init", "smoke", "--tend", "nan", "--dt", "0.01", "--out",
      "x"], "InvalidParameterError: t_end must be positive and finite",
     "got nan"),
    (["solve", "--init", "smoke", "--tend", "inf", "--dt", "0.01", "--out",
      "x"], "InvalidParameterError: t_end must be positive and finite",
     "got inf"),
    (["lagrangian", "--init", "smoke", "--tend", "0.5", "--dt", "0", "--out",
      "x"], "InvalidParameterError: dt must be positive, got 0.0", ""),
    (["lagrangian", "--init", "smoke", "--tend", "nan", "--out", "x"],
     "InvalidParameterError: t_end must be positive and finite", "got nan"),
    # zero data never blows up: its existence horizon is infinite
    (["picard", "--init", "zero", "--dt", "0.01", "--out", "x"],
     "InvalidParameterError: t_end must be positive and finite", "got inf"),
    (["continuity", "--tend", "inf", "--dt", "0.01", "--out", "x"],
     "InvalidParameterError: t_end must be positive and finite", "got inf"),
    # a bad --besov triple is a usage error that names its own fault
    (["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01",
      "--besov", "2,abc,2", "--out", "x"],
     "rchlab solve: error: argument --besov: invalid s,p,r '2,abc,2': ",
     "could not convert string to float: 'abc'"),
    (["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01",
      "--besov", "2,0.5,2", "--out", "x"],
     "rchlab solve: error: argument --besov: invalid s,p,r '2,0.5,2': ",
     "p must lie in [1, inf], got 0.5"),
    (["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01",
      "--besov", "nan,2,2", "--out", "x"],
     "rchlab solve: error: argument --besov: invalid s,p,r 'nan,2,2': ",
     "s must be finite, got nan"),
    # each refused before anything is written
    (["data", "--certify", "--n-min", "9", "--n-max", "5", "--out",
      "x/cert.csv"], "InvalidParameterError: need at least one mode index",
     ""),
    (["solve", "--init", "smoke", "--N", "64", "--tend", "0.05", "--dt",
      "0.01", "--out", "x"],
     "InvalidParameterError: grid too small to host a dyadic family", ""),
    (["lagrangian", "--init", "smoke", "--tend", "2", "--dt", "1",
      "--cross-check", "--out", "x"],
     "CFLError: CFL guard failed: dt*max|u|=", " t=0.0"),
    # weights 2^(js) past the float range, and an l^r sum past it
    (["besov", "--input", "smoke", "--s", "300"],
     "InvalidParameterError: the weights 2^(js) or their l^r sum overflow",
     "s=300.0, r=2.0"),
    (["besov", "--input", "smoke", "--s", "200"],
     "InvalidParameterError: the weights 2^(js) or their l^r sum overflow",
     "s=200.0, r=2.0"),
    (["data", "--family", "w0n", "--n", "5", "--s", "nan", "--out",
      "x/w.csv"], "InvalidParameterError: w0n's amplitude", "s=nan"),
    (["data", "--family", "w0n", "--n", "5", "--s", "-300", "--out",
      "x/w.csv"], "InvalidParameterError: w0n's amplitude", "s=-300.0"),
    (["solve", "--init", "smoke", "--tend", "1e300", "--dt", "1e-300",
      "--out", "x"], "InvalidParameterError: t_end must lie in [dt, "
     "MAX_STEPS dt] = [dt, 1048576 dt]", "t_end=1e+300 dt=1e-300"),
    # an amplitude 2^(-n s) below the normal floats
    (["data", "--family", "w0n", "--n", "5", "--s", "300", "--out",
      "x/w.csv"], "InvalidParameterError: w0n's amplitude", "n=5, s=300.0"),
    # --N 0 is a grid of 0 points, not the default grid
    (["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01", "--N",
      "0", "--out", "x"],
     "InvalidParameterError: n_points must be a power of two", "got 0"),
    (["continuity", "--N", "0", "--steps", "2", "--out", "x"],
     "InvalidParameterError: n_points must be a power of two", "got 0"),
    # norms.csv is measured before any snapshot is written
    (["solve", "--init", "smoke", "--tend", "0.05", "--dt", "0.01",
      "--besov", "300,2,2", "--out", "x"],
     "InvalidParameterError: the weights 2^(js) or their l^r sum overflow",
     "s=300.0, r=2.0"),
    # u0 + eps psi/peak equals u0 bit for bit: refused before any solve
    (["continuity", "--N", "2048", "--steps", "4", "--eps", "1e-300",
      "--eps", "1e-301", "--out", "x"],
     "InvalidParameterError: eps=1e-300 leaves the data unchanged", ""),
    # a length whose spacing or k_Nyquist leaves the float range, through
    # the grid and through the sizing for a mode index alike
    (["besov", "--input", "smoke", "--s", "2", "--L", "1e-320"],
     "InvalidParameterError: length 1e-320 puts k_Nyquist past the float "
     "range", ""),
    (["data", "--family", "w0n", "--n", "5", "--L", "1e-320", "--out",
      "x/w.csv"], "InvalidParameterError: length 1e-320 puts k_Nyquist past "
     "the float range", ""),
    (["data", "--certify", "--n-min", "5", "--n-max", "6", "--L", "1e-320",
      "--out", "x/c.csv"], "InvalidParameterError: length 1e-320 puts "
     "k_Nyquist past the float range", ""),
    (["nonuniform-super", "--L", "1e-320", "--steps", "2", "--out", "x"],
     "InvalidParameterError: length 1e-320 puts k_Nyquist past the float "
     "range", ""),
    # a lattice whose k_Nyquist^2 overflows has no (1 - d_xx)^{-1}: refused
    # at the first RHS, with no numpy warning and no NaN in norms.csv
    (["solve", "--init", "zero", "--L", "1e-300", "--tend", "0.02", "--dt",
      "0.01", "--besov", "0,2,2", "--out", "x"],
     "InvalidParameterError: length 1e-300 puts k_Nyquist^2 past the float "
     "range", " t=0.0"),
    # iterate 1's gap is measured before iterate 2 exists, so a gap index
    # whose weights overflow is refused before the chain runs on, and before
    # the blow-up that the same data meets at --s 2
    (["picard", "--init", "smoke", "--N", "2048", "--s", "1100", "--tend",
      "0.05", "--dt", "0.01", "--m-max", "3", "--out", "x"],
     "InvalidParameterError: the weights 2^(js) or their l^r sum overflow",
     "s=1099.0, r=2.0"),
    (["picard", "--init", "smoke", "--N", "2048", "--s", "1100", "--omega",
      "2.5", "--tend", "0.1", "--dt", "0.03", "--m-max", "5", "--out", "x"],
     "InvalidParameterError: the weights 2^(js) or their l^r sum overflow",
     "s=1099.0, r=2.0"),
], ids=["invalid-parameter", "grid-cap", "grid-cap-far", "frequency-overflow",
        "frequency-overflow-far", "cfl", "blow-up", "missing-file",
        "solve-dt-zero", "solve-tend-nan", "solve-tend-inf",
        "lagrangian-dt-zero", "lagrangian-tend-nan", "picard-zero-data",
        "continuity-tend-inf", "besov-not-a-number", "besov-p-below-one",
        "besov-s-nan", "certify-empty-range", "solve-grid-too-small",
        "lagrangian-cross-check-cfl", "besov-weights-overflow",
        "besov-sum-overflow", "w0n-s-nan", "w0n-amplitude-overflow",
        "solve-step-cap", "w0n-amplitude-underflow",
        "solve-n-zero", "continuity-n-zero", "solve-besov-weights-overflow",
        "continuity-eps-unchanged", "besov-length-subnormal",
        "w0n-length-subnormal", "certify-length-subnormal",
        "nonuniform-length-subnormal", "solve-k-squared-overflow",
        "picard-gap-weights-overflow", "picard-gap-weights-before-blow-up"])
def test_bad_input_is_one_stderr_line_and_exit_2(tmp_path, argv, head, tail):
    proc = _run_script(argv, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(head) and lines[0].endswith(tail), lines[0]
    assert "np.float64" not in lines[0]
    assert not (tmp_path / "x").exists()
