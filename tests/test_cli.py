"""End-to-end runs of the command line front end (in process)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rchlab.cli import build_parser, main
from rchlab.errors import InvalidParameterError
from rchlab.littlewood_paley import (BesovIndex, besov_norm, block_norms,
                                     build_filter_bank)
from rchlab.spectral import field_from_csv


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


def test_data_certify(tmp_path, capsys):
    path = tmp_path / "cert.csv"
    rc = main(["data", "--certify", "--n-min", "5", "--n-max", "6",
               "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.splitlines()[0] == "quantity,n,value"
    assert "w0n_besov_center,5," in text
    assert "low_product_norm_top_half_min" in text


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


def test_cli_import_leaves_scipy_interpolate_out():
    proc = _run_python("import rchlab.cli, sys; "
                       "print(sorted(m for m in sys.modules "
                       "if m.startswith('scipy.interpolate')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, head, tail", [
    (["continuity", "--steps", "0", "--N", "2048"],
     "InvalidParameterError: steps and samples must be >= 1", ""),
    (["data", "--family", "w0n", "--n", "30", "--out", "w.csv"],
     "InvalidParameterError: n_points 274877906944 exceeds the limit "
     "MAX_POINTS", ""),
    (["data", "--family", "w0n", "--n", "12", "--N", "2048", "--out", "w.csv"],
     "FrequencyOverflowError: carrier", ""),
    (["solve", "--init", "smoke", "--dt", "1", "--tend", "2", "--out", "x"],
     "CFLError: CFL guard failed: dt*max|u|=", " t=0.0"),
    (["picard", "--init", "smoke", "--N", "2048", "--omega", "2.5",
      "--tend", "0.1", "--dt", "0.03", "--m-max", "5", "--out", "x"],
     "BlowUpError: state norm", " t=0.06"),
    (["solve", "--init", "nope.csv", "--dt", "1", "--tend", "2", "--out", "x"],
     "error: no field file nope.csv", ""),
], ids=["invalid-parameter", "grid-cap", "frequency-overflow", "cfl",
        "blow-up", "missing-file"])
def test_bad_input_is_one_stderr_line_and_exit_2(tmp_path, argv, head, tail):
    proc = _run_script(argv, tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(head) and lines[0].endswith(tail), lines[0]
    assert "np.float64" not in lines[0]
    assert not (tmp_path / "x").exists()
