"""The four benchmark workloads: seeded inputs, timed region and output checks.

Each workload is one closed-loop caller that waits for every call to finish,
inside one Python process.  Workloads reach rchlab only through module
attributes looked up at call time (``cli.main``, ``lagrangian.lagrangian_solve``
...), so the tracer's wrappers see every call.

Why these four (each stresses a different layer; see BENCHMARK.json):

* ``nonuniform`` -- the non-uniform dependence campaign on grids 2^13..2^16:
  large-N Eulerian solves, where dealiased spectral products dominate.
* ``picard`` -- the Picard contraction campaign at N = 2^12: many short RHS
  closures and Besov norms, so per-call overhead matters more than FFT size.
* ``particle`` -- the Lagrangian solver and pullback at N = 2^14: exponential
  scans and no spectral products, the bypass for spectral/Eulerian changes.
* ``fields`` -- the store-and-analyse CLI pipeline: certification tables,
  a solve writing binary and CSV snapshots, and ``besov`` on every CSV.

Seeded fields have random phases under a fixed band-limited envelope and a
fixed L2 amplitude, so every L2-type norm, the step counts and the work per
run do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from speed import SpeedSampler

LENGTH = 64.0 * math.pi
OMEGA = 1.0
BAND_CENTER = 0.75      # envelope of the seeded fields, in wavenumber units
BAND_HALF_WIDTH = 0.5
FIELD_RMS = 0.07        # fixed L2 amplitude: ||u||_2 = FIELD_RMS * sqrt(L)
PARTICLE_SCALE = 1.0 + 1e-3
CROSS_CHECK_TOL = 1e-4  # pullback against the grid solver (the AC3 bound)
H1_DRIFT_GATE = 1e-3    # sanity gate on H1 conservation
# certified log2 norm slopes against n and their tolerance (as in AC4)
CERT_SLOPES = {"cert.w0n_besov_minus_slope": -1.0,
               "cert.w0n_besov_center_slope": 0.0,
               "cert.w0n_besov_plus_slope": 1.0,
               "cert.v0n_besov_slope": -1.0}
CERT_SLOPE_TOL = 0.05

# "full" is the benchmark; "small" only exercises the harness (selfcheck.py).
SIZES = {
    "full": {
        "nonuniform": {"n_min": 5, "n_max": 8, "steps": 8},
        "picard": {"n_points": 2**12, "m_max": 8, "steps": 50},
        "particle": {"n_points": 2**14, "t_end": 0.2, "steps": 40,
                     "snapshot_every": 4},
        "fields": {"n_points": 2**13, "cert_n_min": 5, "cert_n_max": 9,
                   "t_end": 0.5, "dt": 0.01, "snapshot_every": 2},
    },
    "small": {
        "nonuniform": {"n_min": 4, "n_max": 7, "steps": 2},
        "picard": {"n_points": 2**11, "m_max": 6, "steps": 10},
        "particle": {"n_points": 2**11, "t_end": 0.05, "steps": 10,
                     "snapshot_every": 5},
        "fields": {"n_points": 2**11, "cert_n_min": 5, "cert_n_max": 6,
                   "t_end": 0.04, "dt": 0.01, "snapshot_every": 2},
    },
}


def seeded_field(n_points: int, seed: int):
    """Random-phase field under the fixed envelope, at the fixed amplitude."""
    from rchlab.spectral import Field, PeriodicGrid

    grid = PeriodicGrid(LENGTH, n_points)
    r = np.abs(grid.k - BAND_CENTER) / BAND_HALF_WIDTH
    env = np.zeros_like(r)
    inside = r < 1.0
    env[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    phases = np.random.default_rng(seed).random(r.size)
    vals = np.fft.irfft(env * np.exp(2j * np.pi * phases), n_points)
    vals *= FIELD_RMS / math.sqrt(np.mean(vals**2))
    return Field(grid, vals)


@dataclass
class Outcome:
    """One iteration: timed seconds, operations, output digest, accuracy."""

    elapsed: float
    normalised: float = math.nan
    ops: list[tuple[str, bool, str]] = field(default_factory=list)
    digest: str = ""
    h1_drift: float = math.nan
    acceptance: dict[str, float] = field(default_factory=dict)

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append((name, bool(ok), detail))


class Region:
    """The timed region of one iteration, optionally traced.

    ``elapsed`` is its wall time and ``normalised`` the same at the reference
    host speed (see speed.py); both leave out the speed samples.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.elapsed = math.nan
        self.normalised = math.nan

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.install()
        self._sampler = SpeedSampler(
            None if self.tracer is None else self.tracer.pause)
        self._sampler.__enter__()
        return self

    def __exit__(self, *exc):
        self._sampler.__exit__(*exc)
        self.elapsed = self._sampler.raw_s
        self.normalised = self._sampler.normalised_s
        if self.tracer is not None:
            self.tracer.uninstall()
        return False


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def _run_cli(argv: list[str], sink: io.StringIO):
    """rchlab.cli.main(argv) with stdout captured; returns its exit status."""
    from rchlab import cli

    try:
        with contextlib.redirect_stdout(sink):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failing command is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _captured_solves(sink: list):
    """Record the end states of every solve the campaigns make."""
    from rchlab import experiments

    inner = experiments.solve

    def capture(u0, params, cfg):
        traj = inner(u0, params, cfg)
        sink.append((traj.grid, traj.states[0].copy(), traj.states[-1].copy()))
        return traj

    experiments.solve = capture
    try:
        yield
    finally:
        experiments.solve = inner


def _eulerian_drift(solves) -> float:
    from rchlab.eulerian import h1_integral
    from rchlab.spectral import Field

    drift = 0.0
    for grid, first, last in solves:
        e0 = h1_integral(Field(grid, first))
        drift = max(drift, abs(h1_integral(Field(grid, last)) - e0) / e0)
    return drift


class Workload:
    name = ""

    def __init__(self, size: dict, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"

    def setup(self) -> None:
        """Generate the seeded inputs (outside every timed region)."""
        self.inputs.mkdir(parents=True, exist_ok=True)

    def _fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def iterate(self, region: Region, first: bool) -> Outcome:
        raise NotImplementedError


class _Campaign(Workload):
    """A campaign command; checks its verdicts and report determinism."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def iterate(self, region: Region, first: bool) -> Outcome:
        self._fresh_out()
        sink = io.StringIO()
        solves: list = []
        with region:
            with _captured_solves(solves):
                code = _run_cli(self.argv(), sink)
        res = Outcome(region.elapsed, region.normalised)
        res.op("cli", code == 0, f"exit status {code!r}")
        try:
            report_bytes = (self.out / "report.json").read_bytes()
            table_bytes = (self.out / "table.csv").read_bytes()
            report = json.loads(report_bytes)
        except (OSError, ValueError) as exc:
            res.op("report", False, repr(exc))
            return res
        verdicts = report["verdicts"]
        failed = [k for k, v in verdicts.items() if not v["passed"]]
        res.op("verdicts", not failed, f"failed verdicts {failed}")
        res.digest = _digest(report_bytes, table_bytes)
        res.acceptance = {k: v["value"] for k, v in verdicts.items()}
        res.acceptance.update({f"fit.{k}": v["slope"]
                               for k, v in report["fits"].items()})
        res.h1_drift = _eulerian_drift(solves)
        res.acceptance["h1_drift"] = res.h1_drift
        return res


class Nonuniform(_Campaign):
    name = "nonuniform"

    def argv(self) -> list[str]:
        sz = self.size
        return ["nonuniform-super", "--s", "2", "--p", "2", "--r", "2",
                "--n-min", str(sz["n_min"]), "--n-max", str(sz["n_max"]),
                "--steps", str(sz["steps"]), "--omega", repr(OMEGA),
                "--out", str(self.out)]


class Picard(_Campaign):
    name = "picard"

    def setup(self) -> None:
        from rchlab.spectral import field_to_binary

        super().setup()
        field_to_binary(seeded_field(self.size["n_points"], self.seed),
                        self.inputs / "init.bin")

    def argv(self) -> list[str]:
        sz = self.size
        return ["picard", "--init", str(self.inputs / "init.bin"),
                "--m-max", str(sz["m_max"]), "--steps", str(sz["steps"]),
                "--omega", repr(OMEGA), "--out", str(self.out)]


def _lagrangian_energy(state) -> float:
    """E = int (U^2 y_xi + U_xi^2 / y_xi) d xi on the label grid."""
    integrand = state.U**2 * state.y_xi + state.U_xi**2 / state.y_xi
    return float(state.grid.spacing * np.sum(integrand))


class Particle(Workload):
    name = "particle"

    def setup(self) -> None:
        from rchlab.coefficients import derive_coefficients
        from rchlab.eulerian import SolverConfig
        from rchlab.spectral import Field

        super().setup()
        sz = self.size
        self.u0 = seeded_field(sz["n_points"], self.seed)
        self.u1 = Field(self.u0.grid, PARTICLE_SCALE * self.u0.values)
        self.params = derive_coefficients(OMEGA)
        self.cfg = SolverConfig(dt=sz["t_end"] / sz["steps"],
                                t_end=sz["t_end"],
                                snapshot_every=sz["snapshot_every"])

    def iterate(self, region: Region, first: bool) -> Outcome:
        from rchlab import lagrangian as lag

        runs, pulled, dist = [], [], None
        with region:
            for u in (self.u0, self.u1):
                runs.append(lag.lagrangian_solve(lag.initial_state(u),
                                                 self.params, self.cfg))
            for traj in runs:
                pulled.append([lag.pullback_to_eulerian(s).values
                               for s in traj.states])
            dist = lag.stability_distance(runs[0], runs[1], 2.0)
        res = Outcome(region.elapsed, region.normalised)
        res.op("lagrangian_solve", len(runs) == 2)
        res.op("pullback", all(np.all(np.isfinite(p)) for p in pulled))
        res.op("stability_distance", bool(np.all(np.isfinite(dist))),
               f"distances {dist}")
        res.digest = _digest(*(v.tobytes() for p in pulled for v in p),
                             np.asarray(dist).tobytes())
        res.h1_drift = max(
            abs(_lagrangian_energy(t.states[-1]) - _lagrangian_energy(t.states[0]))
            / _lagrangian_energy(t.states[0]) for t in runs)
        res.acceptance = {"h1_drift": res.h1_drift,
                          "stability_distance_max": float(np.max(dist))}
        if first:
            # the grid solver on the same steps, after the timer stopped
            from rchlab.eulerian import solve

            eul = solve(self.u0, self.params, self.cfg)
            gap = max(float(np.max(np.abs(p - e)))
                      for p, e in zip(pulled[0], eul.states))
            res.acceptance["cross_check_linf_gap"] = gap
            res.op("cross_check", gap <= CROSS_CHECK_TOL,
                   f"pullback vs grid solver {gap:.3e} > {CROSS_CHECK_TOL}")
        return res


class Fields(Workload):
    name = "fields"

    def setup(self) -> None:
        from rchlab.spectral import field_to_binary

        super().setup()
        field_to_binary(seeded_field(self.size["n_points"], self.seed),
                        self.inputs / "init.bin")

    def iterate(self, region: Region, first: bool) -> Outcome:
        from rchlab.spectral import field_from_binary, field_from_csv

        sz = self.size
        self._fresh_out()
        run = self.out / "run"
        cert = self.out / "cert.csv"
        sink = io.StringIO()
        codes = []
        with region:
            codes.append(_run_cli(
                ["data", "--certify", "--p", "1",
                 "--n-min", str(sz["cert_n_min"]),
                 "--n-max", str(sz["cert_n_max"]), "--out", str(cert)], sink))
            codes.append(_run_cli(
                ["solve", "--init", str(self.inputs / "init.bin"),
                 "--tend", repr(sz["t_end"]), "--dt", repr(sz["dt"]),
                 "--snapshot-every", str(sz["snapshot_every"]),
                 "--omega", repr(OMEGA),
                 "--besov", "2,2,2", "--besov", "1.5,1,1", "--out", str(run)],
                sink))
            snaps = sorted(run.glob("snap_*.csv"))
            for snap in snaps:
                codes.append(_run_cli(["besov", "--input", str(snap),
                                       "--s", "2", "--p", "1"], sink))
        res = Outcome(region.elapsed, region.normalised)
        for code in codes:
            res.op("cli", code == 0, f"exit status {code!r}")
        want = 1 + math.ceil(round(sz["t_end"] / sz["dt"])
                             / sz["snapshot_every"])
        res.op("snapshots", len(snaps) == want,
               f"{len(snaps)} CSV snapshots, expected {want}")
        try:
            norms = (run / "norms.csv").read_bytes()
            cert_bytes = cert.read_bytes()
            rows = list(_csv_rows(norms))
            e = [float(r["h1_integral"]) for r in rows]
            last = snaps[-1]
            same = np.array_equal(field_from_csv(last).values,
                                  field_from_binary(last.with_suffix(".bin"))
                                  .values)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.op("outputs", False, repr(exc))
            return res
        res.op("csv_binary_roundtrip", same, f"{last.name}: CSV != binary")
        res.h1_drift = abs(e[-1] - e[0]) / e[0]
        res.op("h1_conservation", res.h1_drift <= H1_DRIFT_GATE,
               f"H1 drift {res.h1_drift:.3e} > {H1_DRIFT_GATE}")
        res.digest = _digest(cert_bytes, norms, sink.getvalue().encode())
        res.acceptance = {"h1_drift": res.h1_drift}
        try:
            slopes = certification_slopes(cert_bytes)
        except (ValueError, KeyError, TypeError) as exc:
            res.op("certification_slopes", False, repr(exc))
            return res
        off = {k: v for k, v in slopes.items()
               if abs(v - CERT_SLOPES[k]) > CERT_SLOPE_TOL}
        res.op("certification_slopes", not off, f"slopes off target: {off}")
        res.acceptance.update(slopes)
        return res


def _csv_rows(data: bytes):
    return csv.DictReader(io.StringIO(data.decode()))


def certification_slopes(cert_bytes: bytes) -> dict[str, float]:
    """log2 slopes of the certified carrier/companion norms against n.

    Raises ValueError when a quantity has fewer than two rows.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for row in _csv_rows(cert_bytes):
        if row["n"]:
            series.setdefault(row["quantity"], []).append(
                (int(row["n"]), float(row["value"])))
    out = {}
    for key in CERT_SLOPES:
        quantity = key[len("cert."):-len("_slope")]
        rows = series.get(quantity, [])
        if len(rows) < 2:
            raise ValueError(f"certificate has {len(rows)} rows of {quantity}")
        ns, vals = zip(*rows)
        out[key] = float(np.polyfit(np.asarray(ns, float), np.log2(vals), 1)[0])
    return out


WORKLOADS = {cls.name: cls for cls in (Nonuniform, Picard, Particle, Fields)}
