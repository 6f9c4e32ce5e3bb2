"""Command line front end.

Subcommands mirror the library layout: coefficient derivation, Besov norm
evaluation, the two solvers, data-family construction and certification, and
the experiment campaigns.  Field files are CSV when the path ends in ``.csv``
and packed binary otherwise.  Campaign subcommands write a report directory
(report.json, table.csv, plot.gp).  The exit status is 0 on success, 1 if a
campaign verdict failed and 2 for bad input: a usage error, or an rchlab
error, which :func:`run` reports.  Either is one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import experiments
from .coefficients import derive_coefficients
from .errors import RchlabError
from .eulerian import SolverConfig, h1_integral, solve
from .experiments import DEFAULT_LENGTH, DEFAULT_POINTS
from .initial_data import (build_family, build_psi, builtin_profile,
                           certification_tables)
from .lagrangian import initial_state, lagrangian_solve, pullback_to_eulerian
from .littlewood_paley import (BesovIndex, _distances, block_norms,
                               build_filter_bank, lp_norm, sequence_norm)
from .spectral import (Field, PeriodicGrid, field_from_binary, field_from_csv,
                       field_to_binary, field_to_csv)

BUILTIN_NAMES = ("zero", "smoke", "psi")


def _bad_input(message: str) -> SystemExit:
    """Report bad command-line input on one stderr line; exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _load_field(init: str, length: float, n_points: int | None) -> Field:
    if init in BUILTIN_NAMES:
        return builtin_profile(init, _auto_grid(length, n_points))
    path = Path(init)
    if not path.exists():
        raise _bad_input(f"no field file {path} and not one of "
                         f"{'/'.join(BUILTIN_NAMES)}")
    if path.suffix == ".csv":
        return field_from_csv(path)
    return field_from_binary(path)


def _save_field(f: Field, path) -> None:
    path = Path(path)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".csv":
        field_to_csv(f, path)
    else:
        field_to_binary(f, path)


def _summability(text: str) -> float:
    """Argparse type of every r: a float, and a nonpositive one is infinity."""
    try:
        r = float(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return math.inf if r <= 0 else r


def _parse_besov_triple(text: str) -> BesovIndex:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected s,p,r (e.g. 2,2,2), got {text!r}")
    try:
        return BesovIndex(float(parts[0]), float(parts[1]),
                          _summability(parts[2]))
    except ValueError as err:  # else argparse names this function, not err
        raise argparse.ArgumentTypeError(f"invalid s,p,r {text!r}: {err}")


def _cmd_coeffs(args) -> int:
    params = derive_coefficients(args.omega)
    data = asdict(params)
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        width = max(len(k) for k in data)
        for key, val in data.items():
            print(f"{key:<{width}} = {val!r}")
    return 0


def _cmd_besov(args) -> int:
    f = _load_field(args.input, args.L, args.N)
    bank = build_filter_bank(f.grid)
    idx = BesovIndex(args.s, args.p, args.r)
    weighted = block_norms(bank, f, idx)
    print(f"besov_norm,{sequence_norm(weighted, idx.r)!r}")
    print("j,weighted_block_norm")
    for j, val in zip(range(-1, bank.j_max + 1), weighted):
        print(f"{j},{float(val)!r}")
    return 0


def _write_csv(path, header, rows) -> None:
    """Write ``header``, then each row's numbers as ``repr`` of a float, into
    ``path``, making its directory if need be."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def _write_norm_table(path, traj, bank, indices) -> None:
    besov = _distances(bank, traj.states, 0.0, indices)
    fields = map(traj.field_at, range(len(traj.times)))
    _write_csv(path, ["t", "l2", "linf", "h1_integral"]
               + [f"besov_{i.s:g}_{i.p:g}_{i.r:g}" for i in indices],
               [(t, lp_norm(f, 2.0), lp_norm(f, math.inf), h1_integral(f),
                 *norms) for f, t, *norms in zip(fields, traj.times, *besov)])


def _cmd_solve(args) -> int:
    params = derive_coefficients(args.omega)
    u0 = _load_field(args.init, args.L, args.N)
    # the given dt sets the march, so the step count passed is never used
    cfg = SolverConfig.sampled(args.tend, 1, 16, args.dt)
    if args.snapshot_every is not None:
        cfg = replace(cfg, snapshot_every=args.snapshot_every)
    # the bank is built before the march, so a grid it refuses writes nothing
    bank = build_filter_bank(u0.grid)
    traj = solve(u0, params, cfg)
    out = Path(args.out)
    # norms.csv first, and its rows are measured before its directory is
    # made: an index whose weights overflow writes nothing
    _write_norm_table(out / "norms.csv", traj, bank,
                      args.besov or [BesovIndex(2.0, 2.0, 2.0)])
    for i in range(len(traj.times)):
        f = traj.field_at(i)
        field_to_binary(f, out / f"snap_{i:04d}.bin")
        field_to_csv(f, out / f"snap_{i:04d}.csv")
    final = traj.final()
    print(f"integrated to t={traj.times[-1]:g} in {len(traj.times)} snapshots"
          f" -> {out}")
    print(f"final: l2={lp_norm(final, 2.0):.6e} linf="
          f"{lp_norm(final, math.inf):.6e}")
    return 0


def _cmd_lagrangian(args) -> int:
    params = derive_coefficients(args.omega)
    u0 = _load_field(args.init, args.L, args.N)
    cfg = SolverConfig.sampled(args.tend, 64, 8, args.dt)
    if args.snapshot_every is not None:
        cfg = replace(cfg, snapshot_every=args.snapshot_every)
    traj = lagrangian_solve(initial_state(u0), params, cfg)
    # the same cfg makes the same march, so the snapshots pair up in order;
    # the grid solver runs before any output, so its refusal writes nothing
    eul = solve(u0, params, cfg) if args.cross_check else None
    out = Path(args.out)
    for i, state in enumerate(traj.states):
        _write_csv(out / f"flow_{i:04d}.csv", ["xi", "y", "y_xi", "U", "U_xi"],
                   zip(state.labels, state.y, state.y_xi, state.U, state.U_xi))
    print(f"integrated particle system to t={traj.times[-1]:g}, "
          f"{len(traj.states)} snapshots -> {out}")
    if eul is None:
        return 0
    gaps = [float(np.max(np.abs(pullback_to_eulerian(state).values - vals)))
            for state, vals in zip(traj.states, eul.states)]
    _write_csv(out / "cross_check.csv", ["t", "linf_gap"],
               zip(traj.times, gaps))
    print(f"cross-check vs grid solver: max linf gap {max(gaps):.3e}")
    return 0


def _auto_grid(length: float, n_points: int | None,
               n_block: int | None = None) -> PeriodicGrid:
    if n_points is not None:
        return PeriodicGrid(length, n_points)
    if n_block is None:
        return PeriodicGrid(length, DEFAULT_POINTS)
    return experiments.grid_for_block(n_block, length)


def _cmd_data(args) -> int:
    if args.certify:
        ns = range(args.n_min, args.n_max + 1)
        grid = _auto_grid(args.L, args.N, args.n_max)
        bump = build_psi(grid)
        tables = certification_tables(bump, ns, args.s, args.p, args.r)
        lines = ["quantity,n,value"]
        for tb in tables:
            for n, val in zip(tb.ns, tb.values):
                lines.append(f"{tb.quantity},{int(n)},{float(val)!r}")
            lines.append(f"{tb.quantity}_top_half_min,,{tb.empirical_min!r}")
        text = "\n".join(lines) + "\n"
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.out).write_text(text)
            print(f"wrote {len(lines) - 1} rows -> {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    if args.family is None:
        raise _bad_input("pass --family or --certify")
    if args.family != "psi" and args.n is None:
        raise _bad_input("--n is required for the modulated families")
    if args.out is None:
        raise _bad_input("--out is required with --family")
    grid = _auto_grid(args.L, args.N, args.n)
    bump = build_psi(grid)
    if args.family == "psi":
        f = bump.field
    else:
        fam = build_family(bump, args.n, args.s)
        f = getattr(fam, args.family)
    _save_field(f, args.out)
    print(f"wrote {args.family} (n={args.n}, s={args.s:g}) on "
          f"N={grid.n_points}, L={grid.length:g} -> {args.out}")
    return 0


def _finish_campaign(report, args) -> int:
    out = Path(args.out) if args.out else Path("reports") / args.command
    experiments.write_report(report, out)
    for key, v in report.verdicts.items():
        tag = "PASS" if v.passed else "FAIL"
        print(f"[{tag}] {key}: value={v.value:.6g} ({v.tolerance})")
    print(f"report -> {out}")
    return 0 if report.all_passed() else 1


def _cmd_sweep(args) -> int:
    # looked up by name at call time: build_parser is cached for the process
    run = getattr(experiments, args.runner)
    index = [getattr(args, k) for k in ("s", "p", "r") if hasattr(args, k)]
    rep = run(*index, list(range(args.n_min, args.n_max + 1)),
              omega=args.omega, length=args.L, steps=args.steps, dt=args.dt)
    return _finish_campaign(rep, args)


def _cmd_continuity(args) -> int:
    rep = experiments.run_continuous_dependence(
        args.s, args.p, args.r, args.eps or [1e-2, 1e-3, 1e-4], args.tend,
        omega=args.omega, length=args.L, steps=args.steps, dt=args.dt,
        n_points=DEFAULT_POINTS if args.N is None else args.N)
    return _finish_campaign(rep, args)


def _cmd_picard(args) -> int:
    u0 = _load_field(args.init, args.L, args.N)
    rep = experiments.run_picard_convergence(
        u0, args.omega, args.m_max, s=args.s, p=args.p, r=args.r,
        steps=args.steps, t_end=args.tend, dt=args.dt)
    return _finish_campaign(rep, args)


def _add_grid_flags(p, with_points: bool = True) -> None:
    p.add_argument("--L", type=float, default=DEFAULT_LENGTH,
                   help="domain length (default 64*pi; must be >= 64*pi "
                        "for the plateau bump)")
    if with_points:
        p.add_argument("--N", type=int, default=None,
                       help="grid points (default: sized automatically)")


def _add_index_flags(p, s: float | None = 2.0) -> None:
    """The --s, --p, --r of a Besov index; ``s=None`` makes --s required."""
    p.add_argument("--s", type=float, default=s, required=s is None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--r", type=_summability, default=2.0,
                   help="summability exponent; nonpositive means infinity")


def _add_campaign_flags(p, steps: int) -> None:
    p.add_argument("--omega", type=float, default=experiments.DEFAULT_OMEGA)
    p.add_argument("--dt", type=float, default=None,
                   help="time step (default: horizon / steps)")
    p.add_argument("--steps", type=int, default=steps,
                   help=f"time steps (default {steps})")
    p.add_argument("--out", default=None,
                   help="report directory (default reports/<subcommand>)")


class _Parser(argparse.ArgumentParser):
    """A parser whose subparsers share its one-line usage errors."""

    def error(self, message):
        # argparse's own last line, without the usage block above it
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # parsing leaves the parser unchanged, so one serves a process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rchlab",
        description="Spectral laboratory for a rotating shallow-water "
                    "equation on the circle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="derive model coefficients from the "
                                      "rotation parameter")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("besov", help="Besov norm and per-block spectrum of a "
                                     "field file")
    p.add_argument("--input", required=True)
    _add_index_flags(p, s=None)
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_besov)

    p = sub.add_parser("solve", help="integrate the full equation")
    p.add_argument("--omega", type=float, default=experiments.DEFAULT_OMEGA)
    p.add_argument("--init", required=True,
                   help=f"field file or builtin ({'/'.join(BUILTIN_NAMES)})")
    p.add_argument("--tend", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--besov", type=_parse_besov_triple, action="append",
                   help="s,p,r triple for norms.csv; repeatable")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lagrangian", help="integrate the particle system")
    p.add_argument("--init", required=True)
    p.add_argument("--omega", type=float, default=experiments.DEFAULT_OMEGA)
    p.add_argument("--tend", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", default="reports/lagrangian")
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--cross-check", action="store_true",
                   help="compare the pulled-back flow against the grid solver")
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_lagrangian)

    p = sub.add_parser("data", help="build or certify the dyadic data "
                                    "families")
    p.add_argument("--family", choices=["psi", "w0n", "v0n", "u0n", "z0n"])
    p.add_argument("--n", type=int, default=None)
    _add_index_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--certify", action="store_true",
                   help="emit the full norm-scaling table as CSV")
    p.add_argument("--n-min", type=int, default=5)
    p.add_argument("--n-max", type=int, default=11)
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_data)

    # a sweep sizes its grid per mode index: it takes no --N, and N is None
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--n-min", type=int, default=5)
    sweep.add_argument("--n-max", type=int, default=9)
    _add_campaign_flags(sweep, steps=experiments.DEFAULT_STEPS)
    _add_grid_flags(sweep, with_points=False)
    sweep.set_defaults(N=None, func=_cmd_sweep)

    p = sub.add_parser("nonuniform-super", parents=[sweep],
                       help="high/low frequency gap persistence, "
                            "supercritical indices")
    _add_index_flags(p)
    p.set_defaults(runner="run_nonuniform_supercritical")

    p = sub.add_parser("nonuniform-critical", parents=[sweep],
                       help="gap persistence on the critical index line")
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(runner="run_nonuniform_critical")

    p = sub.add_parser("decomp-rates", parents=[sweep],
                       help="frozen-data decay, side-band boundedness and "
                            "first-order residual rates")
    _add_index_flags(p, s=2.5)
    p.set_defaults(runner="run_decomposition_rates")

    p = sub.add_parser("critical-expansion", parents=[sweep],
                       help="first-order expansion control on the critical "
                            "line")
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(runner="run_critical_expansion")

    p = sub.add_parser("continuity",
                       help="solution distance under vanishing data "
                            "perturbations")
    _add_index_flags(p)
    p.add_argument("--eps", type=float, action="append", default=None)
    p.add_argument("--tend", type=float, default=None)
    _add_campaign_flags(p, steps=experiments.DEFAULT_CONTINUITY_STEPS)
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_continuity)

    p = sub.add_parser("picard",
                       help="contraction of the frozen-coefficient iteration")
    p.add_argument("--init", default="smoke")
    p.add_argument("--m-max", type=int, default=8)
    _add_index_flags(p)
    p.add_argument("--tend", type=float, default=None)
    _add_campaign_flags(p, steps=experiments.DEFAULT_PICARD_STEPS)
    _add_grid_flags(p)
    p.set_defaults(func=_cmd_picard)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def run(argv=None) -> None:
    """Console entry point: :func:`main`, with an rchlab error reported as
    one stderr line ``TypeName: message [t=time]`` and exit status 2."""
    try:
        code = main(argv)
    except RchlabError as err:
        when = "" if err.time is None else f" t={float(err.time)!r}"
        print(f"{type(err).__name__}: {err}{when}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    run()
