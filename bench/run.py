"""Run one benchmark workload against the rchlab checkout this file sits in.

    python3 bench/run.py --workload picard --seed 1 --trace 0

Repeats the workload in a closed loop for about ``--seconds`` seconds: one
warm-up iteration (checked, not timed; the first of a process is the
slowest), then at least three timed ones.  Every iteration's outputs are
checked.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run first times untraced
iterations, then traced ones, and reports the per-layer metrics.  Times are
also given at a reference host speed (see speed.py).  The full record of a
run (environment, seed, per-iteration times, acceptance values, per-layer
tables) goes to ``bench/runs/results/``; spans of the last traced iteration
go to ``bench/runs/traces/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: the workload runs on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ORIGINAL_THREAD_ENV = {v: os.environ.get(v) for v in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
SETUP_PROBES = 7
PROBE_SAMPLE_PERIOD_S = 0.05  # a probe lasts under a second
MIN_ITERATIONS = 4     # the first, a warm-up, is checked but not timed


def import_rchlab():
    """Import rchlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "rchlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no rchlab package under {SRC}; run from a "
                         f"checkout that holds src/rchlab")
    sys.path.insert(0, str(SRC))
    import rchlab
    import rchlab.cli  # noqa: F401  every CLI user pays this import

    here = Path(rchlab.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"error: imported rchlab from {here}, not {SRC}")
    return rchlab


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(ln.split()[1]) for ln in fh
                            if ln.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scipy_fft_default_workers": scipy.fft.get_workers(),
        "thread_env_original": ORIGINAL_THREAD_ENV,
        "thread_env_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "process_threads": threads,
    }


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the workload's inputs being
    written: raw, and at the reference host speed.

    The child samples host speed from the moment this process starts it, on
    the host-wide monotonic clock, so the interpreter start and the imports
    before its sampler exists are rescaled by its first sample.  Its exit is
    not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--probe-start"]
    proc = subprocess.run(cmd + [repr(time.perf_counter())], check=True,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["raw_s"], child["normalised_s"]


def loop(workload, seconds: float, min_iters: int, first: bool, tracer=None):
    """Closed loop: iterate until another iteration would overrun."""
    from workloads import Region

    outcomes, layers = [], []
    t_start = time.perf_counter()
    while True:
        res = workload.iterate(Region(tracer), first=first and not outcomes)
        outcomes.append(res)
        if tracer is not None:
            layers.append(tracer.layer_metrics(res.elapsed))
        spent = time.perf_counter() - t_start
        if (len(outcomes) >= min_iters
                and spent * (1.0 + 1.0 / len(outcomes)) > seconds):
            return outcomes, layers


def format_table(rows: list[tuple[str, float, str]]) -> str:
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g} {unit}"
                     for name, value, unit in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' only exercises the harness")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--probe-start", type=float, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        from speed import SpeedSampler

        with SpeedSampler(period=PROBE_SAMPLE_PERIOD_S,
                          start=args.probe_start) as sampler:
            import_rchlab()
            from workloads import SIZES, WORKLOADS

            workdir = RUNS / "work" / f"probe-{os.getpid()}"
            try:
                WORKLOADS[args.workload](SIZES[args.size][args.workload],
                                         args.seed, workdir).setup()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"raw_s": sampler.raw_s,
                          "normalised_s": sampler.normalised_s}))
        return 0

    import_rchlab()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    workdir = RUNS / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](SIZES[args.size][args.workload],
                                        args.seed, workdir)
    try:
        setup = []
        if args.trace == 0:
            setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
        workload.setup()
        record = run_workload(args, spec, workload, setup, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if record is None:
        return 1
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


def run_workload(args, spec: dict, workload,
                 setup: list[tuple[float, float]], tracer_cls):
    t_run = time.perf_counter()
    try:
        if args.trace == 0:
            outcomes, _ = loop(workload, args.seconds, MIN_ITERATIONS, True)
            untraced, layers, tracer = outcomes, [], None
        else:
            untraced, _ = loop(workload, 0.5 * args.seconds, MIN_ITERATIONS,
                               True)
            tracer = tracer_cls()
            spent = time.perf_counter() - t_run
            traced, layers = loop(workload, args.seconds - spent, 1, False,
                                  tracer)
            outcomes = untraced + traced
    except Exception:  # the program raised where it must not: no result
        traceback.print_exc()
        return None

    ref = outcomes[0].digest
    for i, res in enumerate(outcomes[1:], start=1):
        res.op("deterministic_outputs", res.digest == ref,
               f"iteration {i} outputs differ from iteration 0")
    ops = [op for res in outcomes for op in res.ops]
    failures = [f"{name}: {detail}" for name, ok, detail in ops if not ok]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    traced = outcomes[len(untraced):]
    wall = [res.elapsed for res in untraced[1:]]
    wall_norm = [res.normalised for res in untraced[1:]]
    drifts = [res.h1_drift for res in outcomes if math.isfinite(res.h1_drift)]
    drift = statistics.median(drifts) if drifts else 1.0
    if args.trace == 0:
        section = "end_to_end"
        metrics = {
            "wall_norm_s": statistics.median(wall_norm),
            "setup_s": statistics.median(norm for _raw, norm in setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "h1_drift_digits": -math.log10(max(drift, 1e-16)),
        }
    else:
        section = "per_layer"
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(r.normalised for r in traced)
            / statistics.median(wall_norm) - 1.0)

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "correct": not failures, "attempted": len(ops),
        "failed": len(failures), "fail_frac": len(failures) / len(ops),
        "failures": failures,
        "iterations": {
            "warmup_s": untraced[0].elapsed,
            "warmup_norm_s": untraced[0].normalised,
            "untraced_s": wall, "untraced_norm_s": wall_norm,
            "traced_s": [r.elapsed for r in traced],
            "traced_norm_s": [r.normalised for r in traced]},
        "setup_s_samples": {"raw": [raw for raw, _n in setup],
                            "normalised": [n for _raw, n in setup]},
        "acceptance": outcomes[0].acceptance,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    if tracer is not None:
        record["span_table"] = tracer.span_table()
        traces = RUNS / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "spans": tracer.dump_spans(
                            tracer.spans[0][1] if tracer.spans else 0.0)}))
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("environment", json.dumps(record["environment"]))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(outcomes)} iterations, {len(ops)} operations, "
          f"{len(failures)} failed (fail_frac {record['fail_frac']:.3g})")
    print(format_table([(k, v["value"], v["unit"])
                        for k, v in record["metrics"].items()]))
    return record


if __name__ == "__main__":
    sys.exit(main())
