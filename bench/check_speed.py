"""Check that speed normalisation follows a known change to the program.

    python3 bench/check_speed.py --pairs 12

A change to the program must move the speed-normalised time (``wall_norm_s``,
see speed.py) by the same fraction as it moves the time at a fixed host speed.
This script makes such a change from outside: it wraps the ``picard`` workload's hot binding,
``rchlab.eulerian.conv_spec``, so that its calls add a fixed amount of extra
work, about a fifth of the iteration, and times iterations with and without it, alternating (A B B A ...) in one
process so that slow host drift cancels.  Two kinds of extra work:

* ``compute`` -- a cache-resident numpy and interpreted loop on every call;
  it leaves the working set as it was.
* ``memory`` -- a copy of 32 MiB into another 32 MiB buffer every few calls;
  it grows the working set past the caches, which is the change most likely
  to move the calibration kernel's own time.

For each kind it prints the median over the pairs of the raw and normalised
excess (with/without - 1), and the expected excess: the time the extra work
took inside the "with" iteration over the rest of that iteration.  The
expected excess is taken within one iteration, so host drift between the two
iterations of a pair does not move it; the raw excess, taken across them,
spreads with that drift.  The normalised excess must match the expected one
within ``TOLERANCE``.  Before that it checks the calibration kernel itself:
its time right after a slice that streams 64 MiB must match its time right
after a cache-resident slice within ``FOOTPRINT_TOLERANCE``.  The last
stdout line is a JSON object with these figures; the exit status is 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

import run  # pins native thread pools before numpy loads

import numpy as np  # noqa: E402

import speed  # noqa: E402

WORKLOAD = "picard"
SEED = 1
EXTRA = 0.2                # extra work as a share of the iteration's raw time
TOLERANCE = 0.05           # largest |normalised - expected excess|
FOOTPRINT_TOLERANCE = 0.02
_SMALL = np.random.default_rng(1).random(2**10)
_BIG_SRC = np.ones(2**22)   # 32 MiB
_BIG_DST = np.zeros(2**22)


def compute_unit() -> None:
    y = _SMALL
    for _ in range(4):
        y = np.sin(y) + 0.5
    acc = 0
    for i in range(300):
        acc += i * i


def memory_unit() -> None:
    np.copyto(_BIG_DST, _BIG_SRC)


def unit_seconds(unit) -> float:
    times = []
    for _ in range(21):
        t0 = time.perf_counter()
        unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Injection:
    """Wrap ``module.attr`` so that its calls run ``unit`` ``reps`` times on
    every ``every``-th call; with ``unit`` None it only counts the calls."""

    def __init__(self, module, attr: str, unit=None, every=1, reps=1):
        self.module, self.attr = module, attr
        self.unit, self.every, self.reps = unit, every, reps
        self.calls = 0
        self.extra_s = 0.0

    def __enter__(self):
        inner = getattr(self.module, self.attr)
        self._inner = inner

        def wrapper(*args, **kwargs):
            self.calls += 1
            if self.unit is not None and self.calls % self.every == 0:
                t0 = time.perf_counter()
                for _ in range(self.reps):
                    self.unit()
                self.extra_s += time.perf_counter() - t0
            return inner(*args, **kwargs)

        setattr(self.module, self.attr, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self._inner)
        return False


def kernel_after_footprint(rounds: int = 200) -> float:
    """Median kernel time after a 64 MiB stream over that after a
    cache-resident slice, minus one."""
    after = {"big": [], "small": []}
    for i in range(rounds):
        kind = "big" if i % 2 else "small"
        for _ in range(5):
            memory_unit() if kind == "big" else compute_unit()
        after[kind].append(speed.kernel_seconds())
    return (statistics.median(after["big"])
            / statistics.median(after["small"]) - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pairs", type=int, default=12)
    args = ap.parse_args(argv)

    run.import_rchlab()
    from rchlab import eulerian as module
    from workloads import SIZES, WORKLOADS, Region

    attr = "conv_spec"
    workdir = run.RUNS / "work" / "check-speed"
    workload = WORKLOADS[WORKLOAD](SIZES["full"][WORKLOAD], SEED, workdir)
    results = {}
    footprint = kernel_after_footprint()
    print(f"kernel time after a 64 MiB stream vs after a cache-resident "
          f"slice: {footprint:+.4f}")
    try:
        workload.setup()
        with Injection(module, attr) as counter:
            base = workload.iterate(Region(), first=True)
        calls = counter.calls
        print(f"{WORKLOAD}: {calls} calls of {attr} per iteration, "
              f"warm-up {base.elapsed:.3f} s raw")
        for kind, unit in (("compute", compute_unit),
                           ("memory", memory_unit)):
            units = EXTRA * base.elapsed / unit_seconds(unit)
            every = max(1, round(calls / units))
            reps = max(1, round(units / calls))
            pairs = []
            for i in range(args.pairs):
                order = (False, True) if i % 2 == 0 else (True, False)
                timed = {}
                for extra in order:
                    inj = Injection(module, attr, unit if extra else None,
                                    every, reps)
                    with inj:
                        res = workload.iterate(Region(), first=False)
                    bad = [op for op in res.ops if not op[1]]
                    if bad:
                        raise SystemExit(f"iteration failed: {bad}")
                    timed[extra] = (res, inj.extra_s)
                (with_, extra_s), (without, _) = timed[True], timed[False]
                raw = with_.elapsed / without.elapsed - 1.0
                norm = with_.normalised / without.normalised - 1.0
                expected = extra_s / (with_.elapsed - extra_s)
                pairs.append((raw, norm, expected))
                print(f"  {kind} pair {i}: raw excess {raw:+.4f}, "
                      f"normalised {norm:+.4f}, expected {expected:+.4f}",
                      flush=True)
            raw, norm, expected = (statistics.median(p[j] for p in pairs)
                                   for j in range(3))
            results[kind] = {"every": every, "reps": reps,
                             "raw_excess": raw, "normalised_excess": norm,
                             "expected_excess": expected,
                             "difference": norm - expected,
                             "pairs": [list(p) for p in pairs]}
            print(f"{kind}: unit x{reps} every {every} calls; median excess "
                  f"raw {raw:+.4f}, normalised {norm:+.4f}, expected "
                  f"{expected:+.4f}; normalised - expected "
                  f"{norm - expected:+.4f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = (abs(footprint) <= FOOTPRINT_TOLERANCE
          and all(abs(r["difference"]) <= TOLERANCE
                  for r in results.values()))
    print(json.dumps({"workload": WORKLOAD, "seed": SEED,
                      "tolerance": TOLERANCE,
                      "footprint_tolerance": FOOTPRINT_TOLERANCE,
                      "ok": ok,
                      "kernel_after_footprint": footprint,
                      "environment": run.environment(), "kinds": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
