"""Run sets of benchmark runs and summarise them.

    python3 bench/collect.py --seeds 1-10                 # every workload
    python3 bench/collect.py --workloads picard --seeds 1-5 --trace
    python3 bench/collect.py --seeds 11-20 --compare bench/baseline/seed_baseline.json

Each run is ``bench/run.py`` in its own process, one after another.  For every
workload and end-to-end metric the summary gives the median, quartiles and
sample count over the runs, and the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json.  Beside them it gives the same summary of
the raw (not speed-normalised) wall and set-up times, so that a disagreement
between raw and normalised times shows.  ``--trace`` adds one traced run per
workload (first seed) with its per-layer table and the layer shares.
``--compare`` checks each median against another summary's, within the bound.
``--out`` writes the summary as JSON plus a Markdown rendering beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "runs" / "results"

# Layer shares of the traced wall time that show each workload stresses the
# layer it was chosen for: (label, numerator metrics).
SHARES = {
    "nonuniform": ("conv_spec self + FFT",
                   ("spectral.conv_spec.self_s", "spectral.fft.s",
                    "eulerian.fft.s")),
    "picard": ("picard_iterate inclusive", ("eulerian.picard_iterate.s",)),
    "particle": ("lagrangian layer self", ("lagrangian.self_s",)),
    "fields": ("littlewood_paley self + spectral.io",
               ("littlewood_paley.self_s", "spectral.io.write.s",
                "spectral.io.read.s")),
}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    record["process_s"] = elapsed
    record["result"] = result
    return record


def quartile_summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def summarise(records: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in records]
        out[m["name"]] = {"unit": m["unit"], "better": m["better"],
                          "bound": m["bound"], **quartile_summary(vals)}
    return out


def summarise_raw(records: list[dict]) -> dict:
    """Per-run medians of the raw wall and set-up times, summarised."""
    return {
        "wall_raw_s": quartile_summary(
            [statistics.median(r["iterations"]["untraced_s"])
             for r in records]),
        "setup_raw_s": quartile_summary(
            [statistics.median(r["setup_s_samples"]["raw"])
             for r in records]),
    }


def worse_by(new: float, old: float, better: str) -> float:
    """Relative change of ``new`` against ``old``; positive means worse."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def markdown(summary: dict) -> str:
    lines = [f"# Benchmark summary ({summary['label']})", "",
             "Environment: " + ", ".join(
                 f"{k}={v}" for k, v in summary["environment"].items()), "",
             "| workload | metric | unit | median | q1 | q3 | n | spread | "
             "bound | spread < bound/3 |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for w, wsum in summary["workloads"].items():
        for name, m in wsum["metrics"].items():
            lines.append(
                f"| {w} | {name} | {m['unit']} | {m['median']:.6g} | "
                f"{m['q1']:.6g} | {m['q3']:.6g} | {m['n']} | "
                f"{m['spread']:.4f} | {m['bound']} | "
                f"{'yes' if m['spread'] < m['bound'] / 3 else 'NO'} |")
    lines += ["", "Raw times, not speed-normalised (per-run medians; "
              "compare with wall_norm_s and setup_s):", "",
              "| workload | time | median | q1 | q3 | n | spread |",
              "| --- | --- | --- | --- | --- | --- | --- |"]
    for w, wsum in summary["workloads"].items():
        for name, m in wsum["raw"].items():
            lines.append(f"| {w} | {name} | {m['median']:.6g} | "
                         f"{m['q1']:.6g} | {m['q3']:.6g} | {m['n']} | "
                         f"{m['spread']:.4f} |")
    lines += ["", "| workload | runs | attempted | failed | fail_frac |",
              "| --- | --- | --- | --- | --- |"]
    for w, wsum in summary["workloads"].items():
        lines.append(f"| {w} | {wsum['runs']} | {wsum['attempted']} | "
                     f"{wsum['failed']} | {wsum['fail_frac']:.3g} |")
    lines += ["", "## Acceptance values (min .. max over the runs)", ""]
    for w, wsum in summary["workloads"].items():
        for key, (lo, hi) in wsum["acceptance"].items():
            lines.append(f"- {w} `{key}`: {lo:.6g} .. {hi:.6g}")
    for w, tr in summary.get("traced", {}).items():
        label, _ = SHARES[w]
        lines += ["", f"## Traced run: {w} (seed {tr['seed']})", "",
                  f"Share of traced wall in {label}: {tr['share']:.3f}; "
                  f"tracing overhead {tr['overhead_frac']:+.3f}.", "",
                  "| layer | self_s | share |", "| --- | --- | --- |"]
        for layer, secs in tr["layer_self_s"].items():
            lines.append(f"| {layer} | {secs:.4f} | "
                         f"{secs / tr['wall_s']:.3f} |")
        lines += ["", "| per-layer metric | value | unit |",
                  "| --- | --- | --- |"]
        for name, m in tr["metrics"].items():
            lines.append(f"| {name} | {m['value']:.6g} | {m['unit']} |")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--label", default="")
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--compare", type=Path, default=None)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {"label": args.label or f"seeds {args.seeds}",
               "seconds": args.seconds, "seeds": seeds, "workloads": {},
               "traced": {}}
    ok = True
    for w in args.workloads.split(","):
        records = []
        for seed in seeds:
            rec = run_one(w, seed, args.seconds, 0)
            records.append(rec)
            vals = {k: round(v["value"], 5)
                    for k, v in rec["result"]["metrics"].items()}
            print(f"{w} seed {seed}: {vals} ({rec['process_s']:.1f}s process)",
                  flush=True)
        summary["environment"] = records[0]["environment"]
        acceptance: dict[str, list[float]] = {}
        for rec in records:
            for k, v in rec["acceptance"].items():
                acceptance.setdefault(k, []).append(v)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        summary["workloads"][w] = {
            "runs": len(records), "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted,
            "correct": all(r["correct"] for r in records),
            "process_s_max": max(r["process_s"] for r in records),
            "metrics": summarise(records, spec),
            "raw": summarise_raw(records),
            "acceptance": {k: [min(v), max(v)] for k, v in acceptance.items()},
        }
        ok = ok and summary["workloads"][w]["correct"]
        if args.trace:
            rec = run_one(w, seeds[0], args.seconds, 1)
            metrics = rec["metrics"]
            wall = metrics["trace.wall_s"]["value"]
            _, parts = SHARES[w]
            summary["traced"][w] = {
                "seed": seeds[0], "wall_s": wall,
                "overhead_frac": metrics["trace.overhead_frac"]["value"],
                "share": sum(metrics[p]["value"] for p in parts) / wall,
                "layer_self_s": {k[:-len(".self_s")]: v["value"]
                                 for k, v in metrics.items()
                                 if k.count(".") == 1
                                 and k.endswith(".self_s")},
                "metrics": metrics, "span_table": rec["span_table"]}

    print()
    for w, wsum in summary["workloads"].items():
        print(f"{w}: {wsum['runs']} runs, fail_frac {wsum['fail_frac']:.3g}, "
              f"longest process {wsum['process_s_max']:.1f}s")
        for name, m in wsum["metrics"].items():
            steady = m["spread"] < m["bound"] / 3
            ok = ok and steady
            print(f"  {name:<16} {m['median']:>12.6g} {m['unit']:<7} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']} "
                  f"spread {m['spread']:.4f} (bound {m['bound']}"
                  f"{'' if steady else ', NOT below a third'})")
        for name, m in wsum["raw"].items():
            print(f"  {name:<16} {m['median']:>12.6g} s       "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']} "
                  f"spread {m['spread']:.4f} (raw, not normalised)")
    for w, tr in summary["traced"].items():
        print(f"  traced {w}: share {tr['share']:.3f} ({SHARES[w][0]}), "
              f"overhead {tr['overhead_frac']:+.3f}")
    if args.compare:
        other = json.loads(args.compare.read_text())
        print(f"\ncompared with {args.compare}:")
        for w, wsum in summary["workloads"].items():
            for name, m in wsum["metrics"].items():
                old = other["workloads"].get(w, {}).get("metrics", {}).get(name)
                if old is None:
                    continue
                worse = worse_by(m["median"], old["median"], m["better"])
                within = worse <= m["bound"]
                ok = ok and within
                print(f"  {w:<10} {name:<16} worse by {worse:+.4f} "
                      f"(bound {m['bound']}){'' if within else '  EXCEEDED'}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        args.out.with_suffix(".md").write_text(markdown(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
