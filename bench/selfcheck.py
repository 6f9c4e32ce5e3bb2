"""Reduced-size self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json at the "small" size, untraced and
traced, and asserts that the last output line is the result object with
exactly the contract's keys, that the run is correct, and that it emits every
end-to-end (untraced) or per-layer (traced) metric by name with its unit and a
finite value.  Then copies the harness alone into a scratch directory and
asserts that it refuses to run there.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *cmd], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["bench/run.py", "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--size", "small"],
               ROOT)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}\n{proc.stderr}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        errors.append(f"{where}: missing {sorted(set(names) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(names))}")
    for m in want:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {entry['unit']!r} "
                          f"!= {m['unit']!r}")
        if not (isinstance(entry["value"], (int, float))
                and math.isfinite(entry["value"])):
            errors.append(f"{where}: {m['name']} value {entry['value']!r}")
    return errors


def check_refuses_without_program() -> list[str]:
    scratch = BENCH_DIR / "runs" / "selfcheck-bare"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "bench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", scratch)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy2(path, scratch / "bench")
    try:
        proc = run(["bench/run.py", "--workload", "picard", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, "
                f"stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            errs = check_run(spec, w["name"], trace)
            print(f"{w['name']} trace {trace}: {'ok' if not errs else 'FAIL'}",
                  flush=True)
            errors += errs
    errs = check_refuses_without_program()
    print(f"refuses without src/rchlab: {'ok' if not errs else 'FAIL'}")
    errors += errs
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
