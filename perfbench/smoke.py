"""Smoke test of the benchmark on a held-out seed.

Runs every workload once at a tiny nnz, untraced and traced, through
``run.py``, and checks that

* each run is correct and has no failed attempt,
* the last line carries every catalogued metric with its unit,
* the result file carries the environment stamp and sample counts,
* ``BENCHMARK.json`` and ``metrics.json`` name the same metrics with
  the same units and directions.

Usage (from the repository root)::

    python3 perfbench/smoke.py [--seed 1] [--nnz 3000]

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STAMP_KEYS = ("git_sha", "nproc", "python", "numpy", "backend", "workers",
              "kernel", "target_nnz", "nnz", "shape", "iterations_per_run")


def catalogue_problems(bench: dict, catalogue: dict) -> list[str]:
    out = []
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: m for m in bench[section]}
        known = catalogue[section]
        if set(listed) != set(known):
            out.append(f"{section}: BENCHMARK.json and metrics.json differ "
                       f"on {sorted(set(listed) ^ set(known))}")
        for name in set(listed) & set(known):
            for key in ("unit", "better"):
                if listed[name][key] != known[name][key]:
                    out.append(f"{name}: {key} {listed[name][key]!r} in "
                               f"BENCHMARK.json, {known[name][key]!r} in "
                               f"metrics.json")
    return out


def run_problems(workload: str, trace: int, seed: int, nnz: int,
                 catalogue: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--nnz", str(nnz)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=HERE.parent)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    out = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        out.append(f"{where}: last line has keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        out.append(f"{where}: correct={last['correct']} "
                   f"attempted={last['attempted']} failed={last['failed']}"
                   f"\n{proc.stderr[-2000:]}")
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    got = last["metrics"]
    if set(got) != set(wanted):
        out.append(f"{where}: metrics differ from the catalogue on "
                   f"{sorted(set(got) ^ set(wanted))}")
    for name in set(got) & set(wanted):
        if got[name]["unit"] != wanted[name]["unit"]:
            out.append(f"{where}: {name} has unit {got[name]['unit']!r}")
        if not isinstance(got[name]["value"], (int, float)):
            out.append(f"{where}: {name} is not a number")
    result = HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    report = json.loads(result.read_text())
    missing = [k for k in STAMP_KEYS if k not in report["stamp"]]
    if missing:
        out.append(f"{where}: stamp lacks {missing}")
    if not report.get("samples"):
        out.append(f"{where}: result file has no sample counts")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="benchmark smoke test")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--nnz", type=int, default=3000)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "metrics.json").read_text())
    problems = catalogue_problems(bench, catalogue)
    for wl in bench["workloads"]:
        for trace in (0, 1):
            found = run_problems(wl["name"], trace, args.seed, args.nnz,
                                 catalogue)
            print(f"{wl['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
