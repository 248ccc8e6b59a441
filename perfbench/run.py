"""Layered CP-ALS benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coo-delicious3d --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up-only trials, then timed ``decompose`` runs until ``--seconds``
is used up (at least three, compared with each other bit for bit).
``--trace 1`` makes one untraced and one traced run and reports the
per-layer metrics.  Every run is checked against ``local_cp_als`` from
the same initial factors, against the previous runs' factor checksums
and exact counters, and against the Table 4 shuffle-round counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of the invocation — environment stamp, every sample, the per-iteration
exact counters — goes to ``perfbench/results/``; a traced run also
writes its spans there.  ``perfbench/metrics.json`` catalogues every
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_TRIALS = 3
MIN_RUNS = 3
WORKLOAD_NAMES = ("coo-delicious3d", "qcoo-flickr", "bigtensor-delicious3d")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nnz", type=int, default=None,
                   help="override the workload's target nnz (smoke test)")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(wl, inputs, target_nnz: int) -> dict:
    import numpy as np
    from workloads import KERNEL, NODES, PARTITIONS, RANK, WORKERS
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": wl.backend,
        "workers": WORKERS if wl.backend != "serial" else 1,
        "kernel": KERNEL,
        "algorithm": wl.algorithm,
        "dataset": wl.dataset,
        "rank": RANK, "nodes": NODES, "partitions": PARTITIONS,
        "target_nnz": target_nnz,
        "nnz": int(inputs.tensor.nnz),
        "shape": list(inputs.tensor.shape),
        "iterations_per_run": wl.iterations,
    }


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_runs(records, ref) -> list[list[str]]:
    """Breaches of every run: its own Table 4 guard, the reference
    comparison, and bit-identity with the first run (factor checksum
    and every exact counter)."""
    from workloads import reference_breaches
    out = []
    first = records[0] if records else None
    for rec in records:
        breaches = list(rec.errors) + reference_breaches(rec, ref)
        if rec.checksum != first.checksum:
            breaches.append(f"factor checksum {rec.checksum[:16]} differs "
                            f"from the first run's {first.checksum[:16]}")
        if rec.counters != first.counters:
            breaches.append("exact counters differ from the first run's")
        out.append(breaches)
    return out


def attempt(fn, *args, **kwargs):
    """Run one measured run; a raised exception is a failed attempt."""
    try:
        return fn(*args, **kwargs), None
    except Exception:  # a failing run is counted, the sweep goes on
        return None, traceback.format_exc()


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
def untraced(wl, inputs, seconds: float) -> dict:
    from workloads import measured_run, setup_trial
    started = time.perf_counter()
    setups = [setup_trial(wl, inputs) for _ in range(SETUP_TRIALS)]
    records, errors, longest = [], [], 0.0
    while len(records) + len(errors) < MIN_RUNS or \
            time.perf_counter() - started + longest <= seconds:
        t0 = time.perf_counter()
        rec, err = attempt(measured_run, wl, inputs)
        longest = max(longest, time.perf_counter() - t0)
        if err:
            errors.append(err)
        else:
            records.append(rec)
    return {"setups": setups, "records": records, "errors": errors,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def e2e_metrics(run: dict, passing) -> tuple[dict, dict]:
    steady = [s for r in passing for s in r.iteration_s[1:]]
    setups = run["setups"] + [r.setup_s for r in passing]
    metrics = {
        "iter_s": (statistics.median(steady), "s"),
        "first_iter_s": (statistics.median(
            r.iteration_s[0] for r in passing), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (statistics.median(r.total_s for r in passing), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "model_iter_s": (statistics.median(
            r.model_iter_s for r in passing), "s"),
    }
    samples = {"iter_s": len(steady), "first_iter_s": len(passing),
               "setup_s": len(setups), "total_s": len(passing),
               "runs": len(passing)}
    return metrics, samples


def per_iteration(records_counters, key: str) -> float:
    return sum(c[key] for c in records_counters) / len(records_counters)


def layer_metrics(inputs, base, traced, tracer, floor_s) -> dict:
    import spans
    steady = slice(1, None)
    c = traced.counters[steady]
    phases = traced.phase_seconds
    out = spans.layer_metrics(tracer, traced, steady)
    out.update({
        "datasets.gen_s": inputs.gen_s,
        "engine.shuffle.rounds_per_iter": per_iteration(c, "rounds"),
        "engine.shuffle.records_written_per_iter":
            per_iteration(c, "records_written"),
        "engine.shuffle.bytes_written_per_iter":
            per_iteration(c, "bytes_written"),
        "engine.shuffle.remote_bytes_per_iter":
            per_iteration(c, "remote_bytes"),
        "engine.shuffle.local_bytes_per_iter":
            per_iteration(c, "local_bytes"),
        "engine.shuffle.remote_records_per_iter":
            per_iteration(c, "remote_records"),
        "engine.shuffle.local_records_per_iter":
            per_iteration(c, "local_records"),
        "engine.memory.spill_bytes":
            float(sum(x["spill_bytes"] for x in traced.counters)),
        "engine.storage.bytes_written_per_iter":
            per_iteration(c, "cache_bytes_written"),
        "engine.hadoop.hdfs_bytes_per_iter":
            per_iteration(c, "hdfs_bytes_read")
            + per_iteration(c, "hdfs_bytes_written"),
        "engine.scheduler.jobs_per_iter": per_iteration(c, "jobs"),
        "engine.scheduler.stages_per_iter": per_iteration(c, "stages"),
        "engine.scheduler.tasks_per_iter": per_iteration(c, "tasks"),
        "kernels.batches_per_iter": per_iteration(c, "kernel_batches"),
        "kernels.batch_records_per_iter":
            per_iteration(c, "kernel_batch_records"),
        "baselines.local_als.iter_s": floor_s,
        "engine_overhead_x":
            statistics.median(base.iteration_s[1:]) / floor_s,
        "trace.overhead": traced.total_s / base.total_s - 1.0,
    })
    # modes 1-3 exist on every workload; "last" is mode N (mode 3 again
    # on a 3rd-order tensor), so no metric is structurally zero
    order = inputs.tensor.order
    for mode, tag in ((1, "1"), (2, "2"), (3, "3"), (order, "last")):
        label = f"MTTKRP-{mode}"
        out[f"core.cp_als.mttkrp-{tag}_s"] = sum(
            p[label] for p in phases[steady]) / len(c)
        out[f"core.cp_als.iter1.mttkrp-{tag}_s"] = phases[0][label]
    out["core.cp_als.fit_s"] = sum(p["fit"] for p in phases[steady]) / len(c)
    out["core.cp_als.iter1.fit_s"] = phases[0]["fit"]
    return out


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    import workloads
    catalogue = json.loads((HERE / "metrics.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    target_nnz = args.nnz or wl.target_nnz
    inputs = workloads.make_inputs(wl, args.seed, target_nnz)
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {"run_id": run_id, "stamp": stamp(wl, inputs, target_nnz)}
    RESULTS.mkdir(exist_ok=True)

    if args.trace:
        import spans
        base, err_base = attempt(workloads.measured_run, wl, inputs)
        tracer = spans.Tracer(run_id)
        tracer.install()
        try:
            traced, err_traced = attempt(workloads.measured_run, wl,
                                         inputs, tracer)
        finally:
            tracer.uninstall()
        records = [r for r in (base, traced) if r is not None]
        errors = [e for e in (err_base, err_traced) if e]
        tracer.dump(RESULTS / f"{run_id}.spans.jsonl")
    else:
        run = untraced(wl, inputs, args.seconds)
        records, errors = run["records"], run["errors"]

    ref = workloads.reference(wl, inputs)
    floor_s = statistics.median(it.seconds for it in ref.iterations[1:])
    breaches = check_runs(records, ref)
    passing = [r for r, b in zip(records, breaches) if not b]
    attempted = len(records) + len(errors)
    failed = attempted - len(passing)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        wanted = catalogue["per_layer"]
        if failed == 0:
            values = layer_metrics(inputs, base, traced, tracer, floor_s)
            metrics = {name: (values[name], wanted[name]["unit"])
                       for name in wanted}
        report["samples"] = {"steady_iterations": wl.iterations - 1,
                             "runs": 2}
    else:
        if passing:
            metrics, samples = e2e_metrics(run, passing)
            report["samples"] = samples
        report["setup_trials_s"] = run["setups"]
    report.update({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors, "breaches": breaches,
        "runs": [{"setup_s": r.setup_s, "total_s": r.total_s,
                  "iteration_s": r.iteration_s,
                  "model_iter_s": r.model_iter_s, "checksum": r.checksum,
                  "counters": r.counters, "phase_seconds": r.phase_seconds}
                 for r in records],
        "floor_iteration_s": [it.seconds for it in ref.iterations],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    (RESULTS / f"{run_id}.json").write_text(json.dumps(report, indent=1))

    for err in errors:
        print(err, file=sys.stderr)
    for i, b in enumerate(breaches):
        for line in b:
            print(f"run {i + 1}: {line}", file=sys.stderr)
    s = report["stamp"]
    print(f"# {wl.name} seed={args.seed} nnz={s['nnz']} shape={s['shape']}"
          f" backend={s['backend']} workers={s['workers']} "
          f"samples={report.get('samples')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit}")
    print(f"{'error_rate':44s} {failed / attempted:16.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.nnz:
            cmd += ["--nnz", str(args.nnz)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
