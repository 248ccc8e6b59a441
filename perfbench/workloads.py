"""The benchmark's workloads and one measured CP-ALS run.

A run is one closed-loop ``decompose`` call: the benchmark builds the
engine context, hands the driver the generated tensor and initial
factors, and waits for the collected factors.  Iteration boundaries are
observed from outside the program, by wrapping two methods on the run's
own engine objects:

* ``ctx.faults.on_iteration(it)`` — the driver's iteration-start report;
* ``ctx.drop_shuffle_outputs()`` — the driver's end-of-iteration
  shuffle cleanup (called once per iteration because ``gc_shuffles`` is
  left on).

At each boundary the probe snapshots the metrics collector's cumulative
counters, so every exact counter can be reported per iteration.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.experiments import DRIVERS, execution_mode
from repro.baselines.local_als import local_cp_als
from repro.datasets import get_spec, make_dataset
from repro.engine import Context, EngineConf
from repro.engine.costmodel import COMET, CostModel, RunStats
from repro.tensor.init import initial_factors

#: the paper's CP rank R
RANK = 2
#: simulated cluster the dataflow runs on (and the model prices at)
NODES = 8
PARTITIONS = 32
#: worker threads of the pooled backend (the benchmark is sized for 2 CPUs)
WORKERS = 2
KERNEL = "vectorized"

#: max |factor entry| and |fit| difference from ``local_cp_als``;
#: factors are column-normalised, so entries are at most 1 and a
#: reordered float64 sum moves them by ~1e-13
FACTOR_TOL = 1e-9
FIT_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One named CP-ALS workload."""

    name: str
    #: key of :data:`repro.analysis.experiments.DRIVERS`
    algorithm: str
    dataset: str
    target_nnz: int
    backend: str
    #: CP-ALS iterations per run (``tol=0``, so always all of them)
    iterations: int
    #: Table 4: shuffle rounds of one steady iteration
    steady_rounds: int
    #: rounds iteration 1 adds on top (QCOO's N-1 queue-init joins)
    first_extra_rounds: int
    why: str


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("coo-delicious3d", "cstf-coo", "delicious3d", 100_000,
             "serial", iterations=2, steady_rounds=9,
             first_extra_rounds=0,
             why="CSTF-COO join dataflow on the 3rd-order delicious3d "
                 "analogue: 3 tensor-sized shuffles per MTTKRP, cache "
                 "only read"),
    Workload("qcoo-flickr", "cstf-qcoo", "flickr", 50_000,
             "threads", iterations=2, steady_rounds=8,
             first_extra_rounds=3,
             why="CSTF-QCOO on the 4th-order flickr analogue, threads "
                 "backend: 2 shuffles per MTTKRP, re-persists its "
                 "tensor-sized queue every MTTKRP"),
    Workload("bigtensor-delicious3d", "bigtensor", "delicious3d", 50_000,
             "serial", iterations=3, steady_rounds=13,
             first_extra_rounds=0,
             why="BIGtensor hadoop-mode baseline: 4 shuffles per MTTKRP, "
                 "no cache, no kernel fold; the control for kernel and "
                 "cache changes"),
)}


@dataclass
class Inputs:
    """Generated inputs of one workload seed."""

    tensor: object
    factors: list
    gen_s: float


def make_inputs(wl: Workload, seed: int,
                target_nnz: int | None = None) -> Inputs:
    """Tensor and initial factors of ``wl`` for ``seed``."""
    t0 = time.perf_counter()
    tensor = make_dataset(wl.dataset, target_nnz or wl.target_nnz, seed)
    factors = initial_factors(tensor, RANK, "random", seed)
    return Inputs(tensor, factors, time.perf_counter() - t0)


def make_context(wl: Workload) -> Context:
    """Context of ``wl``; every knob an environment variable could
    change is pinned."""
    conf = EngineConf(backend=wl.backend, backend_workers=WORKERS,
                      kernel=KERNEL, sampler="exact", integrity=False,
                      clock="monotonic", speculation=False)
    return Context(num_nodes=NODES, default_parallelism=PARTITIONS,
                   execution_mode=execution_mode(wl.algorithm),
                   conf=conf)


# ----------------------------------------------------------------------
# iteration probe
# ----------------------------------------------------------------------
class SetupDone(Exception):
    """Raised at iteration 1's start to end a set-up-only trial."""


@dataclass
class Snapshot:
    """Cumulative counters at one iteration boundary."""

    t: float
    jobs: int
    counters: dict
    phase_seconds: dict
    tracer: dict


def _cumulative(metrics) -> dict:
    return {
        "hdfs_bytes_read": metrics.hadoop.hdfs_bytes_read,
        "hdfs_bytes_written": metrics.hadoop.hdfs_bytes_written,
        "hadoop_jobs": metrics.hadoop.jobs_launched,
        "cache_bytes_written": sum(metrics.cache_bytes_written.values()),
        "broadcast_bytes": metrics.broadcast_bytes,
        "spill_bytes": metrics.memory.spill_bytes,
        "kernel_batches": metrics.kernel_batches,
        "kernel_batch_records": metrics.kernel_batch_records,
    }


class IterationProbe:
    """Records a :class:`Snapshot` at each iteration's start and end."""

    def __init__(self, ctx: Context, tracer=None,
                 stop_at_first_iteration: bool = False):
        self.ctx = ctx
        self.tracer = tracer
        self.starts: list[Snapshot] = []
        self.ends: list[Snapshot] = []
        on_iteration = ctx.faults.on_iteration
        drop = ctx.drop_shuffle_outputs

        def start(iteration: int) -> None:
            self.starts.append(self._snapshot())
            if stop_at_first_iteration:
                raise SetupDone
            on_iteration(iteration)

        def end() -> None:
            drop()
            self.ends.append(self._snapshot())

        ctx.faults.on_iteration = start
        ctx.drop_shuffle_outputs = end

    def _snapshot(self) -> Snapshot:
        m = self.ctx.metrics
        return Snapshot(
            t=time.perf_counter(), jobs=len(m.jobs),
            counters=_cumulative(m), phase_seconds=dict(m.phase_seconds),
            tracer=self.tracer.counts() if self.tracer else {})


def iteration_counters(metrics, start: Snapshot, end: Snapshot) -> dict:
    """Exact counters of the iteration between two snapshots."""
    jobs = metrics.jobs[start.jobs:end.jobs]
    out = {k: end.counters[k] - start.counters[k] for k in start.counters}
    rounds_by_phase: dict[str, int] = {}
    written = [0, 0]
    read = [0, 0, 0, 0]
    stages = tasks = records = 0
    per_node: dict[int, int] = {}
    for job in jobs:
        rounds_by_phase[job.phase] = \
            rounds_by_phase.get(job.phase, 0) + job.shuffle_rounds
        for st in job.stages:
            stages += 1
            tasks += st.num_tasks
            records += st.output_records
            written[0] += st.shuffle_write.records_written
            written[1] += st.shuffle_write.bytes_written
            r = st.shuffle_read
            read[0] += r.remote_bytes
            read[1] += r.local_bytes
            read[2] += r.remote_records
            read[3] += r.local_records
            for node, n in st.records_per_node.items():
                per_node[node] = per_node.get(node, 0) + n
    out.update(
        rounds=sum(rounds_by_phase.values()),
        rounds_by_phase=rounds_by_phase,
        records_written=written[0], bytes_written=written[1],
        remote_bytes=read[0], local_bytes=read[1],
        remote_records=read[2], local_records=read[3],
        jobs=len(jobs), stages=stages, tasks=tasks,
        records_processed=records,
        # max-node / mean-node records, as RunStats.from_metrics
        node_skew_ppm=(round(1e6 * max(per_node.values())
                             / (sum(per_node.values()) / len(per_node)))
                       if per_node and sum(per_node.values()) else 10**6))
    return out


def model_iteration_s(wl: Workload, tensor, driver, c: dict) -> float:
    """One iteration's counters, rescaled to the published nnz and
    priced by ``CostModel(COMET)`` on ``NODES`` nodes."""
    stats = RunStats(
        records_processed=c["records_processed"],
        shuffle_total_bytes=c["remote_bytes"] + c["local_bytes"],
        shuffle_records=c["records_written"],
        shuffle_rounds=c["rounds"],
        flops=driver.flops_per_iteration(tensor, RANK),
        num_jobs=c["jobs"], hadoop_jobs=c["hadoop_jobs"],
        hdfs_read_bytes=c["hdfs_bytes_read"],
        hdfs_write_bytes=c["hdfs_bytes_written"],
        cache_bytes=c["cache_bytes_written"],
        broadcast_bytes=c["broadcast_bytes"],
        spill_bytes=c["spill_bytes"],
        node_skew=c["node_skew_ppm"] / 1e6)
    stats = stats.scaled(get_spec(wl.dataset).nnz / tensor.nnz)
    return CostModel(COMET).estimate(
        stats, NODES, execution_mode(wl.algorithm)).total_s


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """Outcome of one measured ``decompose`` run."""

    setup_s: float
    total_s: float
    iteration_s: list[float]
    #: exact counters per iteration (iteration 1 first)
    counters: list[dict]
    phase_seconds: list[dict]
    model_iter_s: float
    checksum: str
    factors: list = field(repr=False)
    lambdas: np.ndarray = field(repr=False)
    fit: float
    #: (start, end) perf_counter window of each iteration
    windows: list[tuple[float, float]]
    tracer_counts: list[dict]
    errors: list[str]


def checksum(factors, lambdas, fits) -> str:
    """SHA-256 over the exact bits of a decomposition."""
    h = hashlib.sha256()
    for f in factors:
        h.update(np.ascontiguousarray(f, dtype=np.float64).tobytes())
    h.update(np.asarray(lambdas, dtype=np.float64).tobytes())
    h.update(np.asarray(fits, dtype=np.float64).tobytes())
    return h.hexdigest()


def _decompose(wl: Workload, ctx: Context, inputs: Inputs):
    """The closed-loop call every run makes; returns the driver and
    its result."""
    driver = DRIVERS[wl.algorithm](ctx, num_partitions=PARTITIONS)
    return driver, driver.decompose(
        inputs.tensor, RANK, max_iterations=wl.iterations, tol=0.0,
        initial_factors=inputs.factors, compute_fit=True)


def setup_trial(wl: Workload, inputs: Inputs) -> float:
    """Wall time from context construction to iteration 1's start, with
    the run stopped there."""
    gc.collect()
    t0 = time.perf_counter()
    ctx = make_context(wl)
    try:
        probe = IterationProbe(ctx, stop_at_first_iteration=True)
        try:
            _decompose(wl, ctx, inputs)
        except SetupDone:
            pass
        return probe.starts[0].t - t0
    finally:
        ctx.stop()


def measured_run(wl: Workload, inputs: Inputs, tracer=None) -> RunRecord:
    """One timed ``decompose`` call: context construction through the
    collected factors."""
    gc.collect()
    t0 = time.perf_counter()
    ctx = make_context(wl)
    try:
        probe = IterationProbe(ctx, tracer=tracer)
        driver, result = _decompose(wl, ctx, inputs)
        total_s = time.perf_counter() - t0
        pairs = list(zip(probe.starts, probe.ends))
        counters = [iteration_counters(ctx.metrics, s, e) for s, e in pairs]
        phases = [{k: e.phase_seconds.get(k, 0.0)
                   - s.phase_seconds.get(k, 0.0) for k in e.phase_seconds}
                  for s, e in pairs]
        return RunRecord(
            setup_s=probe.starts[0].t - t0, total_s=total_s,
            iteration_s=[it.seconds for it in result.iterations],
            counters=counters, phase_seconds=phases,
            model_iter_s=model_iteration_s(wl, inputs.tensor, driver,
                                           counters[-1]),
            checksum=checksum(result.factors, result.lambdas,
                              result.fit_history),
            factors=result.factors, lambdas=result.lambdas,
            fit=result.fit_history[-1],
            windows=[(s.t, e.t) for s, e in pairs],
            tracer_counts=[{k: e.tracer[k] - s.tracer[k] for k in e.tracer}
                           for s, e in pairs],
            errors=table4_breaches(wl, driver, inputs.tensor.order,
                                   counters))
    finally:
        ctx.stop()


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def reference(wl: Workload, inputs: Inputs):
    """``local_cp_als`` from the same initial factors: the correctness
    reference and the numpy floor."""
    return local_cp_als(inputs.tensor, RANK, max_iterations=wl.iterations,
                        tol=0.0, initial_factors=inputs.factors,
                        compute_fit=True)


def reference_breaches(record: RunRecord, ref) -> list[str]:
    """Differences from the ``local_cp_als`` reference beyond tolerance."""
    out = []
    diff = max(float(np.max(np.abs(a - b)))
               for a, b in zip(record.factors, ref.factors))
    if not diff <= FACTOR_TOL:
        out.append(f"factors differ from local_cp_als by {diff:.3e}")
    fit_diff = abs(record.fit - ref.fit_history[-1])
    if not fit_diff <= FIT_TOL:
        out.append(f"fit differs from local_cp_als by {fit_diff:.3e}")
    lam = float(np.max(np.abs(record.lambdas - ref.lambdas)
                       / np.maximum(np.abs(ref.lambdas), 1.0)))
    if not lam <= FACTOR_TOL:
        out.append(f"lambdas differ from local_cp_als by {lam:.3e}")
    return out


def table4_breaches(wl: Workload, driver, order: int,
                    counters: list[dict]) -> list[str]:
    """Table 4: every steady ``MTTKRP-n`` phase runs exactly
    ``shuffles_per_mttkrp`` rounds, the iteration totals match, and
    every steady iteration repeats the same exact counters."""
    out = []
    per_mttkrp = driver.shuffles_per_mttkrp(order)
    expected_first = wl.steady_rounds + wl.first_extra_rounds
    if counters[0]["rounds"] != expected_first:
        out.append(f"iteration 1 ran {counters[0]['rounds']} shuffle "
                   f"rounds, expected {expected_first}")
    for it, c in enumerate(counters[1:], start=2):
        if c != counters[1]:
            out.append(f"iteration {it}'s exact counters differ from "
                       f"iteration 2's")
        if c["rounds"] != wl.steady_rounds:
            out.append(f"iteration {it} ran {c['rounds']} shuffle rounds,"
                       f" expected {wl.steady_rounds}")
        for mode in range(1, order + 1):
            got = c["rounds_by_phase"].get(f"MTTKRP-{mode}", 0)
            if got != per_mttkrp:
                out.append(f"iteration {it} MTTKRP-{mode} ran {got} "
                           f"shuffle rounds, expected {per_mttkrp}")
    return out
