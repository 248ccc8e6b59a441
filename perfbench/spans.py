"""Outside-in layer tracing for the traced run.

:class:`Tracer` wraps public functions of each engine layer — on their
class, or at the module name their caller looks up — for the duration
of one run, then puts the originals back.  Nothing inside ``src/`` is
edited.

* Spans record ``(id, parent, name, thread id, start, end)`` and the
  run id; parents are tracked per thread, and a task thunk running on a
  pool thread is parented to the ``ExecutorBackend.run`` span that
  submitted it.  Spans stay in memory until :meth:`Tracer.dump`.
* Per-record hot functions (``get_partition``, ``stable_hash``,
  ``estimate_record_size``, ``estimate_size``) are only counted: timing
  every call would distort exactly the layers being ranked.
* Cyclic garbage collections are timed through ``gc.callbacks``.

A layer's self time is its spans' duration minus the direct child spans
on the same thread.  A child on another thread (a pool task under the
driver's ``ExecutorBackend.run``) is not subtracted: the parent's thread
was waiting for it.  Self times add up over threads, so on the threads
backend a layer's seconds per iteration can exceed the iteration's wall
time; span durations include time spent waiting for the interpreter
lock and in garbage collection.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from typing import Callable

import repro.engine.backends as backends
import repro.engine.broadcast as broadcast
import repro.engine.context as context
import repro.engine.mapreduce as mapreduce
import repro.engine.memory as memory
import repro.engine.partitioner as partitioner
import repro.engine.scheduler as scheduler
import repro.engine.serialization as serialization
import repro.engine.shuffle as shuffle
import repro.engine.storage as storage
import repro.engine.taskscheduler as taskscheduler
import repro.kernels.vectorized as vectorized
from repro.core.gram import GramCache
from repro.engine.blocks import KeyedRowBlock
from repro.tensor.coo import COOTensor

#: (owner, attribute, span name) of every spanned function
SPANNED = [
    (COOTensor, "partition_blocks", "tensor.partition"),
    (shuffle.ShuffleManager, "write", "engine.shuffle.write"),
    (shuffle.ShuffleManager, "read", "engine.shuffle.read"),
    (storage.CacheManager, "put", "engine.storage"),
    (context.Context, "checkpoint", "engine.context"),
    (context.Context, "drop_shuffle_outputs", "engine.context"),
    (scheduler.DAGScheduler, "run_job", "engine.scheduler.run_job"),
    (taskscheduler.TaskScheduler, "run_task_set",
     "engine.taskscheduler.run_task_set"),
    (vectorized, "combine_rows_batch", "kernels.fold"),
    (vectorized, "fold_rows", "kernels.fold"),
    (vectorized, "segmented_left_fold", "kernels.fold"),
    (GramCache, "refresh", "core.gram"),
    (GramCache, "refresh_all", "core.gram"),
    (GramCache, "pinv_except", "core.gram"),
    (memory.SpillableAppendOnlyMap, "merged_items", "engine.memory.combine"),
]

#: (owner, attribute, counter) of every counted per-record function
COUNTED = [
    (shuffle, "estimate_record_size", "size_calls"),
    (memory, "estimate_record_size", "size_calls"),
    (scheduler, "estimate_record_size", "size_calls"),
    (mapreduce, "estimate_record_size", "size_calls"),
    # Context.checkpoint imports it from here at call time
    (serialization, "estimate_record_size", "size_calls"),
    (storage, "estimate_size", "size_calls"),
    (broadcast, "estimate_size", "size_calls"),
    (partitioner.HashPartitioner, "get_partition", "partition_record_calls"),
    (partitioner.RangePartitioner, "get_partition",
     "partition_record_calls"),
    (partitioner.HashPartitioner, "partition_int_keys",
     "partition_vector_calls"),
    (partitioner.RangePartitioner, "partition_int_keys",
     "partition_vector_calls"),
    (partitioner.HashPartitioner, "partition_tuple_columns",
     "partition_vector_calls"),
    (partitioner, "stable_hash", "hash_calls"),
    (memory.SpillableAppendOnlyMap, "insert", "combine_in"),
    (memory.SpillableAppendOnlyMap, "insert_combiner", "combine_in"),
]

COUNTERS = ("size_calls", "partition_record_calls", "partition_vector_calls",
            "hash_calls", "combine_in", "combine_out", "cache_gets",
            "cache_hits")


def _records(items: list) -> int:
    return sum(len(r) if type(r) is KeyedRowBlock else 1 for r in items)


class _Count:
    """A counter cheap enough for per-record calls; ``next`` on an
    ``itertools.count`` is atomic, so pool threads need no lock."""

    def __init__(self) -> None:
        self._it = itertools.count()
        self._added = 0
        self._reads = 0
        self._lock = threading.Lock()

    def hit(self) -> None:
        next(self._it)

    def add(self, n: int) -> None:
        with self._lock:
            self._added += n

    def value(self) -> int:
        # every read consumes one step of the iterator
        seen = next(self._it) - self._reads
        self._reads += 1
        return seen + self._added


class Tracer:
    """Spans, counters and GC pauses of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (span id, parent id, name, thread id, start, end)
        self.spans: list[tuple] = []
        #: (start, end, generation) of each cyclic collection
        self.gc_events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counts = {name: _Count() for name in COUNTERS}
        self._patches: list[tuple] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Current value of every counter."""
        return {name: c.value() for name, c in self._counts.items()}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn: Callable,
                 parent: int | None = None) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            up = stack[-1] if stack else (parent or 0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, up, name, ident(), t0, t1))
        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        hit = self._counts[counter].hit

        def wrapper(*args, **kwargs):
            hit()
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function and start timing collections."""
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner,
                                                                 attr)))
        for owner, attr, counter in COUNTED:
            self._patch(owner, attr, self._counted(counter,
                                                   getattr(owner, attr)))
        self._patch_combine()
        self._patch_cache_get()
        for cls in (backends.SerialBackend, backends.ThreadPoolBackend):
            self._patch(cls, "run", self._backend_run(cls.run))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_combine(self) -> None:
        """``insert_batch`` is spanned like ``merged_items`` and also
        counts the records it combines; ``merged_items`` counts what
        comes out."""
        cls = memory.SpillableAppendOnlyMap
        combine_in = self._counts["combine_in"]
        combine_out = self._counts["combine_out"]
        insert_batch = cls.insert_batch
        merged_items = cls.merged_items  # already spanned

        def counted_batch(self_, records):
            records = list(records)
            combine_in.add(_records(records))
            return insert_batch(self_, records)

        def counted_merge(self_):
            items = merged_items(self_)
            combine_out.add(_records(items))
            return items

        self._patch(cls, "insert_batch",
                    self._spanned("engine.memory.combine", counted_batch))
        self._patch(cls, "merged_items", counted_merge)

    def _patch_cache_get(self) -> None:
        get = storage.CacheManager.get
        gets, hits = self._counts["cache_gets"], self._counts["cache_hits"]

        def counted_get(self_, rdd_id, partition):
            value = get(self_, rdd_id, partition)
            gets.hit()
            if value is not None:
                hits.hit()
            return value

        self._patch(storage.CacheManager, "get",
                    self._spanned("engine.storage", counted_get))

    def _backend_run(self, run: Callable) -> Callable:
        tracer = self

        def traced_run(self_, thunks, cancel=None):
            def spanned_run():
                # the run span is on top of this thread's stack now
                parent = tracer._stack()[-1]
                tasks = [tracer._spanned("engine.backends.task", t, parent)
                         for t in thunks]
                return run(self_, tasks, cancel)
            return tracer._spanned("engine.backends.run", spanned_run)()
        return traced_run

    def _on_gc(self, phase: str, info: dict) -> None:
        # a collection holds the interpreter lock from start to stop, so
        # one start stamp suffices across threads
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append((self._gc_start, time.perf_counter(),
                                   info["generation"]))

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span and collection as JSON lines."""
        with open(path, "w") as fh:
            for sid, parent, name, tid, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent,
                    "name": name, "thread": tid, "start": t0,
                    "end": t1}) + "\n")
            for t0, t1, gen in self.gc_events:
                fh.write(json.dumps({
                    "run": self.run_id, "name": "python.gc",
                    "generation": gen, "start": t0, "end": t1}) + "\n")


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------
def _in(windows, t: float) -> bool:
    return any(lo <= t < hi for lo, hi in windows)


def self_times(spans: list[tuple], windows) -> tuple[dict, dict]:
    """Per span name: summed self time and summed duration of the spans
    that start inside ``windows``."""
    same_thread_children: dict[int, float] = {}
    thread_of = {s[0]: s[3] for s in spans}
    for sid, parent, _name, tid, t0, t1 in spans:
        if parent and thread_of.get(parent) == tid:
            same_thread_children[parent] = \
                same_thread_children.get(parent, 0.0) + (t1 - t0)
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    for sid, _parent, name, _tid, t0, t1 in spans:
        if not _in(windows, t0):
            continue
        dur = t1 - t0
        wall_s[name] = wall_s.get(name, 0.0) + dur
        self_s[name] = (self_s.get(name, 0.0) + dur
                        - same_thread_children.get(sid, 0.0))
    return self_s, wall_s


def layer_metrics(tracer: Tracer, record, steady: slice) -> dict:
    """Per-layer metrics of a traced :class:`~workloads.RunRecord`;
    ``steady`` selects the steady iterations."""
    windows = record.windows[steady]
    n = len(windows)
    self_s, wall_s = self_times(tracer.spans, windows)
    counts = record.tracer_counts[steady]

    def per_iter(key: str) -> float:
        return sum(c[key] for c in counts) / n

    gcs = [e for e in tracer.gc_events if _in(windows, e[0])]
    run_wall = wall_s.get("engine.backends.run", 0.0)
    out = {
        "tensor.partition_s": sum(s[5] - s[4] for s in tracer.spans
                                  if s[2] == "tensor.partition"),
        "engine.shuffle.write_s": self_s.get("engine.shuffle.write", 0.0) / n,
        "engine.shuffle.read_s": self_s.get("engine.shuffle.read", 0.0) / n,
        "engine.memory.combine_s":
            self_s.get("engine.memory.combine", 0.0) / n,
        "engine.memory.combine_ratio":
            per_iter("combine_out") / max(per_iter("combine_in"), 1),
        "engine.serialization.size_calls_per_iter": per_iter("size_calls"),
        "engine.partitioner.record_calls_per_iter":
            per_iter("partition_record_calls"),
        "engine.partitioner.vector_calls_per_iter":
            per_iter("partition_vector_calls"),
        "engine.partitioner.hash_calls_per_iter": per_iter("hash_calls"),
        "engine.storage.self_s": self_s.get("engine.storage", 0.0) / n,
        "engine.storage.hit_ratio":
            per_iter("cache_hits") / max(per_iter("cache_gets"), 1),
        "engine.context.self_s": self_s.get("engine.context", 0.0) / n,
        "engine.scheduler.self_s":
            self_s.get("engine.scheduler.run_job", 0.0) / n,
        "engine.taskscheduler.self_s":
            (self_s.get("engine.taskscheduler.run_task_set", 0.0)
             + self_s.get("engine.backends.task", 0.0)) / n,
        "engine.backends.run_s": self_s.get("engine.backends.run", 0.0) / n,
        "engine.backends.concurrency":
            wall_s.get("engine.backends.task", 0.0) / run_wall
            if run_wall else 0.0,
        "kernels.fold_s": self_s.get("kernels.fold", 0.0) / n,
        "core.gram.s": self_s.get("core.gram", 0.0) / n,
        "python.gc_s": sum(e[1] - e[0] for e in gcs) / n,
        "python.gc_collections": len(gcs) / n,
        "python.gc_gen2_collections":
            sum(1 for e in gcs if e[2] == 2) / n,
    }
    return out
