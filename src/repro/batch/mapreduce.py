"""MapReduce engine: split rows → map (and bucket) → shuffle → reduce.

One round runs one :class:`MapReduceJob` — the GNN round job of
:mod:`repro.inference.mapreduce_adaptor` is the only one in ``src/``.  The
engine knows nothing about what it moves.  An *item* is a columnar block of
rows with ``num_records()`` and ``nbytes()``; the items a round starts from
also have ``len()`` and ``take(rows)``, which is how the engine cuts their
rows into contiguous, near-equal splits, one per mapper.  A mapper runs
``map_partition`` over its split and returns one item list per reducer — the
job buckets, the engine never looks at a key; a reducer runs
``reduce_partition`` once over every item addressed to it.

Every mapper and reducer instance is one task of the engine's
:class:`~repro.cluster.executor.Executor`, so the job and the items must
pickle (module-level classes).  The shuffle itself stays in the coordinator:
reducer ``r`` receives mapper 0's bucket ``r``, then mapper 1's, ... — the
order of a sequential loop, whatever the executor.

Accounting follows the data.  An item's size is a closed form over its array
shapes, taken once where the item is produced: the coordinator sizes each
split it cuts (a mapper's ``bytes_in``); a mapper sizes every item it
buckets, returning one byte total per bucket (their sum is its
``bytes_out``); a reducer's ``bytes_in`` is the sum of the bucket totals
addressed to it — sizes are integer-valued floats, so that sum is exact in
any order — and it sizes only what it emits.  The counters land per instance
(one :class:`~repro.cluster.metrics.InstanceMetrics` per task) in the shared
:class:`~repro.cluster.metrics.MetricsCollector` under ``<phase>/map`` and
``<phase>/reduce``, ``measured_seconds`` included, for the cost model to price.
"""

from __future__ import annotations

import time
from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.cluster.metrics import InstanceMetrics, MetricsCollector


class TaskContext:
    """Accounting handle passed to map/reduce implementations."""

    def __init__(self) -> None:
        self.compute_units = 0.0
        self.peak_memory_bytes = 0.0

    def add_compute(self, units: float) -> None:
        self.compute_units += float(units)

    def observe_memory(self, bytes_used: float) -> None:
        self.peak_memory_bytes = max(self.peak_memory_bytes, float(bytes_used))


class MapReduceJob:
    """One round's work: a whole-split mapper and a whole-reducer reduce."""

    def map_partition(self, items: List[Any], context: TaskContext) -> List[List[Any]]:
        """Turn one input split into one item list per reducer."""
        raise NotImplementedError

    def reduce_partition(self, items: List[Any], context: TaskContext) -> List[Any]:
        """Turn the items addressed to one reducer into its output items."""
        raise NotImplementedError


def _records(items: Sequence[Any]) -> int:
    return sum(item.num_records() for item in items)


def _bytes(items: Sequence[Any]) -> float:
    return float(sum(item.nbytes() for item in items))


def _run_task(job: MapReduceJob, reducing: bool, items: List[Any], bytes_in: float,
              instance_id: int, phase: str,
              ) -> Tuple[List[List[Any]], List[float], InstanceMetrics]:
    """One mapper or reducer instance: its buckets, their byte totals, its counters.

    A reducer's output is its one bucket.  ``bytes_in`` came with the data.
    """
    started = time.perf_counter()
    context = TaskContext()
    buckets = ([job.reduce_partition(items, context)] if reducing
               else job.map_partition(items, context))
    bucket_bytes = [_bytes(bucket) for bucket in buckets]
    bytes_out = sum(bucket_bytes)
    return buckets, bucket_bytes, InstanceMetrics(
        phase, instance_id, compute_units=context.compute_units,
        bytes_in=bytes_in, bytes_out=bytes_out,
        records_in=_records(items), records_out=sum(map(_records, buckets)),
        peak_memory_bytes=context.peak_memory_bytes, disk_bytes=bytes_in + bytes_out,
        measured_seconds=time.perf_counter() - started)


class MapReduceEngine:
    """Runs rounds of ``num_mappers`` map tasks and one reduce task per bucket.

    The job buckets, so the job sets the reducer count: every mapper returns
    the same number of buckets.  The executor is borrowed: the mapreduce
    backend keeps one per prepared plan, so a process pool is started once
    and shared by every round.
    """

    def __init__(self, num_mappers: int, metrics: MetricsCollector,
                 executor: Executor) -> None:
        if num_mappers <= 0:
            raise ValueError("num_mappers must be positive")
        self.num_mappers = int(num_mappers)
        self.metrics = metrics
        self.executor = executor

    def _split_rows(self, items: Sequence[Any]) -> List[List[Any]]:
        """Contiguous, near-equal row ranges of the item stream, one per mapper."""
        per_mapper = max(-(-sum(len(item) for item in items) // self.num_mappers), 1)
        splits: List[List[Any]] = [[] for _ in range(self.num_mappers)]
        offset = 0
        for item in items:
            end = offset + len(item)
            for mapper in range(offset // per_mapper, -(-end // per_mapper)):
                start = max(mapper * per_mapper, offset)
                stop = min((mapper + 1) * per_mapper, end)
                whole = stop - start == len(item)
                splits[mapper].append(
                    item if whole else item.take(np.arange(start - offset, stop - offset)))
            offset = end
        return splits

    def run(self, job: MapReduceJob, items: Sequence[Any], phase: str) -> List[Any]:
        """Run one map → shuffle → reduce round and return the reducers' output."""
        mapped = self.executor.run_tasks(_run_task, [
            (job, False, split, _bytes(split), mapper_id, f"{phase}/map")
            for mapper_id, split in enumerate(self._split_rows(items))])
        for _, _, counters in mapped:
            self.metrics.record(**vars(counters))
        reduced = self.executor.run_tasks(_run_task, [
            (job, True, [item for buckets, _, _ in mapped for item in buckets[reducer_id]],
             sum(bucket_bytes[reducer_id] for _, bucket_bytes, _ in mapped),
             reducer_id, f"{phase}/reduce")
            for reducer_id in range(len(mapped[0][0]))])
        outputs: List[Any] = []
        for (emitted,), _, counters in reduced:
            self.metrics.record(**vars(counters))
            outputs.extend(emitted)
        return outputs
