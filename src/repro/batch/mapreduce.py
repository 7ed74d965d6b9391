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

Accounting is :func:`~repro.cluster.metrics.run_instance`, the same helper
the Pregel harness runs a superstep under: it hands the job the instance's
:class:`~repro.cluster.metrics.InstanceMetrics` to charge compute and memory
to, times the call, and counts ``num_records()`` / ``nbytes()`` over the items
in and over every item bucketed.  An item's size is a closed form over its
array shapes, so a reducer counting what the mappers already counted costs
nothing and agrees exactly (sizes are integer-valued floats).  The engine adds
the one thing only this backend pays — ``disk_bytes``: every round reads its
input from, and writes its output to, external storage — and the records land
per instance in the shared :class:`~repro.cluster.metrics.MetricsCollector`
under ``<phase>/map`` and ``<phase>/reduce`` for the cost model to price.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.cluster.metrics import InstanceMetrics, MetricsCollector, run_instance


class MapReduceJob:
    """One round's work: a whole-split mapper and a whole-reducer reduce."""

    def map_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[List[Any]]:
        """Turn one input split into one item list per reducer."""
        raise NotImplementedError

    def reduce_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[Any]:
        """Turn the items addressed to one reducer into its output items."""
        raise NotImplementedError


def _run_task(job: MapReduceJob, reducing: bool, items: List[Any], instance_id: int,
              phase: str) -> Tuple[List[List[Any]], InstanceMetrics]:
    """One mapper or reducer instance: its buckets (a reducer has one) and counters."""
    buckets, metrics = run_instance(
        phase, instance_id, items,
        (lambda items, metrics: [job.reduce_partition(items, metrics)]) if reducing
        else job.map_partition)
    metrics.disk_bytes = metrics.bytes_in + metrics.bytes_out
    return buckets, metrics


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
            (job, False, split, mapper_id, f"{phase}/map")
            for mapper_id, split in enumerate(self._split_rows(items))])
        for _, metrics in mapped:
            self.metrics.add(metrics)
        reduced = self.executor.run_tasks(_run_task, [
            (job, True, [item for buckets, _ in mapped for item in buckets[reducer_id]],
             reducer_id, f"{phase}/reduce")
            for reducer_id in range(len(mapped[0][0]))])
        outputs: List[Any] = []
        for (emitted,), metrics in reduced:
            self.metrics.add(metrics)
            outputs.extend(emitted)
        return outputs
