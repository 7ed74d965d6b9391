"""MapReduce engine: partition map → combine → shuffle → partition reduce.

One round runs one :class:`MapReduceJob` — the GNN round job of
:mod:`repro.inference.mapreduce_adaptor` is the only one in ``src/``.  The
input is cut into contiguous splits, one per mapper; a mapper runs
``map_partition`` over its split, optionally folds its output per key with
``combine`` (the sender-side pre-aggregation partial-gather rides on) and
buckets the result by reducer with the engine's partition function; a reducer
groups the records addressed to it by key, in arrival order, and runs
``reduce_partition`` once over all its groups.

Every mapper and reducer instance is one task of the engine's
:class:`~repro.cluster.executor.Executor`, so the job, the partition function
and the records must pickle (module-level classes and functions).  The shuffle
itself stays in the coordinator: reducer ``r`` receives mapper 0's bucket
``r``, then mapper 1's, ... — the record order of a sequential loop, whatever
the executor.  Placement is stable across worker processes because the caller
supplies the partition function and the only one in use is the adaptor's
explicit modulo (nothing here calls the per-process salted ``hash``).

Accounting follows the data.  Whoever emits a record sizes it, once: a mapper
sizes its input split (``bytes_in``) and every record it buckets, returning
one byte total per bucket (their sum is its ``bytes_out``); a reducer's
``bytes_in`` is the sum of the bucket totals addressed to it — sizes are
integer-valued floats, so that sum is exact in any order — and it sizes only
what it emits.  The counters land per instance in the shared
:class:`~repro.cluster.metrics.MetricsCollector` under ``<phase>/map`` and
``<phase>/reduce``, ``measured_seconds`` included, for the cost model to price.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.cluster.metrics import MetricsCollector, estimate_payload_bytes

Record = Tuple[Any, Any]
Groups = List[Tuple[Any, List[Any]]]
PartitionFn = Callable[[Any, int], int]


class TaskContext:
    """Accounting handle passed to map/reduce implementations."""

    def __init__(self, phase: str, instance_id: int) -> None:
        self.phase = phase
        self.instance_id = instance_id
        self.compute_units = 0.0
        self.peak_memory_bytes = 0.0

    def add_compute(self, units: float) -> None:
        self.compute_units += float(units)

    def observe_memory(self, bytes_used: float) -> None:
        self.peak_memory_bytes = max(self.peak_memory_bytes, float(bytes_used))


class MapReduceJob:
    """One round's work: a whole-split mapper and a whole-reducer reduce.

    Set ``has_combiner`` to have :meth:`combine` fold each mapper's output
    per key before the shuffle.
    """

    has_combiner: bool = False

    def map_partition(self, records: List[Record], context: TaskContext) -> Iterable[Record]:
        raise NotImplementedError

    def combine(self, key: Any, values: List[Any], context: TaskContext) -> Iterable[Record]:
        raise NotImplementedError

    def reduce_partition(self, groups: Groups, context: TaskContext) -> Iterable[Record]:
        raise NotImplementedError


@dataclass
class _TaskResult:
    """One instance's output and counters.

    A mapper's ``outputs`` holds one record list per reducer and
    ``bucket_bytes`` their byte totals; a reducer's ``outputs`` is its flat
    record list and ``bucket_bytes`` is empty.
    """

    outputs: List[Any]
    bucket_bytes: List[float]
    compute_units: float
    bytes_in: float
    bytes_out: float
    records_in: int
    records_out: int
    peak_memory_bytes: float
    measured_seconds: float


def _group_by_key(records: Iterable[Record]) -> Groups:
    """``(key, values)`` groups in first-appearance order, values in arrival order."""
    grouped: Dict[Any, List[Any]] = {}
    for key, value in records:
        grouped.setdefault(key, []).append(value)
    return list(grouped.items())


def _run_map_task(job: MapReduceJob, split: List[Record], mapper_id: int, phase: str,
                  num_reducers: int, partition_fn: PartitionFn) -> _TaskResult:
    """One mapper instance: map → combine → bucket by reducer, sizing as it goes."""
    started = time.perf_counter()
    context = TaskContext(phase, mapper_id)
    bytes_in = sum(estimate_payload_bytes(record) for record in split)
    emitted = list(job.map_partition(split, context))
    if job.has_combiner:
        emitted = [record for key, values in _group_by_key(emitted)
                   for record in job.combine(key, values, context)]
    buckets: List[List[Record]] = [[] for _ in range(num_reducers)]
    bucket_bytes = [0.0] * num_reducers
    for record in emitted:
        bucket = partition_fn(record[0], num_reducers)
        buckets[bucket].append(record)
        bucket_bytes[bucket] += estimate_payload_bytes(record)
    return _TaskResult(
        outputs=buckets, bucket_bytes=bucket_bytes,
        compute_units=context.compute_units,
        bytes_in=bytes_in, bytes_out=sum(bucket_bytes),
        records_in=len(split), records_out=len(emitted),
        peak_memory_bytes=context.peak_memory_bytes,
        measured_seconds=time.perf_counter() - started)


def _run_reduce_task(job: MapReduceJob, records: List[Record], bytes_in: float,
                     reducer_id: int, phase: str) -> _TaskResult:
    """One reducer instance: group by key → reduce; ``bytes_in`` came with the data."""
    started = time.perf_counter()
    context = TaskContext(phase, reducer_id)
    emitted = list(job.reduce_partition(_group_by_key(records), context))
    return _TaskResult(
        outputs=emitted, bucket_bytes=[],
        compute_units=context.compute_units,
        bytes_in=bytes_in,
        bytes_out=sum(estimate_payload_bytes(record) for record in emitted),
        records_in=len(records), records_out=len(emitted),
        peak_memory_bytes=context.peak_memory_bytes,
        measured_seconds=time.perf_counter() - started)


class MapReduceEngine:
    """Runs rounds of ``num_mappers`` map and ``num_reducers`` reduce tasks.

    The executor is borrowed: the mapreduce backend keeps one per prepared
    plan, so a process pool is started once and shared by every round.
    """

    def __init__(self, num_mappers: int, num_reducers: int, metrics: MetricsCollector,
                 partition_fn: PartitionFn, executor: Executor) -> None:
        if num_mappers <= 0 or num_reducers <= 0:
            raise ValueError("num_mappers and num_reducers must be positive")
        self.num_mappers = int(num_mappers)
        self.num_reducers = int(num_reducers)
        self.metrics = metrics
        self.partition_fn = partition_fn
        self.executor = executor

    def _split_input(self, records: Sequence[Record]) -> List[List[Record]]:
        """Contiguous, near-equal splits of the input across mappers."""
        per_mapper = int(np.ceil(len(records) / self.num_mappers))
        return [list(records[index * per_mapper:(index + 1) * per_mapper])
                for index in range(self.num_mappers)]

    def _record(self, phase: str, instance_id: int, result: _TaskResult) -> None:
        self.metrics.record(
            phase, instance_id,
            compute_units=result.compute_units,
            bytes_in=result.bytes_in, bytes_out=result.bytes_out,
            records_in=result.records_in, records_out=result.records_out,
            peak_memory_bytes=result.peak_memory_bytes,
            disk_bytes=result.bytes_in + result.bytes_out,
            measured_seconds=result.measured_seconds)

    def run(self, job: MapReduceJob, input_records: Sequence[Record],
            phase: str) -> List[Record]:
        """Run one map → shuffle → reduce round and return the reducers' output."""
        map_phase = f"{phase}/map"
        reduce_phase = f"{phase}/reduce"
        mapped = self.executor.run_tasks(
            _run_map_task,
            [(job, split, mapper_id, map_phase, self.num_reducers, self.partition_fn)
             for mapper_id, split in enumerate(self._split_input(input_records))])
        for mapper_id, result in enumerate(mapped):
            self._record(map_phase, mapper_id, result)
        reduced = self.executor.run_tasks(
            _run_reduce_task,
            [(job,
              [record for result in mapped for record in result.outputs[reducer_id]],
              sum(result.bucket_bytes[reducer_id] for result in mapped),
              reducer_id, reduce_phase)
             for reducer_id in range(self.num_reducers)])
        outputs: List[Record] = []
        for reducer_id, result in enumerate(reduced):
            self._record(reduce_phase, reducer_id, result)
            outputs.extend(result.outputs)
        return outputs
