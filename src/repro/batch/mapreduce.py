"""MapReduce engine: split rows → map (and bucket) → shuffle → reduce.

One round runs one :class:`MapReduceJob` — the GNN round job of
:mod:`repro.inference.mapreduce_adaptor` is the only one in ``src/``.  The
engine knows nothing about what it moves.  An *item* is a columnar block of
rows with ``num_records()`` and ``nbytes()``; the items a chain starts from
also have ``len()`` and ``take(rows)``, which is how the engine cuts their
rows into contiguous, near-equal splits, one per mapper.  A mapper runs
``map_partition`` over its split and returns one item list per reducer — the
job buckets, the engine never looks at a key; a reducer runs
``reduce_partition`` once over every item addressed to it.

Mapper ``i`` and reducer ``i`` are slot ``i`` of the engine's
:class:`~repro.cluster.executor.Executor`, hosted by a :class:`RoundHarness`.
One ``open`` ships a whole chain's jobs to every worker, once (jobs and items
must pickle: module-level classes); a round is then two ``step`` waves, and
the shuffle between them *is* the executor's mailbox: reducer ``r`` receives
mapper 0's bucket ``r``, then mapper 1's, ... — the order of a sequential
loop — as blobs a coordinating process relays without unpickling.  Between
rounds the coordinator only re-splits the reducers' output rows: "read the
round's input from storage", which ``disk_bytes`` charges.

Accounting is :func:`~repro.cluster.metrics.run_instance`, the same helper
the Pregel harness runs a superstep under: it hands the job the instance's
:class:`~repro.cluster.metrics.InstanceMetrics` to charge compute and memory
to, times the call, and counts ``num_records()`` / ``nbytes()`` over the items
in and over every item bucketed (closed forms over array shapes, so a reducer
recounting what the mappers counted agrees exactly and costs nothing).  The
harness adds ``disk_bytes`` — every round reads its input from, and writes its
output to, external storage, the one charge only this backend pays — and the
records land in the shared :class:`~repro.cluster.metrics.MetricsCollector`
under ``<phase>/map`` and ``<phase>/reduce`` for the cost model to price.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.executor import Executor, WorkerHarness
from repro.cluster.metrics import InstanceMetrics, MetricsCollector, run_instance


class MapReduceJob:
    """One round's work: a whole-split mapper and a whole-reducer reduce."""

    def map_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[List[Any]]:
        """Turn one input split into one item list per reducer."""
        raise NotImplementedError

    def reduce_partition(self, items: List[Any], metrics: InstanceMetrics) -> List[Any]:
        """Turn the items addressed to one reducer into its output items."""
        raise NotImplementedError


class RoundHarness(WorkerHarness):
    """One slot of a chain of rounds: its jobs, and no state between steps.

    A step's control is ``(round, phase, split)``: given a split, the slot is
    that round's mapper and its buckets leave as mail, one per reducer slot;
    given ``None``, its reducer — ``incoming`` is the mail, and the emitted
    items return next to the counters.
    """

    def __init__(self, slot_id: int, payload: Tuple[int, Sequence[MapReduceJob]]) -> None:
        self.slot_id = slot_id
        self.num_slots, self.jobs = payload

    def step(self, control: Tuple[int, str, Optional[List[Any]]],
             incoming: List[Any]) -> Tuple[Any, List[Tuple[int, List[Any]]]]:
        round_index, phase, split = control
        job = self.jobs[round_index]
        if split is None:
            (emitted,), metrics = run_instance(
                phase, self.slot_id, incoming,
                lambda items, metrics: [job.reduce_partition(items, metrics)])
            result, outgoing = (metrics, emitted), []
        else:
            buckets, metrics = run_instance(phase, self.slot_id, split, job.map_partition)
            if len(buckets) != self.num_slots:
                raise ValueError(f"{phase}: the job bucketed for {len(buckets)} reducers, "
                                 f"the executor has {self.num_slots} slots")
            result, outgoing = metrics, list(enumerate(buckets))
        metrics.disk_bytes = metrics.bytes_in + metrics.bytes_out
        return result, outgoing


class MapReduceEngine:
    """Runs chains of rounds: one mapper and one reducer per executor slot.

    The executor is borrowed: the mapreduce backend keeps one per prepared
    plan, so a process pool is started once and shared by every chain.
    """

    def __init__(self, metrics: MetricsCollector, executor: Executor) -> None:
        self.metrics = metrics
        self.executor = executor

    def _split_rows(self, items: Sequence[Any]) -> List[List[Any]]:
        """Contiguous, near-equal row ranges of the item stream, one per mapper."""
        num_mappers = self.executor.num_slots
        per_mapper = max(-(-sum(len(item) for item in items) // num_mappers), 1)
        splits: List[List[Any]] = [[] for _ in range(num_mappers)]
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

    def run(self, rounds: Sequence[Tuple[str, MapReduceJob]],
            items: Sequence[Any]) -> List[Any]:
        """Chain ``(phase, job)`` rounds — each map → shuffle → reduce over the
        previous one's output — in one executor session; the last output."""
        executor, slots = self.executor, self.executor.num_slots
        payload = (slots, [job for _, job in rounds])
        with executor.session(RoundHarness, [payload] * slots):
            for index, (phase, _) in enumerate(rounds):
                for metrics in executor.step([(index, f"{phase}/map", split)
                                              for split in self._split_rows(items)]):
                    self.metrics.add(metrics)
                items = []
                for metrics, emitted in executor.step([(index, f"{phase}/reduce", None)] * slots):
                    self.metrics.add(metrics)
                    items.extend(emitted)
        return list(items)
