"""MapReduce engine: map (and bucket) → shuffle → reduce, each slot's rows kept.

One round runs one :class:`MapReduceJob` — the GNN round job of
:mod:`repro.inference.mapreduce_adaptor` is the only one in ``src/``.  The
engine knows nothing about what it moves.  An *item* is a columnar block of
rows with ``num_records()`` and ``nbytes()``.  A mapper runs ``map_partition``
over its slot's items and returns one item list per reducer — the job
buckets, the engine never looks at a key; a reducer runs ``reduce_partition``
once over every item addressed to it.

Mapper ``i`` and reducer ``i`` are slot ``i`` of the engine's
:class:`~repro.cluster.executor.Executor`, hosted by a :class:`RoundHarness`.
One ``open`` ships a whole chain's jobs and slot ``i``'s first split (the
caller's choice) to each worker, once (jobs and items must pickle); a round
is then two ``step`` waves, and the shuffle between them *is* the executor's
mailbox: reducer ``r`` receives mapper 0's bucket ``r``, then mapper 1's, ...
— the order of a sequential loop — as blobs a coordinating process relays
without unpickling.  A reducer's output stays on its slot as the next round's
map input ("written to storage and read back", which ``disk_bytes``
charges); the last round's comes back through ``finish()``.

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

from typing import Any, List, Sequence, Tuple

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
    """One slot of a chain of ``(phase, job)`` rounds and the items it holds.

    A step's control is ``(round, stage)``.  ``"map"`` maps the held items
    and mails the buckets, one per reducer slot; ``"reduce"`` reduces the
    mail into the held items (the next map's input; :meth:`finish` returns
    the last).  Either step returns only its metrics.
    """

    def __init__(self, slot_id: int,
                 payload: Tuple[int, Sequence[Tuple[str, MapReduceJob]], List[Any]]) -> None:
        self.slot_id = slot_id
        self.num_slots, self.rounds, self.items = payload

    def step(self, control: Tuple[int, str],
             incoming: List[Any]) -> Tuple[InstanceMetrics, List[Tuple[int, List[Any]]]]:
        round_index, stage = control
        name, job = self.rounds[round_index]
        phase = f"{name}/{stage}"
        if stage == "reduce":
            (self.items,), metrics = run_instance(
                phase, self.slot_id, incoming,
                lambda items, metrics: [job.reduce_partition(items, metrics)])
            outgoing: List[Tuple[int, List[Any]]] = []
        else:
            buckets, metrics = run_instance(phase, self.slot_id, self.items,
                                            job.map_partition)
            if len(buckets) != self.num_slots:
                raise ValueError(f"{phase}: the job bucketed for {len(buckets)} reducers, "
                                 f"the executor has {self.num_slots} slots")
            self.items, outgoing = [], list(enumerate(buckets))
        metrics.disk_bytes = metrics.bytes_in + metrics.bytes_out
        return metrics, outgoing

    def finish(self) -> List[Any]:
        """The last round's output items of this slot."""
        return self.items


class MapReduceEngine:
    """Runs chains of rounds: one mapper and one reducer per executor slot.

    The executor is borrowed: the mapreduce backend keeps one per prepared
    plan, so a process pool is started once and shared by every chain.
    """

    def __init__(self, metrics: MetricsCollector, executor: Executor) -> None:
        self.metrics = metrics
        self.executor = executor

    def run(self, rounds: Sequence[Tuple[str, MapReduceJob]],
            splits: Sequence[List[Any]]) -> List[Any]:
        """Chain ``(phase, job)`` rounds — each map → shuffle → reduce over the
        previous one's output on the same slot — in one executor session, from
        ``splits[i]`` on slot ``i``; the last round's output, slot by slot."""
        executor, slots = self.executor, self.executor.num_slots
        payloads = [(slots, list(rounds), split) for split in splits]
        with executor.session(RoundHarness, payloads) as finals:
            for index in range(len(rounds)):
                for stage in ("map", "reduce"):
                    for metrics in executor.step([(index, stage)] * slots):
                        self.metrics.add(metrics)
        return [item for items in finals for item in items]
