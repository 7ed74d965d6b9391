"""The Pregel-like bulk-synchronous execution engine.

The engine owns graph partitions (nodes + their out-edges + in-memory state),
runs supersteps, delivers the message blocks each partition routed to the
others, and files one :class:`~repro.cluster.metrics.InstanceMetrics` per
partition per superstep into a
:class:`~repro.cluster.metrics.MetricsCollector` so the cost model can derive
wall-clock / cpu*min numbers afterwards.

A "worker" is a partition processed through the engine's
:class:`~repro.cluster.executor.Executor`:

* the default :class:`~repro.cluster.executor.SerialExecutor` runs each
  partition sequentially in-process — the historical behaviour, which
  preserves the system's data-flow shape (message volumes, per-worker skew,
  superstep structure) while staying laptop-sized;
* the :class:`~repro.cluster.executor.ProcessExecutor` runs one OS process
  per partition: partition arrays and the
  :class:`~repro.cluster.layout.ClusterLayout` tables ship once through
  ``multiprocessing.shared_memory``, per-superstep message blocks travel as
  pickled numpy bundles, and the per-partition compute (gather, apply_node,
  scatter, combine) runs genuinely in parallel.  Results are bit-identical to
  the serial executor: both run the same
  :class:`PregelPartitionHarness` code on arrays with identical contents, and
  message buckets are delivered in sending-partition order, so every
  order-sensitive reduction sees the same operand sequence.

How message routing works
-------------------------

Routing is columnar, built on the shared
:class:`~repro.cluster.layout.ClusterLayout` the partitioner produces once per
partitioning:

* ``layout.owner_of`` and ``layout.local_of`` are dense ``int64`` tables
  mapping every global node id to its owning partition and to its local row
  there.  Senders and receivers consult the same tables, so placement needs no
  coordination and no per-id hashing on the hot path.
* At the end of a superstep a partition's outgoing
  :class:`~repro.pregel.vertex.MessageBlock`\\ s go through
  :func:`~repro.pregel.vertex.route` — the send path this engine shares with
  the MapReduce rounds.  **Fold in bucket order**: the superstep's
  sender-side combiner folds the combinable rows once, over the whole send,
  straight into ``(owner, destination)`` order, so each destination vertex
  appears once and a target partition's piece is a view of the folded array;
  a block that does not fold is grouped by one ``owner_of`` gather and one
  stable argsort.  Only post-combine rows are sized and "sent" — this is how
  partial-gather shrinks IO.  Which row goes where depends on topology and
  layout alone, so a program may keep that half (``context.schedule``).
* On the receiving side, destination global ids translate to dense local rows
  with one ``local_of`` gather (:meth:`PregelPartition.local_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.executor import (
    Executor,
    SharedArrayPack,
    WorkerHarness,
    attach_shared_array,
    build_executor,
    prune_attached_segments,
)
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import InstanceMetrics, MetricsCollector, run_instance
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner, Partition, partition_graph_with_layout
from repro.pregel.vertex import BlockVertexProgram, MessageBlock, PartitionContext, route

#: ``block_state`` entries that depend on a partition's out-edges and the
#: layout alone.  Each side derives its own: they are never shipped to a
#: worker or back.  ``replace_out_edges`` is the one place they follow an
#: edge delta: ``out_src_local`` is dropped, and every value of the
#: ``send_schedule`` dict (a program's resident routing) is patched through
#: its ``patch(partition, kept)``.
LAYOUT_DERIVED_KEYS = ("out_src_local", "send_schedule")


class PregelPartition:
    """A worker's share of the graph plus its in-memory block state.

    Global→local translation goes through the cluster-wide
    :class:`~repro.cluster.layout.ClusterLayout` tables (shared across all
    partitions of one engine).
    """

    def __init__(self, partition: Partition, layout: ClusterLayout) -> None:
        self.partition_id = partition.partition_id
        self.node_ids = partition.node_ids
        self.node_features = partition.node_features
        self.labels = partition.labels
        self.out_src = partition.out_src
        self.out_dst = partition.out_dst
        self.out_edge_features = partition.out_edge_features
        self.layout = layout
        self._owner_of = layout.owner_of
        self._local_of = layout.local_of
        # Engine-agnostic scratch space used by block programs.
        self.block_state: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def num_out_edges(self) -> int:
        return int(self.out_src.size)

    def local_indices(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Vectorised global → local index translation for owned vertices.

        One gather through the layout's dense ``local_of`` table.  Asking for
        a vertex this partition does not own is a routing bug; it raises a
        :class:`ValueError` naming the partition and the offending global id.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        in_range = (vertex_ids >= 0) & (vertex_ids < self._owner_of.size)
        owned = np.zeros(vertex_ids.shape, dtype=bool)
        owned[in_range] = self._owner_of[vertex_ids[in_range]] == self.partition_id
        if not owned.all():
            offender = int(vertex_ids[~owned][0])
            raise ValueError(
                f"partition {self.partition_id} does not own vertex {offender}")
        return self._local_of[vertex_ids]

    def replace_out_edges(self, out_src: np.ndarray, out_dst: np.ndarray,
                          out_edge_features: Optional[np.ndarray],
                          kept: np.ndarray) -> None:
        """Swap in the out-edges an in-place edge delta left this partition.

        The new arrays are the old out-edges ``kept`` marks, in order,
        followed by the appended ones.  ``out_src_local`` is dropped (block
        programs recompute it on their next run); each resident send
        schedule patches itself to the new arrays.
        """
        self.out_src = np.asarray(out_src, dtype=np.int64)
        self.out_dst = np.asarray(out_dst, dtype=np.int64)
        self.out_edge_features = out_edge_features
        self.block_state.pop("out_src_local", None)
        for schedule in self.block_state.get("send_schedule", {}).values():
            schedule.patch(self, kept)


@dataclass
class PregelResult:
    """Outcome of a Pregel run.

    ``partitions`` are the engine's live partitions, whose arrays may be views
    into its shared-memory segments; holding ``engine`` keeps those segments
    mapped for as long as the result is reachable.
    """

    num_supersteps: int
    partitions: List[PregelPartition] = field(default_factory=list)
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    engine: Optional["PregelEngine"] = field(default=None, repr=False)


# --------------------------------------------------------------------------- #
# per-partition superstep harness (shared by the serial and process executors)
# --------------------------------------------------------------------------- #
class PregelPartitionHarness(WorkerHarness):
    """One partition's superstep loop body, hosted by an executor slot.

    The harness runs the per-partition work of a superstep — the program's
    compute, then :func:`~repro.pregel.vertex.route` (fold in bucket order) —
    inside :func:`~repro.cluster.metrics.run_instance`, which times it and
    counts what came in and what was bucketed, and reports that
    :class:`~repro.cluster.metrics.InstanceMetrics`.  Under the serial
    executor it operates on the engine's live :class:`PregelPartition`; under
    the process executor it operates on a worker-side replica built over
    shared-memory arrays, and :meth:`finish` ships the final partition state
    back to the parent.
    """

    def __init__(self, partition: PregelPartition, program: BlockVertexProgram,
                 layout: ClusterLayout, ship_final_state: bool) -> None:
        self.partition = partition
        self.program = program
        self.layout = layout
        self.ship_final_state = bool(ship_final_state)
        program.setup_partition(partition)

    # ------------------------------------------------------------------ #
    def step(self, control: Any,
             incoming: List[MessageBlock]) -> Tuple[InstanceMetrics,
                                                    List[Tuple[int, List[MessageBlock]]]]:
        superstep, frontier_rows = control

        def work(incoming: List[MessageBlock],
                 metrics: InstanceMetrics) -> List[List[MessageBlock]]:
            context = PartitionContext(self.partition, superstep, metrics, frontier_rows)
            self.program.compute_partition(context, incoming)
            return route(context.outgoing_blocks,
                         self.program.combiner_for_superstep(superstep), self.layout,
                         context.schedule)

        routed, metrics = run_instance(f"superstep_{superstep}",
                                       self.partition.partition_id, incoming, work)
        return metrics, [(target, bucket) for target, bucket in enumerate(routed) if bucket]

    def finish(self) -> Optional[Dict[str, Any]]:
        """Ship the final partition state back (process mode only).

        :data:`LAYOUT_DERIVED_KEYS` entries stay here (the parent derives its
        own); everything else the program declared live (see
        :attr:`BlockVertexProgram.block_state_return_keys`) — e.g. the
        outputs, plus the per-superstep state cache incremental inference
        splices into — travels back so the engine's partitions end the run
        holding every state a later run (or output collection) will read.
        """
        if not self.ship_final_state:
            return None
        keys = self.program.block_state_return_keys
        return {key: value for key, value in self.partition.block_state.items()
                if key not in LAYOUT_DERIVED_KEYS and (keys is None or key in keys)}


def _build_serial_harness(slot_id: int, payload: Dict[str, Any]) -> PregelPartitionHarness:
    """Serial-executor factory: wrap the engine's live partition (no copies)."""
    return PregelPartitionHarness(
        partition=payload["partition"],
        program=payload["program"],
        layout=payload["layout"],
        ship_final_state=False,
    )


def _build_process_harness(slot_id: int, payload: Dict[str, Any]) -> PregelPartitionHarness:
    """Process-executor factory: rebuild the partition over shared memory.

    Array payloads arrive as :class:`~repro.cluster.executor.SharedArraySpec`
    descriptors; attaching is zero-copy, so the worker reads the same bytes
    the parent wrote (including later in-place feature-delta scatters).  The
    seeded ``block_state`` carries whatever the parent-side partition held
    before the run (e.g. the cached superstep states an incremental run
    splices into).
    """
    layout_payload = payload["layout"]
    # The payload names every segment this run reads; anything else cached in
    # this worker is a superseded mapping (an edge delta re-shared the array)
    # whose pages would otherwise stay allocated for the worker's lifetime.
    prune_attached_segments(
        [spec.name for spec in payload["arrays"].values() if spec is not None]
        + [layout_payload["owner_of"].name, layout_payload["local_of"].name])
    layout = ClusterLayout(
        owner_of=attach_shared_array(layout_payload["owner_of"]),
        local_of=attach_shared_array(layout_payload["local_of"]),
        num_partitions=layout_payload["num_partitions"],
    )
    arrays = {name: None if spec is None else attach_shared_array(spec)
              for name, spec in payload["arrays"].items()}
    base = Partition(
        partition_id=payload["partition_id"],
        node_ids=arrays["node_ids"],
        out_src=arrays["out_src"],
        out_dst=arrays["out_dst"],
        out_edge_features=arrays["out_edge_features"],
        node_features=arrays["node_features"],
        labels=arrays["labels"],
    )
    partition = PregelPartition(base, layout)
    partition.block_state.update(payload["block_state"])
    return PregelPartitionHarness(
        partition=partition,
        program=payload["program"],
        layout=layout,
        ship_final_state=True,
    )


class PregelEngine:
    """Bulk-synchronous superstep executor over hash-partitioned graphs.

    ``executor`` names the worker substrate (``"serial"`` / ``"process"``),
    or ``None`` for the environment default (``$REPRO_EXECUTOR``, falling
    back to serial).  The executor and the
    shared-memory segments backing process workers are created lazily on the
    first ``run()`` and reused across runs; :meth:`shutdown` releases both.
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int,
        metrics: Optional[MetricsCollector] = None,
        layout: Optional[ClusterLayout] = None,
        executor: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.num_workers = int(num_workers)
        self.partitioner = HashPartitioner(self.num_workers)
        partitions, self.layout = partition_graph_with_layout(
            graph, self.partitioner, layout)
        self.partitions = [PregelPartition(p, self.layout) for p in partitions]
        self.metrics = metrics or MetricsCollector()
        self._executor: Optional[Executor] = None
        self.executor_name = executor
        self._shm_pack: Optional[SharedArrayPack] = None

    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> Executor:
        """The lazily built executor this engine routes partitions through."""
        if self._executor is None:
            self._executor = build_executor(self.executor_name, self.num_workers)
            self.executor_name = self._executor.name
        return self._executor

    @property
    def started_executor(self) -> Optional[Executor]:
        """The executor once a run has built it, else ``None`` (builds none)."""
        return self._executor

    @property
    def num_shared_segments(self) -> int:
        """Shared-memory segments this engine holds for its workers."""
        return 0 if self._shm_pack is None else len(self._shm_pack)

    def shutdown(self) -> None:
        """Release worker processes and shared-memory segments (if any).

        The live partitions and the layout outlive the engine (results alias
        them, a plan keeps the layout), so every attribute still pointing into
        a segment gets a private copy before the segment is unmapped.
        """
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._shm_pack is not None:
            for key, owner, attr in self._shared_attrs():
                array = getattr(owner, attr)
                if array is not None and self._shm_pack.is_current(key, array):
                    setattr(owner, attr, array.copy())
            self._shm_pack.close()
            self._shm_pack = None

    # ------------------------------------------------------------------ #
    _PARTITION_ARRAYS = ("node_ids", "node_features", "labels",
                         "out_src", "out_dst", "out_edge_features")

    def _shared_attrs(self) -> Iterator[Tuple[str, Any, str]]:
        """``(segment key, owner, attribute)`` of every array the workers attach."""
        for name in ("owner_of", "local_of"):
            yield f"layout/{name}", self.layout, name
        for partition in self.partitions:
            for name in self._PARTITION_ARRAYS:
                yield f"part{partition.partition_id}/{name}", partition, name

    def _shared_spec(self, key: str, owner: Any, attr: str):
        """Share ``owner.attr`` once and point it at the shm view.

        Re-sharing is a no-op while ``owner.attr`` still is the shared view;
        an attribute swapped wholesale since the last run (an edge delta's
        ``replace_out_edges``) gets a fresh segment.  Pointing the live object
        at the view is what makes later *in-place* writes (feature-delta
        scatters) visible to attached workers without re-shipping anything.
        """
        array = getattr(owner, attr)
        if array is None:
            return None
        pack = self._shm_pack
        if not pack.is_current(key, array):
            pack.share(key, array)
            setattr(owner, attr, pack.array_for(key))
        return pack.spec_for(key)

    def _process_payloads(self, program: BlockVertexProgram) -> List[Dict[str, Any]]:
        # Programs declare which block_state keys a run actually *reads*;
        # None means "everything".  GNNInferenceProgram ships nothing into
        # full runs and only the warm caches into incremental ones — the
        # difference is tens of megabytes per serving tick at benchmark scale.
        ship_keys = program.block_state_ship_keys
        if self._shm_pack is None:
            self._shm_pack = SharedArrayPack()
        specs = {key: self._shared_spec(key, owner, attr)
                 for key, owner, attr in self._shared_attrs()}
        layout_payload = {
            "owner_of": specs["layout/owner_of"],
            "local_of": specs["layout/local_of"],
            "num_partitions": self.layout.num_partitions,
        }
        payloads: List[Dict[str, Any]] = []
        for partition in self.partitions:
            pid = partition.partition_id
            payloads.append({
                "partition_id": pid,
                "arrays": {name: specs[f"part{pid}/{name}"]
                           for name in self._PARTITION_ARRAYS},
                "layout": layout_payload,
                "program": program,
                "block_state": {key: value
                                for key, value in partition.block_state.items()
                                if key not in LAYOUT_DERIVED_KEYS
                                and (ship_keys is None or key in ship_keys)},
            })
        return payloads

    def _apply_final_states(self, finals: Sequence[Optional[Dict[str, Any]]]) -> None:
        """Fold worker-side final partition state back into the live partitions."""
        for partition, final in zip(self.partitions, finals):
            if final is None:
                continue
            kept = {key: partition.block_state[key] for key in LAYOUT_DERIVED_KEYS
                    if key in partition.block_state}
            partition.block_state = {**final, **kept}

    # ------------------------------------------------------------------ #
    def run(self, program: BlockVertexProgram,
            frontier: Optional[Sequence[Dict[int, np.ndarray]]] = None) -> PregelResult:
        """Execute ``program`` for its ``max_supersteps()`` supersteps.

        ``frontier`` restricts supersteps to a dirty-vertex schedule:
        ``frontier[s]`` maps a partition id to the local row indices whose
        state superstep ``s`` may recompute (missing partitions are idle that
        superstep).  The engine only delivers the schedule through
        ``context.frontier_rows``; the block program decides how to exploit it
        — this is how incremental inference reruns just the k-hop region a
        :class:`~repro.inference.delta.GraphDelta` can reach.

        All per-partition compute — the program itself, message routing,
        combining, accounting — runs through the engine's executor; the loop
        here only owns the bulk-synchronous structure (superstep barriers)
        and the metrics roll-up.
        """
        max_supersteps = program.max_supersteps()
        executor = self.executor
        if executor.is_in_process:
            factory = _build_serial_harness
            payloads = [{
                "partition": partition,
                "program": program,
                "layout": self.layout,
            } for partition in self.partitions]
        else:
            factory = _build_process_harness
            payloads = self._process_payloads(program)

        with executor.session(factory, payloads) as finals:
            for superstep in range(max_supersteps):
                controls = []
                for partition in self.partitions:
                    rows = None
                    if frontier is not None and superstep < len(frontier):
                        rows = frontier[superstep].get(partition.partition_id,
                                                       np.empty(0, dtype=np.int64))
                    controls.append((superstep, rows))
                # One InstanceMetrics per partition per superstep: compute, in-
                # and out-volumes and the measured seconds in a single entry.
                for instance in executor.step(controls):
                    self.metrics.add(instance)
        self._apply_final_states(finals)
        return PregelResult(num_supersteps=max_supersteps, partitions=self.partitions,
                            metrics=self.metrics, engine=self)
