"""The Pregel-like bulk-synchronous execution engine.

The engine owns graph partitions (nodes + their out-edges + in-memory state),
runs supersteps, delivers the message blocks each partition routed to the
others, and files one :class:`~repro.cluster.metrics.InstanceMetrics` per
partition per superstep into a
:class:`~repro.cluster.metrics.MetricsCollector` so the cost model can derive
wall-clock / cpu*min numbers afterwards.

A "worker" is a partition processed through the engine's
:class:`~repro.cluster.executor.Executor`:

* the default :class:`~repro.cluster.executor.SerialExecutor` runs the
  partitions in-process, on the engine's live objects: a full superstep's
  side by side on the box's CPUs (threads; the numpy kernels release the
  GIL), an incremental one's in slot order.  The data-flow shape (message
  volumes, per-worker skew, superstep structure) is the simulated cluster's
  either way, and so is every bit;
* the :class:`~repro.cluster.executor.ProcessExecutor` runs one OS process
  per partition: partition arrays and the
  :class:`~repro.cluster.layout.ClusterLayout` tables ship once through
  ``multiprocessing.shared_memory``, per-superstep message blocks travel as
  pickled numpy bundles, a worker keeps its partition's state between runs,
  and the per-partition compute (gather, apply_node, scatter, combine) runs
  genuinely in parallel.  Results are bit-identical to
  the serial executor: both run the same
  :class:`PregelPartitionHarness` code on arrays with identical contents, and
  message buckets are delivered in sending-partition order, so every
  order-sensitive reduction sees the same operand sequence.

How message routing works
-------------------------

Routing is columnar, built on the shared
:class:`~repro.cluster.layout.ClusterLayout` the engine slices its partitions
from, built once per plan:

* ``layout.owner_of`` and ``layout.local_of`` are dense ``int64`` tables
  mapping every global node id to its owning partition and to its local row
  there.  Senders and receivers consult the same tables, so placement needs no
  coordination and no per-id hashing on the hot path.
* At the end of a superstep a partition's outgoing
  :class:`~repro.pregel.vertex.MessageBlock`\\ s go through
  :func:`~repro.pregel.vertex.route` — the send path of the superstep loop
  and the MapReduce rounds alike.  **Fold in bucket order**: the superstep's
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
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.cluster.executor import (
    Executor,
    SharedArrayPack,
    WorkerHarness,
    attach_shared_array,
    build_executor,
    prune_attached_segments,
)
from repro.cluster.layout import ClusterLayout, stable_group_by
from repro.cluster.metrics import InstanceMetrics, MetricsCollector, run_instance
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.pregel.vertex import BlockVertexProgram, MessageBlock, PartitionContext, route

class PregelPartition:
    """A worker's share of the graph plus its in-memory block state.

    ``node_ids`` are the owned global ids, ascending; ``out_src`` /
    ``out_dst`` / ``out_edge_features`` the out-edges of those nodes in the
    graph's edge order; ``node_features`` / ``labels`` the owned nodes' rows
    (``None`` where the graph has none).  Global→local translation goes
    through the cluster-wide :class:`~repro.cluster.layout.ClusterLayout`
    tables (shared across all partitions of one engine).
    """

    def __init__(self, partition_id: int, layout: ClusterLayout, *,
                 node_ids: np.ndarray, node_features: Optional[np.ndarray],
                 labels: Optional[np.ndarray], out_src: np.ndarray, out_dst: np.ndarray,
                 out_edge_features: Optional[np.ndarray]) -> None:
        self.partition_id = partition_id
        self.node_ids = node_ids
        self.node_features = node_features
        self.labels = labels
        self.out_src = out_src
        self.out_dst = out_dst
        self.out_edge_features = out_edge_features
        self.layout = layout
        self._owner_of = layout.owner_of
        self._local_of = layout.local_of
        # Engine-agnostic scratch space used by block programs.
        self.block_state: Dict[str, Any] = {}
        #: the edge patches since the resident state last ran, composed
        self.pending_kept: Optional[np.ndarray] = None

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
        The check is one owner gather (an out-of-range id clips to an end of
        the table) and one pass that also rejects every id out of range: a
        negative id, read unsigned, lies above them all.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        foreign = ((self._owner_of.take(vertex_ids, mode="clip") != self.partition_id)
                   | (vertex_ids.view(np.uint64) >= self._owner_of.size))
        if foreign.any():
            offender = int(vertex_ids[foreign][0])
            raise ValueError(
                f"partition {self.partition_id} does not own vertex {offender}")
        return self._local_of[vertex_ids]

    def replace_out_edges(self, kept: np.ndarray, added_src: np.ndarray,
                          added_dst: np.ndarray,
                          added_features: Optional[np.ndarray]) -> None:
        """Apply an in-place edge delta to this partition's out-edges.

        The new arrays are the old out-edges ``kept`` marks, in order,
        followed by the added ones.  ``kept`` composes into
        :attr:`pending_kept`, over the out-edges the resident state last ran
        on (their survivors keep their order, every later edge counts as
        appended), which the next run's ``open`` applies to that state.
        """
        self.out_src = np.concatenate([self.out_src[kept], added_src])
        self.out_dst = np.concatenate([self.out_dst[kept], added_dst])
        if self.out_edge_features is not None:
            self.out_edge_features = np.concatenate([self.out_edge_features[kept],
                                                     added_features])
        pending = self.pending_kept
        if pending is None:
            self.pending_kept = np.array(kept, dtype=bool)
        else:
            survivors = np.flatnonzero(pending)
            pending[survivors] &= kept[:survivors.size]


@dataclass
class PregelResult:
    """Outcome of a Pregel run.

    ``partitions`` are the engine's live partitions, whose arrays may be views
    into its shared-memory segments; holding ``engine`` keeps those segments
    mapped for as long as the result is reachable.  ``results[i]`` is the
    program's ``result()`` of partition ``i``.
    """

    num_supersteps: int
    partitions: List[PregelPartition] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    engine: Optional["PregelEngine"] = field(default=None, repr=False)


# --------------------------------------------------------------------------- #
# per-partition superstep harness (shared by the serial and process executors)
# --------------------------------------------------------------------------- #
class PregelPartitionHarness(WorkerHarness):
    """One partition's superstep loop body, hosted by an executor slot.

    A superstep comes in two halves: :meth:`compute` (the program's gather
    → apply → scatter, sends left unrouted) and :meth:`route` (fold in
    bucket order, then cut).  :meth:`step` runs both under
    :func:`~repro.cluster.metrics.run_instance` and prices the superstep's
    peak memory; the MapReduce round driver steps them in different waves.
    The harness operates on the engine's live :class:`PregelPartition`
    (serial executor) or on a worker-side one over shared-memory arrays
    (process executor); either way ``block_state`` stays where the slot
    runs, and only the program's result leaves, at :meth:`finish`.
    """

    def __init__(self, partition: PregelPartition, program: BlockVertexProgram) -> None:
        self.partition = partition
        self.program = program
        self.layout = partition.layout
        program.setup_partition(partition)

    # ------------------------------------------------------------------ #
    def compute(self, superstep: int, frontier_rows: Optional[np.ndarray],
                incoming: List[MessageBlock], metrics: InstanceMetrics) -> PartitionContext:
        """Gather → apply → scatter: the program over ``incoming``; the sends stay unrouted."""
        context = PartitionContext(self.partition, superstep, metrics, frontier_rows)
        self.program.compute_partition(context, incoming)
        return context

    def route(self, context: PartitionContext) -> List[List[MessageBlock]]:
        """Fold → cut: ``context``'s sends as one block list per partition."""
        return route(context.outgoing_blocks,
                     self.program.combiner_for_superstep(context.superstep), self.layout,
                     context.schedule)

    def step(self, control: Any,
             incoming: List[MessageBlock]) -> Tuple[InstanceMetrics,
                                                    List[Tuple[int, List[MessageBlock]]]]:
        superstep, frontier_rows = control
        partition = self.partition

        def work(incoming: List[MessageBlock],
                 metrics: InstanceMetrics) -> List[List[MessageBlock]]:
            context = self.compute(superstep, frontier_rows, incoming, metrics)
            # Peak memory: the program's resident state, the features, the
            # mailbox and the out-edges.
            resident = self.program.state_bytes(partition, superstep)
            if partition.node_features is not None:
                resident += float(partition.node_features.nbytes)
            resident += sum(block.nbytes() for block in incoming)
            resident += float(partition.out_src.nbytes + partition.out_dst.nbytes)
            metrics.observe_memory(resident)
            return self.route(context)

        routed, metrics = run_instance(f"superstep_{superstep}",
                                       partition.partition_id, incoming, work)
        return metrics, [(target, bucket) for target, bucket in enumerate(routed) if bucket]

    def finish(self) -> Any:
        """The program's result for this partition: all that leaves the slot."""
        return self.program.result(self.partition)


def _host(partition: PregelPartition, kept: Optional[np.ndarray],
          payload: Dict[str, Any]) -> PregelPartitionHarness:
    """Both factories' tail: patch the resident state by the pending ``kept``
    mask — ``out_src_local`` (the survivors' rows, then the appended edges')
    and each send schedule — and host the harness."""
    if kept is not None:
        state = partition.block_state
        if "out_src_local" in state:
            appended = partition.out_src[int(np.count_nonzero(kept)):]
            state["out_src_local"] = np.concatenate([state["out_src_local"][kept],
                                                     partition.local_indices(appended)])
        for schedule in state.get("send_schedule", {}).values():
            schedule.patch(partition, kept)
    return payload["harness"](partition, payload["program"])


def _build_serial_harness(slot_id: int, payload: Dict[str, Any]) -> PregelPartitionHarness:
    """Serial-executor factory: wrap the engine's live partition (no copies)."""
    partition = payload["partition"]
    kept, partition.pending_kept = partition.pending_kept, None
    try:
        return _host(partition, kept, payload)
    except BaseException:
        # the mask is spent: a state it half patched must not survive it
        partition.block_state = {}
        raise


#: worker-side: each partition's ``block_state``, kept between runs (as
#: mappings are); a fresh or respawned worker starts with none.
_RESIDENT_BLOCK_STATES: Dict[int, Dict[str, Any]] = {}


def _build_process_harness(slot_id: int, payload: Dict[str, Any]) -> PregelPartitionHarness:
    """Process-executor factory: rebuild the partition over shared memory.

    Array payloads arrive as :class:`~repro.cluster.executor.SharedArraySpec`
    descriptors; attaching is zero-copy, so the worker reads the same bytes
    the parent wrote (including later in-place feature-delta scatters).  The
    partition adopts the ``block_state`` this worker kept from its last run,
    patched by the payload's ``kept`` mask.
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
    partition = PregelPartition(
        payload["partition_id"], layout,
        **{name: None if spec is None else attach_shared_array(spec)
           for name, spec in payload["arrays"].items()})
    # out of the table until hosted: a factory that raises leaves this worker
    # with no state, never with a stale one
    partition.block_state = _RESIDENT_BLOCK_STATES.pop(partition.partition_id, {})
    harness = _host(partition, payload["kept"], payload)
    _RESIDENT_BLOCK_STATES[partition.partition_id] = partition.block_state
    return harness


class PregelEngine:
    """Bulk-synchronous superstep executor over hash-partitioned graphs.

    ``executor`` names the worker substrate (``"serial"`` / ``"process"``),
    or ``None`` for the environment default (``$REPRO_EXECUTOR``, falling
    back to serial).  The executor and the
    shared-memory segments backing process workers are created lazily on the
    first ``run()`` and reused across runs; :meth:`shutdown` releases both.

    :attr:`cache_warm` is set when a :meth:`drive` of a ``cache_states``
    program closes cleanly and cleared when a drive starts and by
    :meth:`shutdown`: a failed run or a dead worker leaves it clear.
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
        if layout is None:
            layout = ClusterLayout.build(graph.num_nodes, HashPartitioner(self.num_workers))
        elif (layout.num_nodes, layout.num_partitions) != (graph.num_nodes, self.num_workers):
            raise ValueError(
                f"layout covers {layout.num_nodes} nodes / {layout.num_partitions} "
                f"partitions but the graph has {graph.num_nodes} nodes and the "
                f"engine {self.num_workers} workers")
        self.layout = layout
        # Each partition's out-edges in one stable grouping by owner, so
        # they keep the graph's edge order.
        edge_order, edge_counts, edge_starts = stable_group_by(
            layout.owners(graph.src), self.num_workers)

        def rows(array: Optional[np.ndarray], ids: np.ndarray) -> Optional[np.ndarray]:
            return None if array is None else array[ids]

        self.partitions: List[PregelPartition] = []
        for pid in range(self.num_workers):
            node_ids = layout.nodes_of(pid)
            start = int(edge_starts[pid])
            edge_ids = edge_order[start:start + int(edge_counts[pid])]
            self.partitions.append(PregelPartition(
                pid, layout, node_ids=node_ids,
                node_features=rows(graph.node_features, node_ids),
                labels=rows(graph.labels, node_ids),
                out_src=graph.src[edge_ids], out_dst=graph.dst[edge_ids],
                out_edge_features=rows(graph.edge_features, edge_ids)))
        self.metrics = metrics or MetricsCollector()
        self._executor: Optional[Executor] = None
        self.executor_name = executor
        self._shm_pack: Optional[SharedArrayPack] = None
        self.cache_warm = False

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

        Resident state goes too, on both executors alike.  The live
        partitions and the layout outlive the engine (results alias them, a
        plan keeps the layout), so every attribute still pointing into a
        segment gets a private copy before the segment is unmapped.
        """
        self.cache_warm = False
        for partition in self.partitions:
            partition.block_state = {}
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
        view, spec = self._shm_pack.share(key, array)
        setattr(owner, attr, view)
        return spec

    def _process_payloads(self, program: BlockVertexProgram,
                          harness: Type[PregelPartitionHarness]) -> List[Dict[str, Any]]:
        """What ``open`` ships: shared-memory specs, the program, the harness
        class and at most one ``kept`` mask per partition — no state."""
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
                "harness": harness,
                "kept": partition.pending_kept,
            })
            partition.pending_kept = None
        return payloads

    # ------------------------------------------------------------------ #
    def drive(self, program: BlockVertexProgram, harness: Type[PregelPartitionHarness],
              waves: Iterable[Sequence[Any]], *, full: bool) -> List[Any]:
        """One executor session of ``program``: the session runner of both
        drivers, the superstep loop (:meth:`run`) and the MapReduce rounds.

        Every slot hosts a ``harness`` over its partition (the class ships in
        the payload); each wave is one control per partition, stepped as one
        barrier, and every record a step reports is filed with
        :attr:`metrics`, in slot order.  ``full`` tells the executor that
        every wave computes whole partitions, so it may step the slots side
        by side; an incremental run's waves touch a few rows each and stay
        in slot order.  Returns each partition's result, as the harnesses'
        ``finish()`` hands it back at close.
        """
        self.cache_warm = False
        executor = self.executor
        if executor.is_in_process:
            factory = _build_serial_harness
            payloads = [{"partition": partition, "program": program, "harness": harness}
                        for partition in self.partitions]
        else:
            factory = _build_process_harness
            payloads = self._process_payloads(program, harness)

        with executor.session(factory, payloads) as results:
            for controls in waves:
                for instance in executor.step(controls, full):
                    self.metrics.add(instance)
        self.cache_warm = program.cache_states
        return results

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

        All per-partition work runs through :meth:`drive`; the waves here
        only own the bulk-synchronous structure: one superstep each, full
        when there is no ``frontier``.
        """
        max_supersteps = program.max_supersteps()
        empty = np.empty(0, dtype=np.int64)
        results = self.drive(program, PregelPartitionHarness, (
            [(superstep, None if frontier is None or superstep >= len(frontier)
              else frontier[superstep].get(partition.partition_id, empty))
             for partition in self.partitions]
            for superstep in range(max_supersteps)), full=frontier is None)
        return PregelResult(num_supersteps=max_supersteps, partitions=self.partitions,
                            results=results, metrics=self.metrics, engine=self)
