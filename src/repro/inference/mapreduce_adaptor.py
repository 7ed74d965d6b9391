"""InferTurbo's MapReduce backend: the Pregel partition program, driven as rounds.

The pipeline mirrors the paper's Section IV-C2, one map/reduce round per layer:

* **Map (initialisation)** — round 0's map encodes a slot's node-table rows
  into the layer-0 state and sends layer 0's messages along every out-edge;
* **Reduce round r** — gather the incoming messages of the reducer's nodes,
  run layer r's ``apply_node`` and compute layer r+1's messages; the
  prediction head is merged into the last reduce;
* **Map round r+1** — fold (partial-gather) and bucket those messages.

None of that is this module's code.  Slot ``i`` is Pregel partition ``i`` —
the same :class:`~repro.pregel.engine.PregelEngine` partitions and the same
:class:`~repro.inference.pregel_adaptor.GNNInferenceProgram` — hosted by a
:class:`RoundHarness`, which steps the two halves of a Pregel superstep in
different waves: round 0's map runs ``compute`` and ``route`` of superstep 0,
reduce ``r`` runs ``compute`` of superstep ``r+1`` and map ``r+1`` its
``route``.  So both backends send, fold and reduce the same messages in the
same order, and their scores are equal bit for bit.

What this backend owns is the price.  Unlike Pregel, a round reads its input
from, and writes its output to, external storage (``disk_bytes``); node
state is itself shuffled — a slot's state rows and out-adjacency are the
message the slot sends itself — and a reducer streams its rows through
bounded chunks (:data:`REDUCE_CHUNK_NODES`), so peak memory stays bounded at
the price of more bytes moved, which is exactly the trade-off Table III
measures.  :class:`Records` prices a message block as the rows this backend
puts on the wire; :class:`StateRows` prices a slot's state rows in closed
form and travels to the slot's own reducer with no arrays — the state itself
stays in partition memory.

There is no incremental inference, as in the paper: nothing survives a run
to splice into, and ``infer(mode="incremental")`` runs the full rounds over
the partitions a delta patched in place, exactly as on Pregel — so its
scores are bit-identical to a fresh ``prepare()+infer()``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import (
    FLOAT_BYTES,
    ID_BYTES,
    InstanceMetrics,
    MetricsCollector,
    run_instance,
    tensor_bytes,
)
from repro.inference.pregel_adaptor import GNNInferenceProgram
from repro.inference.strategies import BroadcastMessageBlock
from repro.pregel.engine import PregelEngine, PregelPartitionHarness
from repro.pregel.vertex import MessageBlock, PartitionContext

#: number of node rows processed together inside one reducer chunk; bounds
#: the reducer's working set (the "stream from external storage" property).
REDUCE_CHUNK_NODES = 4096

#: wire bytes besides the arrays: the one-character kind tag every shuffled row
#: carries, a message row's fold count, and the two-character-prefixed bucket
#: key a hub payload row travels under instead of a node id.
TAG_BYTES = 1
COUNT_BYTES = 8
BROADCAST_KEY_BYTES = 2 + ID_BYTES


class StateRows(NamedTuple):
    """A slot's node rows as the message the slot sends itself: a price, no arrays.

    ``rows`` node rows carrying ``state_bytes`` of state and
    ``adjacency_bytes`` of out-neighbour ids and edge features; each row also
    carries its id and, unless it is a raw node-table row (``tagged=False``),
    a kind tag.  The last round's output rows are state rows (logits) without
    adjacency.
    """

    rows: int
    state_bytes: float
    adjacency_bytes: float = 0.0
    tagged: bool = True

    def num_records(self) -> int:
        return self.rows

    def nbytes(self) -> float:
        return float(self.rows * (ID_BYTES + TAG_BYTES * self.tagged)
                     + self.state_bytes + self.adjacency_bytes)


class Records:
    """A message block priced as the rows this backend shuffles.

    Per row, besides the float arrays: a message carries its destination id,
    a kind tag and its fold count; a broadcast reference those plus the hub's
    id in place of a payload; a hub payload row its bucket key, tag and hub
    id — once per destination bucket that references it.  A broadcast block
    a reducer wrote is cut per bucket only by the next map; given the
    ``layout``, it is priced as the pieces it will be cut into.
    """

    def __init__(self, block: MessageBlock, layout: Optional[ClusterLayout] = None) -> None:
        self.block = block
        self.payload_rows = 0
        if isinstance(block, BroadcastMessageBlock):
            self.payload_rows = block.payload.shape[0]
            if layout is not None:
                self.payload_rows = np.unique(layout.owners(block.dst_ids) * self.payload_rows
                                              + block.rows).size

    def num_records(self) -> int:
        return self.block.num_records() + self.payload_rows

    def nbytes(self) -> float:
        block, rows = self.block, self.block.num_records()
        if isinstance(block, BroadcastMessageBlock):
            return float(rows * (2 * ID_BYTES + TAG_BYTES + COUNT_BYTES)
                         + self.payload_rows * (BROADCAST_KEY_BYTES + TAG_BYTES + ID_BYTES
                                                + block.width * FLOAT_BYTES))
        return float(rows * (ID_BYTES + TAG_BYTES + COUNT_BYTES + block.width * FLOAT_BYTES))


class RoundHarness(PregelPartitionHarness):
    """One slot of the round driver: a Pregel partition, priced as MapReduce.

    A step's control is ``(round, stage)`` and its record is filed under
    ``round_<r>/map`` or ``round_<r>/reduce``.  A map routes sends (round 0
    computes them first) and mails the buckets, its state rows to its own
    reducer; a reduce computes the next superstep over its mail and keeps
    the unrouted sends — what it wrote to storage — until the next map
    routes and releases them.  A step returns only its metrics, ``finish``
    the outputs.
    """

    program: GNNInferenceProgram
    sends: Optional[PartitionContext] = None
    #: the superstep whose state the slot holds: the last one it computed
    superstep = 0

    def step(self, control: Tuple[int, str],
             incoming: List[Any]) -> Tuple[InstanceMetrics, List[Tuple[int, List[Any]]]]:
        round_index, stage = control
        if stage == "map":
            items = ([self._state_rows(self._feature_bytes(), tagged=False)]
                     if round_index == 0 else self._written())
            buckets, metrics = run_instance(
                f"round_{round_index}/map", self.partition.partition_id, items,
                lambda items, metrics: self._map(round_index, metrics))
        else:
            _, metrics = run_instance(
                f"round_{round_index}/reduce", self.partition.partition_id, incoming,
                lambda items, metrics: [self._reduce(round_index, items, metrics)])
            buckets = []
        metrics.disk_bytes = metrics.bytes_in + metrics.bytes_out
        return metrics, [(target, bucket) for target, bucket in enumerate(buckets) if bucket]

    def finish(self) -> Any:
        """The slot's outputs, which it keeps no more than its state (the
        last superstep keeps none)."""
        return self.partition.block_state.pop("output", None)

    # ------------------------------------------------------------------ #
    def _feature_bytes(self) -> float:
        features = self.partition.node_features
        return 0.0 if features is None else float(features.nbytes)

    def _state_rows(self, state_bytes: Optional[float] = None,
                    tagged: bool = True) -> StateRows:
        """The slot's node rows, by default carrying its current state."""
        partition = self.partition
        if state_bytes is None:
            state_bytes = tensor_bytes(self.program.state_shape(partition, self.superstep))
        adjacency = float(partition.out_dst.nbytes)
        if partition.out_edge_features is not None:
            adjacency += float(partition.out_edge_features.nbytes)
        return StateRows(partition.num_nodes, state_bytes, adjacency, tagged)

    def _written(self) -> List[Any]:
        """What the last reduce wrote: its unrouted sends and the state rows."""
        assert self.sends is not None
        items: List[Any] = [Records(block, self.layout)
                            for block in self.sends.outgoing_blocks]
        return items + [self._state_rows()]

    def _map(self, round_index: int, metrics: InstanceMetrics) -> List[List[Any]]:
        if round_index == 0:
            context = self.compute(0, None, [], metrics)
            metrics.observe_memory(tensor_bytes(self.program.state_shape(self.partition, 0))
                                   + self._feature_bytes())
        else:
            assert self.sends is not None
            context, self.sends = self.sends, None
        buckets: List[List[Any]] = [[Records(piece) for piece in bucket]
                                    for bucket in self.route(context)]
        buckets[self.partition.partition_id].insert(0, self._state_rows())
        return buckets

    def _reduce(self, round_index: int, items: Sequence[Any],
                metrics: InstanceMetrics) -> List[Any]:
        blocks = [item.block for item in items if isinstance(item, Records)]
        widths = self.program.widths
        context = self.compute(round_index + 1, None, blocks, metrics)
        self.superstep = round_index + 1
        metrics.observe_memory(self._chunk_peak(blocks, widths[round_index],
                                                widths[round_index + 1]))
        if round_index + 1 == self.program.num_layers:
            rows = int(np.count_nonzero(self.partition.node_ids < self.program.num_outputs))
            return [StateRows(rows, tensor_bytes((rows, self.program.model.output_dim)))]
        self.sends = context
        return self._written()

    def _chunk_peak(self, blocks: Sequence[MessageBlock], in_width: int,
                    out_width: int) -> float:
        """Peak bytes of the reduce streamed through ``REDUCE_CHUNK_NODES``-row
        chunks: a chunk's state in and out plus the messages bound for it."""
        num_rows = self.partition.num_nodes
        if not num_rows:
            return 0.0
        starts = np.arange(0, num_rows, REDUCE_CHUNK_NODES)
        chunk_bytes = (np.minimum(REDUCE_CHUNK_NODES, num_rows - starts)
                       * (in_width + out_width) * FLOAT_BYTES)
        for block in blocks:
            chunk = self.layout.local_of[block.dst_ids] // REDUCE_CHUNK_NODES
            chunk_bytes += (np.bincount(chunk, minlength=starts.size)
                            * block.width * FLOAT_BYTES)
        return float(chunk_bytes.max())


def run_rounds(engine: PregelEngine, program: GNNInferenceProgram,
               metrics: MetricsCollector) -> Dict[str, np.ndarray]:
    """Drive ``program`` as one map/reduce round per layer; the dense scores."""
    engine.metrics = metrics
    program.model.eval()
    slots = len(engine.partitions)
    outputs = engine.drive(program, RoundHarness,
                           ([(round_index, stage)] * slots
                            for round_index in range(program.num_layers)
                            for stage in ("map", "reduce")), full=True)
    return {"scores": program.scores(engine.partitions, outputs)}
