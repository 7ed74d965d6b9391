"""Hub-node strategy planning and the broadcast message block.

This module holds everything the two backend adaptors share:

* the hub threshold heuristic (λ · total_edges / num_workers);
* the per-layer strategy plan (is partial-gather legal? is broadcast
  applicable? which nodes are out-degree hubs?);
* :class:`BroadcastMessageBlock`, a packed message block that stores each hub
  payload once per destination worker plus id-only references per edge.

Moving blocks (:func:`~repro.pregel.vertex.route` on the send side,
:func:`~repro.pregel.vertex.concat_messages` on the receive side) lives with
:class:`~repro.pregel.vertex.MessageBlock`, below both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.metrics import ID_BYTES, RECORD_OVERHEAD_BYTES
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference.config import StrategyConfig
from repro.pregel.combiners import MessageCombiner, combiner_for_aggregate_kind
from repro.pregel.vertex import MessageBlock


def hub_threshold(total_edges: int, num_workers: int, hub_lambda: float = 0.1,
                  override: Optional[int] = None) -> int:
    """The paper's heuristic: ``threshold = λ · total_edges / total_workers``.

    A node whose (out-)degree reaches the threshold (``>=``, see
    :func:`select_hubs`) is treated as a hub by the broadcast and
    shadow-nodes strategies.  The threshold never drops below 1.
    """
    if override is not None:
        return max(int(override), 1)
    return max(int(hub_lambda * total_edges / max(num_workers, 1)), 1)


def select_hubs(out_degrees: np.ndarray, threshold: int) -> np.ndarray:
    """Node ids whose out-degree reaches the hub threshold (``>=``).

    The single source of truth for "is this node a hub": both the broadcast
    planning (:func:`build_strategy_plan`) and the shadow-nodes rewrite
    (:func:`~repro.inference.shadow.apply_shadow_nodes`) call this, so a node
    whose degree lands exactly on the threshold is treated the same way by
    every strategy (it used to be broadcast-hub but not shadow-hub).
    """
    return np.nonzero(np.asarray(out_degrees) >= threshold)[0].astype(np.int64)


@dataclass
class LayerStrategy:
    """Resolved strategy switches for one GNN layer."""

    layer_index: int
    partial_gather: bool
    broadcast: bool
    combiner: Optional[MessageCombiner]


@dataclass
class StrategyPlan:
    """Everything the adaptors need to apply the strategies consistently."""

    threshold: int
    out_degree_hubs: np.ndarray                  # global node ids with out-degree >= threshold
    layer_strategies: List[LayerStrategy] = field(default_factory=list)
    shadow_nodes: bool = False
    _hub_table: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False)

    def layer(self, index: int) -> LayerStrategy:
        return self.layer_strategies[index]

    @property
    def is_hub(self) -> np.ndarray:
        """``out_degree_hubs`` as a membership table (:func:`hub_membership`),
        built on first use and again whenever the hub array is replaced.

        Partitions stepped side by side share the plan, so the table is
        published with the hub array it was built from as one tuple, in one
        assignment: a reader sees the old pair or the new one, never a table
        for other hubs.  Two first readers may both build it; the tables are
        equal, and either may win."""
        hubs, table = self.out_degree_hubs, self._hub_table
        if table is None or table[0] is not hubs:
            table = self._hub_table = (hubs, hub_membership(hubs))
        return table[1]


def build_strategy_plan(model: GNNModel, graph: Graph, num_workers: int,
                        config: StrategyConfig, has_edge_features: bool) -> StrategyPlan:
    """Resolve the strategy switches per layer for a concrete model and graph.

    * partial-gather is enabled only for layers whose gather stage is
      annotated commutative/associative (``supports_partial_gather``);
    * broadcast is enabled only for layers whose out-edge messages do not
      depend on edge features (otherwise the payloads differ per edge and
      cannot be shared);
    * shadow-nodes is a graph-level preprocessing switch, recorded here so the
      adaptors and experiments read one source of truth.
    """
    threshold = hub_threshold(graph.num_edges, num_workers,
                              override=config.hub_threshold_override)
    hubs = select_hubs(graph.out_degrees(), threshold)

    layer_strategies: List[LayerStrategy] = []
    for index, layer in enumerate(model.layers):
        partial = bool(config.partial_gather and layer.supports_partial_gather)
        message_uses_edges = has_edge_features and layer.edge_linear is not None
        broadcast = bool(config.broadcast and not message_uses_edges)
        combiner = combiner_for_aggregate_kind(layer.aggregate_kind) if partial else None
        layer_strategies.append(LayerStrategy(
            layer_index=index, partial_gather=partial, broadcast=broadcast, combiner=combiner,
        ))
    return StrategyPlan(
        threshold=threshold,
        out_degree_hubs=hubs,
        layer_strategies=layer_strategies,
        shadow_nodes=bool(config.shadow_nodes),
    )


class BroadcastMessageBlock(MessageBlock):
    """A row-indexed message block whose table holds one payload per hub.

    Hub nodes send the same payload along every out-edge; instead of repeating
    the row per edge, the block stores each unique payload once (its
    ``payload``) and one integer reference per edge (its ``rows``).  The
    wire-size accounting (:meth:`nbytes`) therefore reflects the paper's
    broadcast saving: full payload once per destination worker, ids only per
    edge.
    """

    combinable = False
    rows: np.ndarray        # never None: every message references a hub row

    def __post_init__(self) -> None:
        if np.ndim(self.rows) != 1:     # None included: rows are not optional here
            raise ValueError("a broadcast block needs rows: one payload reference per message")
        super().__post_init__()

    def nbytes(self) -> float:
        per_edge = 2 * ID_BYTES + RECORD_OVERHEAD_BYTES   # dst id + payload reference
        return float(self.dst_ids.shape[0]) * per_edge + float(self.payload.nbytes)

    def take(self, rows: np.ndarray) -> "BroadcastMessageBlock":
        # referenced payloads, renumbered by rank: one table pass, no sort
        refs = self.rows[rows]
        used = np.zeros(self.payload.shape[0], dtype=bool)
        used[refs] = True
        return BroadcastMessageBlock(
            dst_ids=self.dst_ids[rows],
            payload=self.payload[used],
            rows=(np.cumsum(used) - 1)[refs],
            counts=self.counts[rows],
        )


def hub_membership(hubs: np.ndarray) -> np.ndarray:
    """A bool per node id up to one past the largest of ``hubs``, set on
    them: any id reads its membership with ``take(..., mode="clip")``, since
    an id past the table clips to its last entry, which is no hub."""
    hubs = np.asarray(hubs, dtype=np.int64)
    is_hub = np.zeros(int(hubs.max()) + 2 if hubs.size else 0, dtype=bool)
    is_hub[hubs] = True
    return is_hub


def split_hub_edges(src_ids: np.ndarray,
                    is_hub: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Partition edge positions into (hub-source rows, regular rows).

    ``is_hub`` is the plan's non-empty hub membership table
    (:attr:`StrategyPlan.is_hub`); membership is one gather.
    """
    hub = is_hub.take(np.asarray(src_ids, dtype=np.int64), mode="clip")
    return np.nonzero(hub)[0], np.nonzero(~hub)[0]
