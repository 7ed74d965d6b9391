"""Traditional k-hop mini-batch inference pipeline (the PyG/DGL-style baseline).

For every batch of target nodes the pipeline pulls the (optionally sampled)
k-hop neighbourhood from the distributed graph store, runs the model's
localized forward pass over the whole subgraph, and keeps only the targets'
logits.  Every node inside the neighbourhood is therefore recomputed at every
layer for every batch it appears in — the redundant-computation problem — and
when a fanout is set, predictions change between runs — the consistency
problem.  Both effects are measured by the experiments against InferTurbo.

Two execution modes:

* :meth:`TraditionalPipeline.run` — actually computes logits (used for the
  accuracy-parity and consistency experiments);
* :meth:`TraditionalPipeline.estimate_costs` — samples a subset of targets,
  measures their neighbourhood sizes, extrapolates the compute / bytes /
  memory counters to the full target set, and prices them with the cost
  model.  This is how the Table III / Table IV scale experiments stay
  laptop-sized while preserving the relative shape of the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.baselines.graph_store import DistributedGraphStore
from repro.cluster.cost_model import CostModel, CostSummary, gnn_layer_compute_units
from repro.cluster.metrics import MetricsCollector, tensor_bytes
from repro.cluster.resources import ClusterSpec
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.graph.khop import KHopSubgraph
from repro.graph.sampling import FullNeighborSampler, NeighborSampler, UniformNeighborSampler
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class TraditionalConfig:
    """Configuration of the traditional inference pipeline."""

    num_workers: int = 8
    batch_size: int = 64
    fanout: Optional[int] = None          # neighbours sampled per hop; None = full
    num_store_workers: int = 4
    seed: int = 0
    cluster: Optional[ClusterSpec] = None

    def __post_init__(self) -> None:
        if self.cluster is None:
            self.cluster = ClusterSpec.traditional_default(self.num_workers)

    def sampler(self) -> NeighborSampler:
        if self.fanout is None:
            return FullNeighborSampler()
        return UniformNeighborSampler(self.fanout)


@dataclass
class TraditionalResult:
    """Outcome of a traditional-pipeline inference run."""

    scores: Optional[np.ndarray]          # None from estimate_costs
    cost: CostSummary
    metrics: MetricsCollector
    num_batches: int
    total_subgraph_nodes: int = 0
    total_subgraph_edges: int = 0

    def redundancy_factor(self, graph: Graph) -> float:
        """How many times the average node was recomputed vs. exactly once."""
        if graph.num_nodes == 0:
            return 0.0
        return self.total_subgraph_nodes / graph.num_nodes


class TraditionalPipeline:
    """Mini-batch k-hop inference over a simulated distributed deployment."""

    def __init__(self, model: GNNModel, config: Optional[TraditionalConfig] = None) -> None:
        self.model = model
        self.config = config or TraditionalConfig()

    # ------------------------------------------------------------------ #
    def _batch_costs(self, subgraph: KHopSubgraph) -> Dict[str, float]:
        """Compute / memory cost of one localized forward over a subgraph."""
        compute = 0.0
        state_width = self.model.encoder.out_features
        compute += subgraph.num_nodes * self.model.encoder.in_features * state_width
        for layer in self.model.layers:
            compute += gnn_layer_compute_units(
                num_messages=subgraph.num_edges, message_dim=layer.message_dim,
                num_nodes=subgraph.num_nodes, in_dim=layer.in_dim,
                out_dim=layer.output_dim)
            compute += subgraph.num_edges * layer.message_dim
        if self.model.head is not None:
            compute += subgraph.num_nodes * self.model.head.in_features * self.model.head.out_features
        feature_bytes = 0.0 if subgraph.node_features is None else float(subgraph.node_features.nbytes)
        memory = (feature_bytes
                  + tensor_bytes((subgraph.num_nodes, state_width)) * (self.model.num_layers + 1)
                  + tensor_bytes((subgraph.num_edges, max(l.message_dim for l in self.model.layers))))
        return {"compute": compute, "memory": memory}

    # ------------------------------------------------------------------ #
    def run(self, graph: Graph, targets: Optional[Sequence[int]] = None,
            seed: Optional[int] = None) -> TraditionalResult:
        """Run batched k-hop inference over ``targets`` (default: every node).

        Scores are filled in for ``targets`` only; the cost-only path, which
        materialises a sample of batches, is :meth:`estimate_costs`.
        """
        config = self.config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        sampler = config.sampler()
        if targets is None:
            targets = np.arange(graph.num_nodes, dtype=np.int64)
        else:
            targets = np.asarray(list(targets), dtype=np.int64)

        metrics = MetricsCollector()
        store = DistributedGraphStore(graph, config.num_store_workers, metrics)
        scores = np.zeros((graph.num_nodes, self.model.output_dim))

        self.model.eval()
        total_nodes = 0
        total_edges = 0
        num_batches = 0
        for start in range(0, targets.size, config.batch_size):
            seeds = targets[start:start + config.batch_size]
            worker_id = num_batches % config.num_workers
            subgraph = store.query_khop(seeds, self.model.num_layers, sampler=sampler, rng=rng)
            costs = self._batch_costs(subgraph)
            metrics.record(
                "inference", worker_id,
                compute_units=costs["compute"],
                bytes_in=store.subgraph_bytes(subgraph),
                records_in=subgraph.num_nodes,
                peak_memory_bytes=costs["memory"],
            )
            total_nodes += subgraph.num_nodes
            total_edges += subgraph.num_edges
            num_batches += 1

            with no_grad():
                logits = self.model.forward(
                    Tensor(subgraph.node_features), subgraph.src, subgraph.dst,
                    edge_features=None if subgraph.edge_features is None
                    else Tensor(subgraph.edge_features),
                    num_nodes=subgraph.num_nodes)
            scores[seeds] = logits.data[subgraph.target_positions]

        return TraditionalResult(
            scores=scores, cost=CostModel(config.cluster).summarize(metrics),
            metrics=metrics, num_batches=num_batches,
            total_subgraph_nodes=total_nodes, total_subgraph_edges=total_edges,
        )

    # ------------------------------------------------------------------ #
    def estimate_costs(self, graph: Graph, targets: Optional[Sequence[int]] = None,
                       sample_size: int = 64, seed: Optional[int] = None) -> TraditionalResult:
        """Extrapolated cost of inferring ``targets`` without running them all.

        A random sample of target batches is materialised to measure average
        per-batch subgraph sizes; those averages are extrapolated to the full
        batch count and charged round-robin to the inference workers.  No
        logits are produced.
        """
        config = self.config
        rng = np.random.default_rng(config.seed if seed is None else seed)
        sampler = config.sampler()
        if targets is None:
            targets = np.arange(graph.num_nodes, dtype=np.int64)
        else:
            targets = np.asarray(list(targets), dtype=np.int64)

        num_batches = int(np.ceil(targets.size / config.batch_size))
        sample_batches = max(1, min(int(np.ceil(sample_size / config.batch_size)), num_batches))
        sampled_targets = rng.choice(targets, size=min(sample_batches * config.batch_size,
                                                       targets.size), replace=False)

        probe_metrics = MetricsCollector()
        probe_store = DistributedGraphStore(graph, config.num_store_workers, probe_metrics)
        compute_total = 0.0
        bytes_total = 0.0
        memory_peak = 0.0
        nodes_total = 0
        edges_total = 0
        for start in range(0, sampled_targets.size, config.batch_size):
            seeds = sampled_targets[start:start + config.batch_size]
            subgraph = probe_store.query_khop(seeds, self.model.num_layers, sampler=sampler, rng=rng)
            costs = self._batch_costs(subgraph)
            compute_total += costs["compute"]
            memory_peak = max(memory_peak, costs["memory"])
            bytes_total += probe_store.subgraph_bytes(subgraph)
            nodes_total += subgraph.num_nodes
            edges_total += subgraph.num_edges

        scale = num_batches / sample_batches
        per_batch_compute = compute_total / sample_batches
        per_batch_bytes = bytes_total / sample_batches

        metrics = MetricsCollector()
        for batch_index in range(num_batches):
            worker_id = batch_index % config.num_workers
            metrics.record("inference", worker_id,
                           compute_units=per_batch_compute,
                           bytes_in=per_batch_bytes,
                           peak_memory_bytes=memory_peak)
        per_store = per_batch_bytes * num_batches / config.num_store_workers
        for store_worker in range(config.num_store_workers):
            metrics.record("graph_store", store_worker, bytes_out=per_store)

        cost = CostModel(config.cluster).summarize(metrics)
        return TraditionalResult(
            scores=None, cost=cost, metrics=metrics, num_batches=num_batches,
            total_subgraph_nodes=int(nodes_total * scale),
            total_subgraph_edges=int(edges_total * scale),
        )
