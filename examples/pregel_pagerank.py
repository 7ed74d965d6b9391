"""Using the graph-processing substrate directly: PageRank on the Pregel engine.

InferTurbo's Pregel backend is a general bulk-synchronous engine, not a
GNN-only shim.  This example runs classic PageRank as a block program — one
vectorised ``compute_partition`` per partition per superstep, a segment-sum
over the incoming message blocks, a sum combiner on the sending side — then
reuses the same engine's metrics to show per-worker message counts, the same
counters the GNN inference experiments read.

Run:  python examples/pregel_pagerank.py
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from example_utils import scaled
from repro.datasets import load_dataset
from repro.pregel import (
    BlockVertexProgram,
    MessageBlock,
    MessageCombiner,
    PartitionContext,
    PregelEngine,
    PregelPartition,
    SumCombiner,
)


class PageRank(BlockVertexProgram):
    """Standard damped PageRank, fixed iteration count."""

    def __init__(self, num_iterations: int = 20, damping: float = 0.85) -> None:
        self.num_iterations = num_iterations
        self.damping = damping

    def max_supersteps(self) -> int:
        return self.num_iterations + 1

    def combiner_for_superstep(self, superstep: int) -> Optional[MessageCombiner]:
        return SumCombiner()

    def setup_partition(self, partition: PregelPartition) -> None:
        src_local = partition.local_indices(partition.out_src)
        partition.block_state.update(
            rank=np.ones(partition.num_nodes), src_local=src_local,
            out_degree=np.bincount(src_local, minlength=partition.num_nodes))

    def compute_partition(self, context: PartitionContext,
                          incoming: List[MessageBlock]) -> None:
        partition = context.partition
        state = partition.block_state
        if context.superstep > 0:
            received = np.zeros(partition.num_nodes)
            for block in incoming:
                received += np.bincount(partition.local_indices(block.dst_ids),
                                        weights=block.payload[:, 0],
                                        minlength=partition.num_nodes)
            state["rank"] = (1.0 - self.damping) + self.damping * received
        if context.superstep < self.num_iterations and partition.num_out_edges:
            share = state["rank"] / np.maximum(state["out_degree"], 1)
            context.send_block(MessageBlock(dst_ids=partition.out_dst,
                                            payload=share[state["src_local"]]))

    def result(self, partition: PregelPartition) -> np.ndarray:
        """The ranks: what a worker hands back when the run closes."""
        return partition.block_state["rank"]


def main() -> None:
    dataset = load_dataset("powerlaw", num_nodes=scaled(3_000, minimum=300),
                           avg_degree=8.0, skew="in", seed=2)
    graph = dataset.graph
    engine = PregelEngine(graph, num_workers=8)
    result = engine.run(PageRank(num_iterations=20))

    ranks = np.empty(graph.num_nodes)
    for partition, rank in zip(result.partitions, result.results):
        ranks[partition.node_ids] = rank
    top = np.argsort(ranks)[::-1][:5]
    print(f"PageRank over {graph.num_nodes} nodes finished in {result.num_supersteps} supersteps")
    print("top-5 nodes by rank:")
    in_degrees = graph.in_degrees()
    for node in top:
        print(f"  node {node:>6}  rank {ranks[node]:.3f}  in-degree {in_degrees[node]}")

    records = result.metrics.per_instance("records_out")
    print(f"messages sent per worker (combiner on): "
          f"min {min(records.values()):.0f}  max {max(records.values()):.0f}")


if __name__ == "__main__":
    main()
