"""A Pregel-like bulk-synchronous graph processing engine.

The graph is hash partitioned by node id (each partition holds its nodes and
their out-edges), computation proceeds in supersteps, and partitions exchange
packed :class:`~repro.pregel.vertex.MessageBlock`\\ s that are delivered at
the start of the next superstep.  Message *combiners* pre-reduce rows bound for
the same destination on the sender side — the mechanism the paper reuses for
its partial-gather strategy.

Programs are :class:`~repro.pregel.vertex.BlockVertexProgram`\\ s: one
``compute_partition(context, incoming)`` call per partition per superstep over
columnar blocks, so tensorised stages (the GNN adaptor's, or the PageRank
example's segment-sum) stay vectorised.
"""

from repro.pregel.vertex import MessageBlock, PartitionContext, BlockVertexProgram
from repro.pregel.combiners import MessageCombiner, SumCombiner, MeanCombiner, MaxCombiner
from repro.pregel.engine import PregelEngine, PregelPartition, PregelResult

__all__ = [
    "MessageBlock",
    "PartitionContext",
    "BlockVertexProgram",
    "MessageCombiner",
    "SumCombiner",
    "MeanCombiner",
    "MaxCombiner",
    "PregelEngine",
    "PregelPartition",
    "PregelResult",
]
