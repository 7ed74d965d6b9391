"""Graph substrate: attributed directed graphs, placement, sampling.

This package owns the representation of the input graph:

* :class:`~repro.graph.graph.Graph` — an in-memory attributed directed graph in
  COO form with cached CSR/CSC edge-id indexes (read by the shadow-node
  rewrite and k-hop extraction), used for training and sliced into the
  Pregel engine's partitions.  Sessions and pools take a ``Graph``; the
  paper's node-table rows (Section IV-C2) are priced where the MapReduce
  backend reads them (``mapreduce_adaptor.StateRows``).
* node placement (:class:`~repro.graph.partition.HashPartitioner`, ``id mod
  N``), from which the execution engine slices its own partitions.
* k-hop neighbourhood extraction and neighbour sampling — the machinery
  behind both the mini-batch training phase and the traditional
  (PyG/DGL-style) inference baseline.
"""

from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.graph.khop import khop_neighborhood, KHopSubgraph
from repro.graph.sampling import UniformNeighborSampler, FullNeighborSampler
from repro.graph import generators

__all__ = [
    "Graph",
    "HashPartitioner",
    "khop_neighborhood",
    "KHopSubgraph",
    "UniformNeighborSampler",
    "FullNeighborSampler",
    "generators",
]
