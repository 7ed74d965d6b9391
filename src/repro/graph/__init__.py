"""Graph substrate: attributed directed graphs, tables, partitioning, sampling.

This package owns the representation of the input graph at three granularities:

* :class:`~repro.graph.graph.Graph` — an in-memory attributed directed graph in
  COO form with cached CSR/CSC indices, used for training and sliced into the
  Pregel engine's partitions.
* :class:`~repro.graph.tables.NodeTable` / :class:`~repro.graph.tables.EdgeTable`
  — the "data warehouse" table format (node id, features, out-neighbour ids /
  src, dst, edge features) of the paper's Section IV-C2 input; sessions and
  pools take a ``Graph``, so tables are converted once with
  :func:`~repro.graph.tables.tables_to_graph`.
* node placement (:class:`~repro.graph.partition.HashPartitioner`, ``id mod
  N``), from which the execution engine slices its own partitions.
* k-hop neighbourhood extraction and neighbour sampling — the machinery
  behind both the mini-batch training phase and the traditional
  (PyG/DGL-style) inference baseline.
"""

from repro.graph.graph import Graph
from repro.graph.tables import NodeTable, EdgeTable, graph_to_tables, tables_to_graph
from repro.graph.partition import HashPartitioner
from repro.graph.khop import khop_neighborhood, KHopSubgraph
from repro.graph.sampling import UniformNeighborSampler, FullNeighborSampler
from repro.graph import generators

__all__ = [
    "Graph",
    "NodeTable",
    "EdgeTable",
    "graph_to_tables",
    "tables_to_graph",
    "HashPartitioner",
    "khop_neighborhood",
    "KHopSubgraph",
    "UniformNeighborSampler",
    "FullNeighborSampler",
    "generators",
]
