"""A MapReduce-like batch processing engine.

The paper's second backend runs GNN inference as a chain of MapReduce (or
Spark) rounds: one Map round initialises node states and fans out the first
messages, then each Reduce round executes one GNN layer over the reducer's
nodes.  This package provides that substrate: jobs with ``map_partition``
(which also buckets its output, one item list per reducer) and
``reduce_partition``, row-range input splits, chains of rounds run as one
executor session whose mailbox shuffles whatever columnar items the job emits
(anything with ``num_records()`` and ``nbytes()``), and per-instance counters
(records, bytes, compute, measured seconds).
"""

from repro.batch.mapreduce import MapReduceJob, MapReduceEngine

__all__ = [
    "MapReduceJob",
    "MapReduceEngine",
]
