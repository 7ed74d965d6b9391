"""A MapReduce-like batch processing engine.

The paper's second backend runs GNN inference as a chain of MapReduce (or
Spark) rounds: one Map round initialises node states and fans out the first
messages, then each Reduce round executes one GNN layer per node key.  This
package provides that substrate: jobs with ``map_partition`` / ``combine`` /
``reduce_partition``, a shuffle placed by the caller's partition function,
and per-instance counters (records, bytes, compute, measured seconds).
"""

from repro.batch.mapreduce import MapReduceJob, MapReduceEngine, TaskContext

__all__ = [
    "MapReduceJob",
    "MapReduceEngine",
    "TaskContext",
]
