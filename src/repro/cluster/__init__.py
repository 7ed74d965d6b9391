"""Cluster resource model and cost accounting.

The paper reports wall-clock time, ``cpu*min`` resource usage, per-instance
latency and per-instance IO bytes measured on Ant Group production clusters.
This package provides the analytic stand-in: execution engines record
per-instance counters (compute units, bytes in/out, records, peak memory) into
a :class:`~repro.cluster.metrics.MetricsCollector`, and the
:class:`~repro.cluster.cost_model.CostModel` converts them into simulated
wall-clock / cpu*min numbers for a configurable
:class:`~repro.cluster.resources.ClusterSpec`, including out-of-memory
detection.  Absolute values are not meaningful; relative shape (who wins, by
what factor, where the OOM cliff is) is what the experiments reproduce.
"""

from repro.cluster.resources import WorkerSpec, ClusterSpec
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import InstanceMetrics, MetricsCollector
from repro.cluster.cost_model import CostModel, CostSummary
from repro.cluster.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    SharedArrayPack,
    UnknownExecutorError,
    WorkerCrashError,
    WorkerHarness,
    available_executors,
    build_executor,
    default_executor_name,
)

__all__ = [
    "WorkerSpec",
    "ClusterSpec",
    "ClusterLayout",
    "InstanceMetrics",
    "MetricsCollector",
    "CostModel",
    "CostSummary",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "SharedArrayPack",
    "WorkerHarness",
    "UnknownExecutorError",
    "WorkerCrashError",
    "available_executors",
    "build_executor",
    "default_executor_name",
]
