"""Analytic cost model: instance counters → simulated time and resource usage.

For each phase (superstep / MapReduce round / inference batch wave) an
instance's busy time is::

    compute_units / worker.compute_rate
    + max(bytes_in, bytes_out) / worker.network_bandwidth
    + disk_bytes / worker.disk_bandwidth

The phase's wall-clock time is the **maximum** busy time across instances
(bulk-synchronous execution — stragglers dominate, which is exactly the
long-tail effect the optimisation strategies attack), and the job's wall-clock
time is the sum over phases.  ``cpu*min`` charges every instance for its own
busy time times its core count, matching how the paper reports resource usage.

Out-of-memory is reported (``CostSummary.oom``) when any instance's recorded
peak memory exceeds the worker budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.metrics import InstanceMetrics, MetricsCollector
from repro.cluster.resources import ClusterSpec


@dataclass
class PhaseCost:
    """Cost breakdown of a single phase."""

    phase: str
    wall_clock_seconds: float
    cpu_seconds: float
    total_bytes: float
    instance_seconds: Dict[int, float] = field(default_factory=dict)
    straggler_instance: int = -1
    oom_instances: List[int] = field(default_factory=list)


@dataclass
class CostSummary:
    """Aggregate cost of a whole job."""

    wall_clock_seconds: float
    cpu_minutes: float
    total_bytes: float
    phases: List[PhaseCost] = field(default_factory=list)
    oom: bool = False
    oom_instances: List[str] = field(default_factory=list)

    @property
    def wall_clock_minutes(self) -> float:
        return self.wall_clock_seconds / 60.0

    def instance_times(self, phase: Optional[str] = None) -> Dict[int, float]:
        """Total busy seconds per instance (optionally for one phase)."""
        out: Dict[int, float] = {}
        for phase_cost in self.phases:
            if phase is not None and phase_cost.phase != phase:
                continue
            for instance_id, seconds in phase_cost.instance_seconds.items():
                out[instance_id] = out.get(instance_id, 0.0) + seconds
        return out


class CostModel:
    """Convert recorded metrics into a :class:`CostSummary` for a cluster."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------ #
    def instance_seconds(self, metric: InstanceMetrics) -> float:
        """Busy time of a single instance record."""
        worker = self.cluster.worker
        compute_time = metric.compute_units / worker.compute_rate
        network_time = max(metric.bytes_in, metric.bytes_out) / worker.network_bandwidth_bytes_per_second
        disk_time = metric.disk_bytes / worker.disk_bandwidth_bytes_per_second
        return compute_time + network_time + disk_time

    def memory_exceeded(self, metric: InstanceMetrics) -> bool:
        return metric.peak_memory_bytes > self.cluster.worker.memory_bytes

    # ------------------------------------------------------------------ #
    def summarize(self, collector: MetricsCollector) -> CostSummary:
        """Compute per-phase and total costs from a metrics collector.

        An instance over the memory budget is reported, not raised: it is
        listed in ``oom_instances`` (the paper's OOM entries in Table IV).
        """
        phases: List[PhaseCost] = []
        total_wall = 0.0
        total_cpu_seconds = 0.0
        total_bytes = 0.0
        oom_instances: List[str] = []

        for phase in collector.phases():
            records = collector.instances(phase)
            instance_seconds: Dict[int, float] = {}
            phase_bytes = 0.0
            phase_oom: List[int] = []
            for metric in records:
                seconds = self.instance_seconds(metric)
                instance_seconds[metric.instance_id] = instance_seconds.get(metric.instance_id, 0.0) + seconds
                phase_bytes += metric.bytes_in + metric.bytes_out
                if self.memory_exceeded(metric):
                    phase_oom.append(metric.instance_id)
                    oom_instances.append(f"{phase}/instance{metric.instance_id}")
            if instance_seconds:
                straggler = max(instance_seconds, key=instance_seconds.get)
                wall = instance_seconds[straggler]
            else:
                straggler, wall = -1, 0.0
            cpu_seconds = sum(instance_seconds.values()) * self.cluster.worker.cpu_cores
            phases.append(PhaseCost(
                phase=phase, wall_clock_seconds=wall, cpu_seconds=cpu_seconds,
                total_bytes=phase_bytes, instance_seconds=instance_seconds,
                straggler_instance=straggler, oom_instances=phase_oom,
            ))
            total_wall += wall
            total_cpu_seconds += cpu_seconds
            total_bytes += phase_bytes

        return CostSummary(
            wall_clock_seconds=total_wall,
            cpu_minutes=total_cpu_seconds / 60.0,
            total_bytes=total_bytes,
            phases=phases,
            oom=bool(oom_instances),
            oom_instances=oom_instances,
        )


def gnn_layer_compute_units(num_messages: int, message_dim: int, num_nodes: int,
                            in_dim: int, out_dim: int) -> float:
    """Rule-of-thumb compute cost of one GNN layer on one instance.

    * gather: one pass over every message element;
    * apply_node: a dense [in_dim × out_dim] transform per node;
    * apply_edge/scatter: one pass over every outgoing message element
      (charged by the caller on the sending side).
    """
    gather_cost = float(num_messages) * float(message_dim)
    apply_cost = float(num_nodes) * float(in_dim) * float(out_dim)
    return gather_cost + apply_cost
