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

Out-of-memory is declared when any instance's recorded peak memory exceeds the
worker budget; callers may either ask for a report (``check_memory=False``)
or let the model raise :class:`~repro.cluster.resources.OutOfMemoryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.metrics import InstanceMetrics, MetricsCollector
from repro.cluster.resources import ClusterSpec, OutOfMemoryError


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
class PhaseValidation:
    """Predicted vs measured timing of one phase, instance by instance.

    ``predicted`` holds the cost model's busy seconds per instance;
    ``measured`` the real wall-clock seconds each instance's executor harness
    reported (one OS process per instance under the process executor, the
    shared calling process under the serial one).  The phase-level wall
    clocks take the straggler (max) on both sides, mirroring how the
    bulk-synchronous model prices a phase.
    """

    phase: str
    predicted: Dict[int, float] = field(default_factory=dict)
    measured: Dict[int, float] = field(default_factory=dict)

    @property
    def predicted_wall_seconds(self) -> float:
        return max(self.predicted.values(), default=0.0)

    @property
    def measured_wall_seconds(self) -> float:
        return max(self.measured.values(), default=0.0)

    @property
    def stragglers_match(self) -> bool:
        """Whether predicted and measured agree on which instance dominates."""
        if not self.predicted or not self.measured:
            return False
        return (max(self.predicted, key=self.predicted.get)
                == max(self.measured, key=self.measured.get))


@dataclass
class CostValidation:
    """Job-level roll-up of the predicted-vs-measured comparison.

    The absolute scale of the two sides is not comparable — predictions price
    a configurable simulated cluster, measurements time this host — so the
    meaningful signals are *relative*: ``time_scale`` (one global factor
    mapping predicted to measured seconds) and ``straggler_match_rate`` (how
    often the model points at the instance that really dominated the phase —
    the long-tail shape the paper's strategies attack).
    """

    phases: List[PhaseValidation] = field(default_factory=list)

    @property
    def predicted_total_seconds(self) -> float:
        return sum(phase.predicted_wall_seconds for phase in self.phases)

    @property
    def measured_total_seconds(self) -> float:
        return sum(phase.measured_wall_seconds for phase in self.phases)

    @property
    def time_scale(self) -> float:
        """measured / predicted total wall seconds (0 when nothing predicted)."""
        predicted = self.predicted_total_seconds
        return self.measured_total_seconds / predicted if predicted > 0 else 0.0

    @property
    def straggler_match_rate(self) -> float:
        """Fraction of phases whose dominant instance the model identified."""
        comparable = [phase for phase in self.phases
                      if phase.predicted and phase.measured]
        if not comparable:
            return 0.0
        return sum(phase.stragglers_match for phase in comparable) / len(comparable)

    def describe(self) -> str:
        return (f"{len(self.phases)} phase(s): predicted "
                f"{self.predicted_total_seconds:.3f}s vs measured "
                f"{self.measured_total_seconds:.3f}s wall "
                f"(scale {self.time_scale:.3g}, straggler agreement "
                f"{100.0 * self.straggler_match_rate:.0f}%)")


@dataclass
class CostSummary:
    """Aggregate cost of a whole job."""

    wall_clock_seconds: float
    cpu_minutes: float
    total_bytes: float
    phases: List[PhaseCost] = field(default_factory=list)
    oom: bool = False
    oom_instances: List[str] = field(default_factory=list)
    #: predicted-vs-measured comparison, present when the executed run carried
    #: real per-instance wall-clock measurements (see
    #: :attr:`~repro.cluster.metrics.InstanceMetrics.measured_seconds`).
    validation: Optional[CostValidation] = None

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
    def summarize(self, collector: MetricsCollector, check_memory: bool = False,
                  validate_measured: Optional[bool] = None) -> CostSummary:
        """Compute per-phase and total costs from a metrics collector.

        With ``check_memory=True`` an :class:`OutOfMemoryError` is raised as
        soon as any instance exceeds the memory budget (mirroring the paper's
        OOM entries in Table IV); otherwise the OOM condition is only reported
        in the summary.

        ``validate_measured`` controls the predicted-vs-measured path: when a
        run carried real per-instance wall-clock measurements (the executor
        harnesses record :attr:`~repro.cluster.metrics.InstanceMetrics.measured_seconds`
        — one OS process per instance under the process executor), the summary
        gains a :class:`CostValidation` comparing the model's predicted
        instance-seconds against them.  ``None`` (default) attaches it
        whenever measurements are present, ``True`` forces attachment (raising
        ``ValueError`` when nothing was measured), ``False`` skips it.
        """
        phases: List[PhaseCost] = []
        validations: List[PhaseValidation] = []
        any_measured = False
        total_wall = 0.0
        total_cpu_seconds = 0.0
        total_bytes = 0.0
        oom_instances: List[str] = []

        for phase in collector.phases():
            records = collector.instances(phase)
            instance_seconds: Dict[int, float] = {}
            measured_seconds: Dict[int, float] = {}
            phase_bytes = 0.0
            phase_oom: List[int] = []
            for metric in records:
                seconds = self.instance_seconds(metric)
                instance_seconds[metric.instance_id] = instance_seconds.get(metric.instance_id, 0.0) + seconds
                phase_bytes += metric.bytes_in + metric.bytes_out
                if metric.measured_seconds > 0.0:
                    any_measured = True
                    measured_seconds[metric.instance_id] = (
                        measured_seconds.get(metric.instance_id, 0.0)
                        + metric.measured_seconds)
                if self.memory_exceeded(metric):
                    phase_oom.append(metric.instance_id)
                    label = f"{phase}/instance{metric.instance_id}"
                    oom_instances.append(label)
                    if check_memory:
                        raise OutOfMemoryError(label, metric.peak_memory_bytes,
                                               self.cluster.worker.memory_bytes)
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
            validations.append(PhaseValidation(
                phase=phase, predicted=dict(instance_seconds),
                measured=measured_seconds,
            ))
            total_wall += wall
            total_cpu_seconds += cpu_seconds
            total_bytes += phase_bytes

        if validate_measured is True and not any_measured:
            raise ValueError(
                "validate_measured=True but the collector carries no "
                "measured_seconds — run through an executor that records "
                "per-instance wall clock first")
        validation = None
        if validate_measured is not False and any_measured:
            validation = CostValidation(phases=validations)

        return CostSummary(
            wall_clock_seconds=total_wall,
            cpu_minutes=total_cpu_seconds / 60.0,
            total_bytes=total_bytes,
            phases=phases,
            oom=bool(oom_instances),
            oom_instances=oom_instances,
            validation=validation,
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
