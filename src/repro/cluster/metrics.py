"""Per-instance execution counters.

Execution engines (Pregel, MapReduce, the traditional pipeline) record what
each simulated instance did in each phase; the cost model turns that into
time.  Counters are deterministic functions of the workload, which keeps the
experiments reproducible and the property tests meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple



@dataclass
class InstanceMetrics:
    """Counters for one instance (worker) within one phase (superstep/round)."""

    phase: str
    instance_id: int
    compute_units: float = 0.0
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    records_in: int = 0
    records_out: int = 0
    peak_memory_bytes: float = 0.0
    disk_bytes: float = 0.0
    #: real (host) wall-clock seconds this instance's work took, as measured
    #: by the executor harness running it — 0 when nothing was measured.
    #: Unlike every other counter this is *not* deterministic; the cost model
    #: only uses it for its predicted-vs-measured validation path.
    measured_seconds: float = 0.0

    def merge(self, other: "InstanceMetrics") -> None:
        """Accumulate another metrics record into this one (same phase/instance)."""
        self.compute_units += other.compute_units
        self.bytes_in += other.bytes_in
        self.bytes_out += other.bytes_out
        self.records_in += other.records_in
        self.records_out += other.records_out
        self.peak_memory_bytes = max(self.peak_memory_bytes, other.peak_memory_bytes)
        self.disk_bytes += other.disk_bytes
        self.measured_seconds += other.measured_seconds


class MetricsCollector:
    """Accumulates :class:`InstanceMetrics` keyed by (phase, instance)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, int], InstanceMetrics] = {}
        self.phase_order: List[str] = []

    # ------------------------------------------------------------------ #
    def record(
        self,
        phase: str,
        instance_id: int,
        compute_units: float = 0.0,
        bytes_in: float = 0.0,
        bytes_out: float = 0.0,
        records_in: int = 0,
        records_out: int = 0,
        peak_memory_bytes: float = 0.0,
        disk_bytes: float = 0.0,
        measured_seconds: float = 0.0,
    ) -> None:
        """Add counters for one instance in one phase (accumulating)."""
        key = (phase, int(instance_id))
        if key not in self._metrics:
            self._metrics[key] = InstanceMetrics(phase=phase, instance_id=int(instance_id))
            if phase not in self.phase_order:
                self.phase_order.append(phase)
        self._metrics[key].merge(InstanceMetrics(
            phase=phase, instance_id=int(instance_id), compute_units=compute_units,
            bytes_in=bytes_in, bytes_out=bytes_out, records_in=records_in,
            records_out=records_out, peak_memory_bytes=peak_memory_bytes,
            disk_bytes=disk_bytes, measured_seconds=measured_seconds,
        ))

    # ------------------------------------------------------------------ #
    def phases(self) -> List[str]:
        return list(self.phase_order)

    def instances(self, phase: Optional[str] = None) -> List[InstanceMetrics]:
        """All instance records, optionally restricted to one phase."""
        if phase is None:
            return list(self._metrics.values())
        return [metric for (p, _), metric in self._metrics.items() if p == phase]

    def get(self, phase: str, instance_id: int) -> Optional[InstanceMetrics]:
        return self._metrics.get((phase, int(instance_id)))

    def total(self, field_name: str, phase: Optional[str] = None) -> float:
        """Sum a counter over all instances (optionally one phase)."""
        return float(sum(getattr(metric, field_name) for metric in self.instances(phase)))

    def per_instance(self, field_name: str, phase: Optional[str] = None) -> Dict[int, float]:
        """Sum a counter per instance id across phases (or within one phase)."""
        out: Dict[int, float] = {}
        for metric in self.instances(phase):
            out[metric.instance_id] = out.get(metric.instance_id, 0.0) + float(getattr(metric, field_name))
        return out

    def merge_from(self, other: "MetricsCollector") -> None:
        """Fold another collector's records into this one."""
        for (phase, instance_id), metric in other._metrics.items():
            self.record(
                phase, instance_id,
                compute_units=metric.compute_units, bytes_in=metric.bytes_in,
                bytes_out=metric.bytes_out, records_in=metric.records_in,
                records_out=metric.records_out, peak_memory_bytes=metric.peak_memory_bytes,
                disk_bytes=metric.disk_bytes, measured_seconds=metric.measured_seconds,
            )


# --------------------------------------------------------------------------- #
# wire and memory sizes
# --------------------------------------------------------------------------- #
FLOAT_BYTES = 8
ID_BYTES = 8
RECORD_OVERHEAD_BYTES = 16


def message_bytes(num_rows: int, payload_dim: int, ids_per_row: int = 1) -> float:
    """Estimated wire size of ``num_rows`` messages with ``payload_dim`` floats."""
    per_row = payload_dim * FLOAT_BYTES + ids_per_row * ID_BYTES + RECORD_OVERHEAD_BYTES
    return float(num_rows) * per_row


def tensor_bytes(shape: Iterable[int]) -> float:
    """In-memory size of a dense float tensor of the given shape."""
    total = 1.0
    for dim in shape:
        total *= float(dim)
    return total * FLOAT_BYTES
