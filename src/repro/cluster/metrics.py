"""Per-instance execution counters.

Execution engines (Pregel, MapReduce, the traditional pipeline) record what
each simulated instance did in each phase; the cost model turns that into
time.  Counters are deterministic functions of the workload, which keeps the
experiments reproducible and the property tests meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


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
    #: Unlike every other counter this is *not* deterministic, so the cost
    #: model never reads it.
    measured_seconds: float = 0.0

    def add_compute(self, units: float) -> None:
        self.compute_units += float(units)

    def observe_memory(self, bytes_used: float) -> None:
        self.peak_memory_bytes = max(self.peak_memory_bytes, float(bytes_used))

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


def run_instance(phase: str, instance_id: int, items: Sequence[Any],
                 work: Callable[[Sequence[Any], InstanceMetrics], List[List[Any]]],
                 ) -> Tuple[List[List[Any]], InstanceMetrics]:
    """Run one instance's ``work`` and account for it: ``(buckets, metrics)``.

    The one timer and the one counting site of every engine.  ``work(items,
    metrics)`` turns the instance's input items into one item list per
    destination bucket, charging compute units and observed memory to
    ``metrics`` as it goes; anything with ``num_records()`` and ``nbytes()``
    is an item.  In-volumes are summed over ``items``, out-volumes over what
    was bucketed (item sizes are integer-valued floats: exact in any order),
    and ``measured_seconds`` spans the work and the counting.
    """
    metrics = InstanceMetrics(phase, int(instance_id))
    started = time.perf_counter()
    buckets = work(items, metrics)
    metrics.records_in = sum(item.num_records() for item in items)
    metrics.bytes_in = float(sum(item.nbytes() for item in items))
    metrics.records_out = sum(item.num_records() for bucket in buckets for item in bucket)
    metrics.bytes_out = float(sum(item.nbytes() for bucket in buckets for item in bucket))
    metrics.measured_seconds = time.perf_counter() - started
    return buckets, metrics


class MetricsCollector:
    """Accumulates :class:`InstanceMetrics` keyed by (phase, instance)."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, int], InstanceMetrics] = {}
        self.phase_order: List[str] = []

    # ------------------------------------------------------------------ #
    def add(self, metric: InstanceMetrics) -> None:
        """Fold one instance's record in (accumulating per phase and instance)."""
        key = (metric.phase, int(metric.instance_id))
        if key in self._metrics:
            self._metrics[key].merge(metric)
            return
        self._metrics[key] = replace(metric, instance_id=key[1])
        if metric.phase not in self.phase_order:
            self.phase_order.append(metric.phase)

    def record(self, phase: str, instance_id: int, **counters: Any) -> None:
        """``add`` spelt as keywords (any :class:`InstanceMetrics` counter)."""
        self.add(InstanceMetrics(phase, int(instance_id), **counters))

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


# --------------------------------------------------------------------------- #
# wire and memory sizes
# --------------------------------------------------------------------------- #
FLOAT_BYTES = 8
ID_BYTES = 8
RECORD_OVERHEAD_BYTES = 16


def tensor_bytes(shape: Iterable[int]) -> float:
    """In-memory size of a dense float tensor of the given shape."""
    total = 1.0
    for dim in shape:
        total *= float(dim)
    return total * FLOAT_BYTES
