"""Per-tenant and gateway-level serving metrics.

The latency samples flowing in here are
:attr:`~repro.inference.session.InferenceResult.elapsed_seconds` — measured
*inside* ``InferenceSession.infer()`` (deferred-delta flush included), so the
gateway's percentiles and the pool's ``total_infer_seconds`` describe the
same clock.  The gateway never wraps its own timer around a tick.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

import numpy as np


#: Samples a :class:`LatencyWindow` keeps — recent enough that percentiles
#: and ``retry_after`` estimates track the current load, not the whole run.
WINDOW_SAMPLES = 512


class LatencyWindow:
    """A bounded window of recent latency samples with percentile queries."""

    def __init__(self) -> None:
        self._samples: Deque[float] = deque(maxlen=WINDOW_SAMPLES)

    def record(self, seconds: float) -> None:
        self._samples.append(float(seconds))

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def last(self) -> float:
        return self._samples[-1] if self._samples else 0.0

    def mean(self) -> float:
        return float(np.mean(self._samples)) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the window (0.0 when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return 0.0
        return float(np.percentile(np.fromiter(self._samples, dtype=np.float64), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


@dataclass
class TenantStats:
    """One tenant's cumulative serving counters plus current latency shape."""

    tenant_id: str
    requests: int              #: infer requests admitted (incl. in flight)
    deltas: int                #: deltas accepted and folded into buffers
    ticks: int                 #: batched executions run on the tenant's behalf
    rejections: int            #: requests refused by admission control
    queue_depth: int           #: infer requests currently waiting or in flight
    p50_tick_seconds: float
    p99_tick_seconds: float
    mean_tick_seconds: float
    last_tick_seconds: float

    @property
    def batching_factor(self) -> float:
        """Mean infer requests served per executed tick (1.0 = no batching win)."""
        return self.requests / self.ticks if self.ticks else 0.0

    def describe(self) -> str:
        return (f"{self.tenant_id}: {self.requests} req / {self.ticks} tick(s) "
                f"(x{self.batching_factor:.1f} batched), {self.deltas} delta(s), "
                f"{self.rejections} rejected, depth {self.queue_depth}, "
                f"p50 {self.p50_tick_seconds * 1e3:.1f} ms / "
                f"p99 {self.p99_tick_seconds * 1e3:.1f} ms")


@dataclass
class GatewaySnapshot:
    """Whole-gateway state at one instant."""

    tenants: List[TenantStats]
    requests: int
    deltas: int
    ticks: int
    rejections: int
    p50_tick_seconds: float
    p99_tick_seconds: float
    #: Straight copy of :class:`~repro.inference.pool.PoolStats` fields.
    pool: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"gateway: {self.requests} req / {self.ticks} tick(s), "
            f"{self.deltas} delta(s), {self.rejections} rejected, "
            f"p50 {self.p50_tick_seconds * 1e3:.1f} ms / "
            f"p99 {self.p99_tick_seconds * 1e3:.1f} ms",
        ]
        lines.extend("  " + tenant.describe() for tenant in self.tenants)
        return "\n".join(lines)


def merged_percentiles(windows: List[LatencyWindow],
                       q: float) -> float:
    """Percentile over the union of several windows' samples (0.0 when empty)."""
    samples: List[float] = []
    for window in windows:
        samples.extend(window._samples)
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))
