"""Async serving tier: a concurrent multi-tenant front-end over the pool.

The layers compose bottom-up:

* :class:`~repro.inference.session.InferenceSession` — plan once, infer many
  (thread-safe; measures its own per-infer wall clock);
* :class:`~repro.inference.pool.SessionPool` — one prepared session per
  tenant graph handle, weighted eviction (thread-safe);
* :class:`ServingGateway` (this package) — an asyncio request front-end that
  batches concurrent infer requests per tick, coalesces deltas into one
  deferred flush, overlaps next-tick delta application with current-tick
  execution on worker threads, and rejects beyond a bounded queue depth with
  :class:`Overloaded`.

Quickstart::

    from repro.inference import InferenceConfig, GatewayConfig, SessionPool
    from repro.serving import ServingGateway

    pool = SessionPool(signature, InferenceConfig(backend="pregel"),
                       capacity=64)
    async with ServingGateway(pool, GatewayConfig(max_queue_depth=32)) as gw:
        gw.register("tenant-a", graph_a)
        result = await gw.infer("tenant-a")
        await gw.submit_delta("tenant-a", delta)       # coalesced
        fresh = await gw.infer("tenant-a", mode="incremental")
        print(gw.snapshot().describe())
"""

from repro.inference.config import GatewayConfig
from repro.serving.admission import AdmissionController, Overloaded
from repro.serving.gateway import ServingGateway
from repro.serving.metrics import (
    GatewaySnapshot,
    LatencyWindow,
    TenantStats,
    merged_percentiles,
)

__all__ = [
    "ServingGateway",
    "GatewayConfig",
    "AdmissionController",
    "Overloaded",
    "GatewaySnapshot",
    "LatencyWindow",
    "TenantStats",
    "merged_percentiles",
]
