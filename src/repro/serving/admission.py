"""Admission control: bounded per-tenant queues with retry-after hints.

A serving front-end that buffers without bound converts overload into memory
exhaustion and unbounded tail latency; the gateway instead *rejects at the
door*.  Each tenant holds at most ``max_queue_depth`` **outstanding** infer
requests — queued plus those executing in the current tick — and one more
raises :class:`Overloaded` immediately, before anything touches the session
pool, so a rejected request provably leaves pool state (entries, counters,
deferred buffers) untouched.

The ``retry_after`` hint is an estimate of when the queue will have drained
enough to admit the caller: ``ticks_to_drain * recent mean tick latency``,
falling back to :data:`DEFAULT_RETRY_AFTER_SECONDS` before any latency
history exists.
"""

from __future__ import annotations

import math

from repro.serving.metrics import LatencyWindow

#: the ``retry_after`` hint handed to a rejected request before its tenant
#: has any latency history to estimate from
DEFAULT_RETRY_AFTER_SECONDS = 0.05


class Overloaded(Exception):
    """A tenant's request queue is full; retry after ``retry_after`` seconds.

    Raised by the gateway *before* the request is enqueued or any pool state
    is touched.  ``tenant_id`` names the saturated queue; ``queue_depth`` is
    its outstanding-request count (queued plus executing) at rejection time.
    """

    def __init__(self, tenant_id: str, queue_depth: int,
                 retry_after: float) -> None:
        self.tenant_id = tenant_id
        self.queue_depth = queue_depth
        self.retry_after = retry_after
        super().__init__(
            f"tenant {tenant_id!r} is overloaded ({queue_depth} requests "
            f"outstanding); retry after {retry_after:.3f}s")


class AdmissionController:
    """Decides whether one more infer request may join a tenant's queue."""

    def __init__(self, max_queue_depth: int, max_batch: int) -> None:
        self.max_queue_depth = max_queue_depth
        self.max_batch = max_batch

    def retry_after(self, queue_depth: int, window: LatencyWindow) -> float:
        """Estimated seconds until the queue admits again.

        The queue drains up to ``max_batch`` requests per tick, each tick
        costing roughly the tenant's recent mean latency; with no history yet
        :data:`DEFAULT_RETRY_AFTER_SECONDS` stands in, and it is the floor.
        """
        mean = window.mean()
        if mean <= 0.0:
            return DEFAULT_RETRY_AFTER_SECONDS
        ticks_to_drain = max(1, math.ceil(queue_depth / self.max_batch))
        return max(DEFAULT_RETRY_AFTER_SECONDS, ticks_to_drain * mean)

    def admit(self, tenant_id: str, queue_depth: int,
              window: LatencyWindow) -> None:
        """Raise :class:`Overloaded` iff the queue is at capacity."""
        if queue_depth >= self.max_queue_depth:
            raise Overloaded(tenant_id, queue_depth,
                             self.retry_after(queue_depth, window))
