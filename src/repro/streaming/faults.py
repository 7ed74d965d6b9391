"""Seeded, replayable fault injection for the streaming soak harness.

A :class:`FaultPlan` is a pre-decided schedule of :class:`FaultEvent`\\ s —
like the workload trace, it is fully determined by its seed, so a soak run
can be replayed fault-for-fault.  Each event names one of three fault
kinds, whose hooks the :data:`FAULTS` table maps them to — the failure modes
the serving tier promises to survive:

* ``kill_worker`` — SIGKILL one live ``ProcessExecutor`` worker of the
  tenant's pooled session (pregel or mapreduce), mid-stream.  The next
  execution on that session observes the corpse, raises
  :class:`~repro.cluster.executor.WorkerCrashError`, resets the worker pool,
  and the retry respawns — the end-to-end recovery path under load.  On the
  serial substrate (no worker processes) the hook degrades to a recorded
  no-op, so one fault plan runs under both CI executor legs.
* ``evict_tenant`` — force the tenant's session out of the pool
  (``pool.evict``); the next touch transparently re-prepares from the
  tenant's graph handle, which already carries every mirrored delta.
* ``delay_deltas`` — hold this tick's deltas for the tenant and release them
  as a burst merged into the next tick (arrival jitter; the burst lands as
  one bigger coalesced flush).

A hook returns a human-readable outcome note; notes may contain
non-deterministic detail (pids), so the soak report keeps them separate from
the deterministic fault *schedule*.
"""

from __future__ import annotations

import os
import signal
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.executor import Executor
from repro.graph.graph import Graph
from repro.inference.backends.base import ExecutionPlan
from repro.inference.pool import SessionPool


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` against ``tenant`` at ``tick``.

    ``slot`` disambiguates within the target (e.g. which worker process the
    ``kill_worker`` hook murders); hooks are free to ignore it.
    """

    tick: int
    kind: str
    tenant: int
    slot: int = 0


class DeltaSchedule:
    """Arrival-time control the ``delay_deltas`` hook steers.

    The soak driver consults :meth:`is_delayed` before delivering a tick's
    deltas; a delayed (tenant, tick) pair is carried into the next tick and
    delivered ahead of that tick's own deltas — a burst, coalesced by the
    session's :class:`~repro.inference.delta.DeltaBuffer` into one flush.
    The shift applies to the *logical stream* (the driver feeds the faulted
    side and its oracle identically), so delaying arrival never breaks the
    faulted-equals-oracle contract — it only changes how much work one flush
    absorbs.
    """

    def __init__(self) -> None:
        self._delayed: Set[Tuple[int, int]] = set()

    def delay(self, tenant: int, tick: int) -> None:
        self._delayed.add((tenant, tick))

    def is_delayed(self, tenant: int, tick: int) -> bool:
        return (tenant, tick) in self._delayed


@dataclass
class FaultContext:
    """Everything a fault hook may act on when it fires."""

    event: FaultEvent
    pool: SessionPool
    graph: Graph           #: the target tenant's graph handle
    schedule: DeltaSchedule


def plan_executor(plan: Optional[ExecutionPlan]) -> Optional[Executor]:
    """A plan's started executor: the Pregel engine's own, or the MapReduce
    backend's in ``plan.state``.  Never builds one (it would spawn workers)."""
    if plan is None:
        return None
    engine = plan.state.get("engine")
    return plan.state.get("executor") if engine is None else engine.started_executor


def _kill_worker(ctx: FaultContext) -> str:
    """SIGKILL one live worker process of the tenant's pooled session."""
    if ctx.graph not in ctx.pool:
        return "no-op: tenant has no live pooled session"
    executor = plan_executor(ctx.pool.session_for(ctx.graph).plan)
    live = [] if executor is None else executor.live_processes()
    if not live:
        return "no-op: no live worker processes (serial substrate)"
    victim = live[ctx.event.slot % len(live)]
    pid = victim.pid
    os.kill(pid, signal.SIGKILL)
    # Wait for the corpse so the *next* execution deterministically observes
    # the dead pipe (WorkerCrashError) instead of racing the kill.
    victim.join(timeout=10.0)
    return f"killed worker pid {pid} ({len(live)} live before the kill)"


def _evict_tenant(ctx: FaultContext) -> str:
    """Force the tenant's session out of the pool (close + re-prepare later)."""
    if ctx.pool.evict(ctx.graph):
        return "evicted the tenant's pooled session"
    return "no-op: tenant not cached"


def _delay_deltas(ctx: FaultContext) -> str:
    """Shift this tick's deltas into the next tick's burst."""
    ctx.schedule.delay(ctx.event.tenant, ctx.event.tick)
    return "delayed this tick's deltas into the next tick's burst"


#: every fault kind a plan may schedule, and the hook that fires it.
FAULTS: Dict[str, Callable[[FaultContext], str]] = {
    "kill_worker": _kill_worker,
    "evict_tenant": _evict_tenant,
    "delay_deltas": _delay_deltas,
}


def available_faults() -> Set[str]:
    """The fault kinds."""
    return set(FAULTS)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of fault events.

    :meth:`generate` derives the whole schedule from ``(seed, ticks,
    tenants, kinds, rate)``; :attr:`digest` fingerprints it, so two soak
    runs can assert they injected byte-identical failure sequences.
    """

    seed: int
    ticks: int
    events: Tuple[FaultEvent, ...]

    @classmethod
    def generate(cls, seed: int, ticks: int, tenants: int,
                 kinds: Sequence[str] = ("kill_worker",),
                 rate: float = 0.1) -> "FaultPlan":
        """One fault per tick with probability ``rate``, kinds round-drawn.

        Every named kind must be a key of :data:`FAULTS` — an unknown kind
        fails here, at plan time, not ticks into a soak.
        """
        if not kinds:
            raise ValueError("kinds must name at least one fault hook")
        unknown = sorted(set(kinds) - available_faults())
        if unknown:
            raise ValueError(f"unknown fault kind(s): {unknown}; "
                             f"known: {sorted(available_faults())}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for tick in range(ticks):
            if rng.random() >= rate:
                continue
            events.append(FaultEvent(
                tick=tick,
                kind=str(kinds[int(rng.integers(0, len(kinds)))]),
                tenant=int(rng.integers(0, tenants)),
                slot=int(rng.integers(0, 64))))
        return cls(seed=seed, ticks=ticks, events=tuple(events))

    @property
    def digest(self) -> int:
        """CRC32 over the full schedule — the replayability fingerprint."""
        crc = zlib.crc32(f"faults|{self.seed}|{self.ticks}".encode())
        for event in self.events:
            crc = zlib.crc32(
                f"{event.tick}|{event.kind}|{event.tenant}|{event.slot}"
                .encode(), crc)
        return crc

    def events_at(self, tick: int) -> List[FaultEvent]:
        return [event for event in self.events if event.tick == tick]

    def schedule(self) -> List[Dict[str, object]]:
        """The deterministic schedule as JSON-ready rows."""
        return [{"tick": event.tick, "kind": event.kind,
                 "tenant": event.tenant, "slot": event.slot}
                for event in self.events]

    def describe(self) -> str:
        kinds = sorted({event.kind for event in self.events})
        return (f"fault plan[seed={self.seed}]: {len(self.events)} event(s) "
                f"over {self.ticks} tick(s) ({', '.join(kinds) or 'none'}), "
                f"digest {self.digest:#010x}")


@dataclass(frozen=True)
class FaultRecord:
    """What actually happened when a scheduled fault fired."""

    tick: int
    kind: str
    tenant: int
    note: str      #: hook outcome; may carry non-deterministic detail (pids)


class FaultInjector:
    """Fires a :class:`FaultPlan`'s events and records their outcomes."""

    def __init__(self, plan: FaultPlan) -> None:
        unknown = sorted({event.kind for event in plan.events}
                         - available_faults())
        if unknown:
            raise ValueError(f"plan schedules unknown fault kind(s): "
                             f"{unknown}")
        self.plan = plan
        self.records: List[FaultRecord] = []

    def fire(self, ctx: FaultContext) -> FaultRecord:
        """Run the hook for ``ctx.event`` and append the outcome record."""
        note = FAULTS[ctx.event.kind](ctx)
        record = FaultRecord(tick=ctx.event.tick, kind=ctx.event.kind,
                             tenant=ctx.event.tenant, note=note)
        self.records.append(record)
        return record
