"""Streaming soak harness: continuous-ingest traces, fault injection, soaks.

The serving tier (:mod:`repro.serving` over :class:`repro.inference.SessionPool`)
exists to run *continuously* — a long-lived stream of interleaved feature and
edge deltas punctuated by inference ticks, with worker crashes and cache
evictions happening mid-stream.  Every other benchmark in this repo measures a
one-shot run or a single-delta tick; this package is the verification layer
for the steady state:

* :mod:`repro.streaming.workload` — seeded, fully reproducible delta/request
  traces (churn rate, feature/edge mix, tenant skew, temporal snapshots,
  sliding-window neighbourhoods);
* :mod:`repro.streaming.faults` — a seeded, replayable :class:`FaultPlan` over
  three fault kinds: kill a ``ProcessExecutor`` worker mid-stream, delay a
  tick's deltas into the next tick's burst, force a pool eviction;
* :mod:`repro.streaming.soak` — the driver: runs N simulated seconds of the
  trace against a :class:`~repro.serving.ServingGateway` (or a bare pool),
  checks **every** tick's scores against a paired un-faulted oracle session,
  and emits a structured :class:`SoakReport`.

The standing contract (docs/ARCHITECTURE.md, contract #10): a faulted stream
serves scores bit-identical to its un-faulted oracle on every backend at
every tick, including the tick that recovers from an injected worker crash.
"""

from repro.streaming.faults import (
    DeltaSchedule,
    FaultContext,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    available_faults,
)
from repro.streaming.soak import (
    SOAK_SECONDS_ENV,
    SOAK_SEED_ENV,
    SoakConfig,
    SoakReport,
    run_soak,
    soak_seconds_from_env,
    soak_seed_from_env,
)
from repro.streaming.workload import (
    WorkloadConfig,
    WorkloadEvent,
    WorkloadTrace,
    generate_trace,
)

__all__ = [
    "SOAK_SECONDS_ENV",
    "SOAK_SEED_ENV",
    "DeltaSchedule",
    "FaultContext",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "SoakConfig",
    "SoakReport",
    "WorkloadConfig",
    "WorkloadEvent",
    "WorkloadTrace",
    "available_faults",
    "generate_trace",
    "run_soak",
    "soak_seconds_from_env",
    "soak_seed_from_env",
]
