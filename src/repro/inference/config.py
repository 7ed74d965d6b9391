"""Configuration objects for the InferTurbo inference engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.executor import default_executor_name, executor_class
from repro.cluster.resources import ClusterSpec


@dataclass
class StrategyConfig:
    """Which hub-node strategies are enabled and how the threshold is chosen.

    The threshold follows the paper's heuristic
    ``threshold = 0.1 * total_edges / num_workers``
    (:func:`~repro.inference.strategies.hub_threshold`);
    ``hub_threshold_override`` replaces the heuristic with an explicit value,
    which the Fig. 12/13 threshold-sweep experiments use.
    """

    partial_gather: bool = True
    broadcast: bool = False
    shadow_nodes: bool = False
    hub_threshold_override: Optional[int] = None

    def describe(self) -> str:
        parts = []
        if self.partial_gather:
            parts.append("partial-gather")
        if self.broadcast:
            parts.append("broadcast")
        if self.shadow_nodes:
            parts.append("shadow-nodes")
        return "+".join(parts) if parts else "base"


@dataclass
class GatewayConfig:
    """Knobs for the asyncio serving gateway (:mod:`repro.serving`).

    Parameters
    ----------
    max_queue_depth:
        Bound on a tenant's *outstanding* infer requests — queued plus
        currently executing in its tick.  A request arriving at a full queue
        is rejected with :class:`repro.serving.Overloaded` (carrying a
        ``retry_after`` hint) instead of being enqueued — admission control
        rather than unbounded buffering, so a hot tenant cannot grow the
        event loop's memory without bound.  (With ``max_queue_depth=1``, a
        request arriving mid-tick is rejected: one outstanding at a time.)
    max_batch:
        Maximum infer requests folded into one tick's single plan-cache-hit
        execution.  Same-mode requests batch together; a mode change starts
        the next tick.
    max_concurrent_ticks:
        Worker threads executing ticks — the gateway's execution parallelism
        across tenants (one tenant's ticks are always serialised).  Real
        parallelism comes from the backend substrate (the ``process``
        executor runs compute off-GIL); these threads mainly overlap tenants
        and keep the event loop free.
    """

    max_queue_depth: int = 64
    max_batch: int = 32
    max_concurrent_ticks: int = 4

    def __post_init__(self) -> None:
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_concurrent_ticks <= 0:
            raise ValueError("max_concurrent_ticks must be positive")


@dataclass
class InferenceConfig:
    """Full configuration of an inference run.

    Parameters
    ----------
    backend:
        Name of an inference backend — ``"pregel"`` (graph processing
        system) or ``"mapreduce"`` (batch processing system).
    num_workers:
        Number of simulated instances (Pregel partitions, or MapReduce
        mappers/reducers per round).
    executor:
        Worker substrate the sharded backends run their per-partition compute
        on — ``"serial"`` (the default: instances run in-process, a full
        run's side by side on threads up to the usable CPUs, an incremental
        tick's in slot order) or ``"process"`` (one OS process per
        instance; graph partitions, feature buffers and the cluster layout
        ship once via shared memory, per-superstep message blocks travel as
        pickled numpy bundles).  Scores are identical under both — serial vs
        process is a *speed* choice, property-checked by the backend
        conformance suite.  The default follows ``$REPRO_EXECUTOR`` when set.
    cluster:
        Worker resource spec used by the cost model; defaults to the paper's
        per-backend flavour scaled down.
    strategies:
        Hub-node strategy switches (see :class:`StrategyConfig`).
    """

    backend: str = "pregel"
    num_workers: int = 8
    executor: str = field(default_factory=default_executor_name)
    cluster: Optional[ClusterSpec] = None
    strategies: StrategyConfig = field(default_factory=StrategyConfig)

    def __post_init__(self) -> None:
        # Imported lazily: the backend modules themselves import this module.
        from repro.inference.backends import get_backend

        backend = get_backend(self.backend)  # raises with the known names
        executor_class(self.executor)
        if self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.cluster is None:
            self.cluster = backend.default_cluster(self.num_workers)
        elif self.cluster.num_workers != self.num_workers:
            raise ValueError(
                f"cluster.num_workers ({self.cluster.num_workers}) does not match "
                f"num_workers ({self.num_workers}); pass a ClusterSpec sized for "
                f"{self.num_workers} workers, or omit `cluster` to use the "
                f"backend's default flavour")
