"""Full-graph GNN inference over interchangeable backends.

The public entry point is :class:`~repro.inference.session.InferenceSession`:
load a trained model (or its exported signature), pick a backend by name,
``prepare(graph)`` once, then ``infer()`` as many times as traffic demands —
every execution reuses the cached plan (strategy resolution, shadow-node
rewrite, partition layout, Pregel partitions) and returns per-node
predictions with a simulated cluster cost breakdown::

    from repro.inference import InferenceSession, InferenceConfig, StrategyConfig

    session = InferenceSession(signature, InferenceConfig(backend="pregel",
                                                          num_workers=16))
    plan = session.prepare(graph)        # plan once
    result = session.infer()             # ...infer many
    nightly = session.infer_many(7)
    print(plan.describe(), result.cost.wall_clock_seconds)

The paper's two backends are one table, ``BACKENDS`` in
:mod:`repro.inference.backends`:

* ``"pregel"``    — memory-resident graph processing, one superstep per layer;
* ``"mapreduce"`` — storage-resident batch processing, one round per layer.

``available_backends()`` lists their names.

Hub-node optimisation strategies (paper Section IV-D):

* **partial-gather** — when a layer's aggregate stage is commutative and
  associative, messages bound for the same destination are pre-reduced on the
  sender side (Pregel combiner / MapReduce combiner), flattening the long tail
  caused by large *in*-degrees;
* **broadcast** — hub nodes whose out-edge messages are identical publish one
  payload per destination worker plus id-only references, compressing the
  traffic caused by large *out*-degrees;
* **shadow-nodes** — hub nodes are mirrored, each mirror taking a slice of the
  out-edges (and a copy of all in-edges), balancing the sending load even when
  messages differ per edge.

All three strategies drop no information, so predictions are bit-identical to
the single-machine forward pass — the property the consistency experiment
(Fig. 7) relies on.

Serving graphs drift between runs; the session's staleness contract keeps
that safe: mutate a prepared graph out of band and ``infer()`` raises
:class:`~repro.inference.delta.StalePlanError`; describe the change as a
:class:`~repro.inference.delta.GraphDelta` through
``session.apply_delta(delta)`` and ``infer(mode="incremental")`` recomputes
just the dirty k-hop region on pregel — bit-identical to a fresh full run
(mapreduce, like the paper's batch path, runs in full).  Many
small deltas between ticks coalesce: ``apply_delta(delta, defer=True)``
buffers them and the next ``infer()`` applies one merged patch,
bit-identical to eager application.

For multi-tenant serving — one deployed model scoring many prepared
graphs — :class:`~repro.inference.pool.SessionPool` keeps one session per
tenant graph handle (capacity-bounded; the pool owns a pooled handle's
arrays) so every tenant is planned once::

    from repro.inference import SessionPool

    pool = SessionPool(signature, InferenceConfig(backend="pregel"),
                       capacity=64)
    scores = pool.infer(tenant_graph).scores      # plan-cache hit after tick 0
"""

from repro.inference.backends import (
    Backend,
    ExecutionPlan,
    UnknownBackendError,
    available_backends,
    get_backend,
)
from repro.inference.config import GatewayConfig, InferenceConfig, StrategyConfig
from repro.inference.delta import (
    DeltaBuffer,
    DeltaOutcome,
    GraphDelta,
    StalePlanError,
    graph_fingerprint,
)
from repro.inference.pool import PoolStats, SessionPool
from repro.inference.session import InferenceResult, InferenceSession
from repro.inference.strategies import hub_threshold, StrategyPlan, build_strategy_plan
from repro.inference.shadow import ShadowNodePlan, apply_shadow_nodes

__all__ = [
    "InferenceConfig",
    "StrategyConfig",
    "GatewayConfig",
    "InferenceSession",
    "SessionPool",
    "PoolStats",
    "GraphDelta",
    "DeltaBuffer",
    "DeltaOutcome",
    "StalePlanError",
    "graph_fingerprint",
    "InferenceResult",
    "Backend",
    "ExecutionPlan",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "hub_threshold",
    "StrategyPlan",
    "build_strategy_plan",
    "ShadowNodePlan",
    "apply_shadow_nodes",
]
