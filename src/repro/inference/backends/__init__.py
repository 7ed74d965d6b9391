"""The paper's two inference backends, in one table.

* ``"pregel"``    — memory-resident graph processing (fastest);
* ``"mapreduce"`` — storage-resident batch processing (smallest footprint).

The set is closed: :data:`BACKENDS` maps each name to its one (stateless)
instance — all per-run state lives in the
:class:`~repro.inference.backends.base.ExecutionPlan` — and
:func:`get_backend` is the only lookup.  The traditional k-hop pipeline the
paper measures them against is not a backend: the experiments call
:class:`~repro.baselines.khop_pipeline.TraditionalPipeline` directly.
"""

from typing import Dict, Set

from repro.inference.backends.base import (
    Backend,
    ExecutionPlan,
    merge_hub_mirrors,
    plan_gas_execution,
)
from repro.inference.backends.pregel import PregelBackend
from repro.inference.backends.mapreduce import MapReduceBackend

BACKENDS: Dict[str, Backend] = {
    backend.name: backend for backend in (PregelBackend(), MapReduceBackend())
}


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in :data:`BACKENDS`."""


def get_backend(name: str) -> Backend:
    """Look up a backend by name, with a helpful error."""
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(repr(n) for n in sorted(BACKENDS))
        raise UnknownBackendError(
            f"unknown inference backend {name!r}; known backends: {known}"
        ) from None


def available_backends() -> Set[str]:
    """The backend names."""
    return set(BACKENDS)


__all__ = [
    "BACKENDS",
    "Backend",
    "ExecutionPlan",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "merge_hub_mirrors",
    "plan_gas_execution",
    "PregelBackend",
    "MapReduceBackend",
]
