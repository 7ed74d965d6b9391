"""Pieces every workload shares: the run result, the oracle, timing loops."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.cluster.cost_model import CostSummary
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.tensor.tensor import Tensor, no_grad

from inferbench import spec
from inferbench.inputs import Scale
from inferbench.spans import Recorder

State = TypeVar("State")

#: Test seam: a function applied to the scores the oracle is about to judge.
#: The smoke test passes one that corrupts a row, and asserts the op fails.
Tamper = Optional[Callable[[np.ndarray], np.ndarray]]


@dataclass
class RunRequest:
    """What one invocation of one workload was asked to do."""

    seed: int
    seconds: float
    traced: bool
    scale: Scale
    tamper: Tamper = None

    def scores_for_oracle(self, scores: np.ndarray) -> np.ndarray:
        return scores if self.tamper is None else self.tamper(scores)


@dataclass
class RunResult:
    """Outcome of one workload run, in the benchmark contract's terms."""

    workload: str
    attempted: int
    failed: int
    #: end-to-end values (untraced run) or per-layer values (traced run).
    values: Dict[str, float]
    #: sample counts, oracle notes, phase tables: everything not a metric.
    detail: Dict[str, Any] = field(default_factory=dict)
    recorder: Optional[Recorder] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def reference_scores(model: GNNModel, graph: Graph) -> np.ndarray:
    """Single-machine full-graph forward pass: the oracle every score is
    checked against."""
    model.eval()
    with no_grad():
        return model.forward(Tensor(graph.node_features), graph.src, graph.dst,
                             num_nodes=graph.num_nodes).data


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_repeats(request: RunRequest) -> int:
    """How many times a run sets up: a traced run does not report ``setup_s``."""
    return 1 if request.traced else request.scale.setup_repeats


def timed_setups(build: Callable[[], State], discard: Callable[[State], None],
                 repeats: int) -> Tuple[State, float]:
    """Run the whole set-up ``repeats`` times; keep the last, report the median.

    One set-up is a single sample of a sub-second quantity; the median of a
    few is what ``setup_s`` reports so that work moved into set-up shows
    without the metric flapping.
    """
    started = time.perf_counter()
    state = build()
    seconds = [time.perf_counter() - started]
    for _ in range(repeats - 1):
        discard(state)
        started = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - started)
    return state, spec.median(seconds)


@dataclass
class Budget:
    """When a timed loop stops.

    The untraced run measures for ``--seconds``.  The traced run is the same
    loop shortened to a *count* of ops derived from ``--seconds`` (never from
    the clock), so its exact metrics and input digest repeat exactly for one
    seed.  Both respect the scale's op-count clamp.
    """

    scale: Scale
    seconds: float = 0.0
    ops: int = 0

    @classmethod
    def of(cls, request: RunRequest, traced_ops_per_second: float) -> "Budget":
        if not request.traced:
            return cls(request.scale, seconds=request.seconds)
        return cls(request.scale, ops=int(request.seconds * traced_ops_per_second))

    def more(self, done: int, elapsed: float) -> bool:
        if done >= self.scale.max_ops:
            return False
        return done < (self.ops or self.scale.min_ops) or elapsed < self.seconds


def latency_values(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 of the op latency in the quietest window of the run (both
    the same way, so that p90 >= p50 holds however few the samples)."""
    return {"latency_ms_p50": spec.quietest(latencies_s, spec.median) * 1e3,
            "latency_ms_p90": spec.quietest(
                latencies_s, lambda window: spec.percentile(window, 90.0)) * 1e3}


def ops_per_second(latencies_s: Sequence[float]) -> float:
    """Closed-loop rate: ops per second of op time, in the quietest window."""
    return spec.quietest(latencies_s, lambda window: window.size / float(window.sum()),
                         best=max)


def sim_values(costs: List[CostSummary]) -> Dict[str, float]:
    """The paper's simulated-cluster cost of one op (exact counts)."""
    return {"sim_wall_clock_s": spec.level([c.wall_clock_seconds for c in costs]),
            "sim_total_bytes": spec.level([c.total_bytes for c in costs]),
            "sim_cpu_min": spec.level([c.cpu_minutes for c in costs])}


def overhead_pct(traced_ms: List[float], untraced_ms: List[float]) -> float:
    """``trace.overhead_pct``: traced p50 against untraced p50, same process."""
    base = spec.median(untraced_ms)
    return (spec.median(traced_ms) - base) / base * 100.0 if base > 0 else 0.0
