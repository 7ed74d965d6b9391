"""``delta_ticks``: one tenant whose graph drifts, served tick by tick.

Closed loop, one client: the next tick starts when the previous one's scores
are back.  A tick is ``TICK_DELTAS`` deferred ``pool.apply_delta`` calls and
one ``pool.infer(mode="incremental")``.  The work is delta merge/validate,
plan patch, fingerprinting, frontier expansion and pool lookup/re-key; the
kernels only touch the dirty region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.cost_model import CostSummary
from repro.cluster.metrics import MetricsCollector
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import InferenceResult, InferenceSession, SessionPool

from inferbench import probes
from inferbench.common import (
    Budget,
    RunRequest,
    RunResult,
    latency_values,
    ops_per_second,
    overhead_pct,
    peak_rss_mb,
    setup_repeats,
    sim_values,
    timed_setups,
)
from inferbench.inputs import (
    Digest,
    TickDeltas,
    copy_graph,
    make_config,
    make_graph,
    make_model,
)
from inferbench.spans import Recorder

WORKLOAD = "delta_ticks"
WARMUP_TICKS = 2
#: Length of each traced segment, in ticks per second of ``--seconds``.
TRACED_TICKS_PER_SECOND = 1.0
KIND_TICKS = 3          # traced run: pure feature / pure edge ticks, each


@dataclass
class _State:
    graph: Graph                 # the tenant's handle: the pool mirrors onto it
    model: GNNModel
    pool: SessionPool
    deltas: TickDeltas
    digest: Digest


def _plain_tick(state: _State) -> Tuple[float, InferenceResult]:
    """The tick a client runs.  Generating a delta is the client's work, not
    the system's, so only the calls into the pool are timed."""
    spent = 0.0
    for delta in state.deltas.tick(state.graph):
        started = time.perf_counter()
        state.pool.apply_delta(state.graph, delta, defer=True)
        spent += time.perf_counter() - started
    started = time.perf_counter()
    result = state.pool.infer(state.graph, mode="incremental")
    return spent + time.perf_counter() - started, result


def run(request: RunRequest) -> RunResult:
    scale, shape = request.scale, request.scale.batch
    config = make_config(shape, "pregel", hub_threshold=scale.hub_threshold)

    def build() -> _State:
        digest = Digest()
        graph = make_graph(shape, request.seed)
        digest.update_graph(graph)
        model = make_model(shape)
        pool = SessionPool(model, config, capacity=2)
        state = _State(graph, model, pool, TickDeltas(graph, scale, request.seed, digest),
                       digest)
        pool.infer(graph)
        # The first post-delta incremental request is one full run that primes
        # the per-superstep state cache; from here on ticks are incremental.
        pool.apply_delta(graph, state.deltas.seed_delta())
        pool.infer(graph, mode="incremental")
        for _ in range(WARMUP_TICKS):
            _plain_tick(state)
        return state

    state, setup_s = timed_setups(build, lambda old: old.pool.clear(),
                                  setup_repeats(request))
    recorder = Recorder(enabled=request.traced)
    budget = Budget.of(request, TRACED_TICKS_PER_SECOND)

    def fresh_scores() -> np.ndarray:
        session = InferenceSession(state.model, config)
        session.prepare(copy_graph(state.graph))
        return session.infer().scores

    # A traced run alternates the plain tick and the staged one, so a slow
    # minute on the box lands on both sides of ``trace.overhead_pct``.
    # ``latencies[True]`` are the staged ticks.
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    results: List[Tuple[CostSummary, MetricsCollector]] = []   # never the scores
    outcomes: List[bool] = []
    failed = unjudged = 0
    while budget.more(len(latencies[False]), sum(latencies[False])):
        for staged in ((False, True) if request.traced else (False,)):
            spent, result = (
                probes.staged_tick(recorder, state.pool, state.graph,
                                   state.deltas.tick(state.graph), "mixed", outcomes)
                if staged else _plain_tick(state))
            latencies[staged].append(spent)
            results.append((result.cost, result.metrics))
            unjudged += 1
        # Oracle, between ticks: every ``oracle_every``-th and the last are
        # judged against a fresh prepare()+infer() on the mutated graph.
        done = len(latencies[False])
        last = not budget.more(done, sum(latencies[False]))
        if last or done % scale.oracle_every == 0:
            if not np.array_equal(request.scores_for_oracle(result.scores),
                                  fresh_scores()):
                failed += unjudged          # every tick since the last good check
            unjudged = 0

    attempted = len(results)
    replans = sum(session.num_replans for session in state.pool.sessions())
    if replans:
        failed = attempted               # the ticks measured a re-planning system
    detail = {"n": len(latencies[False]), "replans": replans,
              "oracle": f"every {scale.oracle_every}th tick and the last, "
                        "bit-identical to a fresh prepare()+infer(); replans == 0"}
    if request.traced:
        values = _per_layer(recorder, request, state, results, outcomes)
        values["trace.overhead_pct"] = overhead_pct(latencies[True], latencies[False])
        detail["n_traced"] = len(latencies[True])
        detail["span_coverage"] = _coverage(recorder)
    else:
        values = {
            "setup_s": setup_s,
            **latency_values(latencies[False]),
            "throughput_per_s": (ops_per_second(latencies[False])
                                 * (attempted - failed) / attempted),
            "peak_rss_mb": peak_rss_mb(),
            **sim_values([cost for cost, _ in results]),
        }
    state.pool.clear()
    return RunResult(WORKLOAD, attempted, failed, values, detail,
                     recorder if request.traced else None)


def _coverage(recorder: Recorder) -> float:
    """Share of the staged ticks' *system* time the layer spans account for
    (the client's delta generation inside the root span is not system time)."""
    own = recorder.self_times()
    total = unexplained = 0.0
    for span in recorder.spans:
        if span["name"] == "tick":
            client = span["attrs"]["client_s"]
            total += span["end"] - span["start"] - client
            unexplained += own[span["id"]] - client
    return 1.0 - unexplained / total if total > 0 else 0.0


def _per_layer(recorder: Recorder, request: RunRequest, state: _State,
               traced_results: List[Tuple[CostSummary, MetricsCollector]],
               outcomes: List[bool]) -> Dict[str, float]:
    shape, scale = request.scale.batch, request.scale
    repeats = min(probes.PROBE_REPEATS, scale.max_ops)
    session = next(state.pool.sessions())
    values = probes.static_layers(recorder, shape, request.seed, session,
                                  state.graph, repeats)
    # One mixed tick's worth, so merge and frontier expansion see both kinds.
    values.update(probes.serving_layers(
        recorder, session, state.graph,
        list(state.deltas.tick(copy_graph(state.graph))), repeats,
        values["gnn.reference_forward_ms.gcn"]))

    # What the incremental ticks themselves reported.
    values.update(probes.measured_phases([metrics for _, metrics in traced_results]))
    last_cost, last_metrics = traced_results[-1]
    values.update(probes.simulated(last_metrics, last_cost))
    # The workload's ticks are mixed; a few pure ones split flush and
    # incremental-run time by delta kind.
    for kind in ("feature", "edge"):
        for _ in range(min(KIND_TICKS, scale.max_ops)):
            probes.staged_tick(recorder, state.pool, state.graph,
                               state.deltas.tick(state.graph, kind), kind, outcomes)
    values.update(probes.pool_values(recorder, state.pool, outcomes))
    values["loadgen.input_digest"] = float(state.digest.value)
    return values
