"""``batch_pregel`` and ``batch_mapreduce``: full passes over a hub-heavy graph.

One ``InferenceSession``, one graph, repeated full ``infer()``: the paper's
nightly scoring job.  All time is in the tensor / pregel-or-mapreduce / gnn /
shadow / layout kernels; delta, pool and gateway code never runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.inference import InferenceSession

from inferbench import probes, spec
from inferbench.common import (
    Budget,
    RunRequest,
    RunResult,
    latency_values,
    ops_per_second,
    overhead_pct,
    peak_rss_mb,
    reference_scores,
    setup_repeats,
    sim_values,
    timed_setups,
)
from inferbench.inputs import NUM_LAYERS, Digest, make_config, make_graph, make_model
from inferbench.spans import Recorder

#: Equivalence tolerance against the single-machine forward pass: the one
#: tests/test_inference_equivalence.py holds every backend to.  (The issue
#: asked for bit-identity on pregel; partial-gather pre-reduces on the sender,
#: so pregel differs from ``model.forward`` by ~2e-15 on these graphs.  What
#: *is* bit-identical is one prepared plan against itself, checked below.)
TOLERANCE = 1e-9
#: Length of each traced segment, in ops per second of ``--seconds``
#: (12 ops on pregel, 2 on mapreduce at the default 20 s).
TRACED_OPS_PER_SECOND = {"pregel": 0.6, "mapreduce": 0.1}


@dataclass
class _State:
    graph: Graph
    model: GNNModel
    session: InferenceSession
    warm_scores: np.ndarray      # the last warm-up's scores


def _scores_match(scores: np.ndarray, expected: np.ndarray,
                  repeat_of: np.ndarray) -> bool:
    """Within tolerance of the reference and bit-identical to the plan's
    previous run."""
    return (scores.shape == expected.shape
            and bool(np.allclose(scores, expected, rtol=0.0, atol=TOLERANCE))
            and bool(np.array_equal(scores, repeat_of)))


def run(backend: str, request: RunRequest) -> RunResult:
    scale, shape = request.scale, request.scale.batch
    # One warm-up suffices on mapreduce: it keeps nothing resident to warm.
    warmups = 1 if backend == "mapreduce" else scale.warmups

    def build() -> _State:
        graph = make_graph(shape, request.seed)
        model = make_model(shape)
        session = InferenceSession(model, make_config(shape, backend))
        session.prepare(graph)
        for _ in range(warmups):
            warm = session.infer()
        return _State(graph, model, session, warm.scores)

    state, setup_s = timed_setups(build, lambda old: old.session.close(),
                                  setup_repeats(request))
    expected = reference_scores(state.model, state.graph)
    recorder, spans_off = Recorder(enabled=request.traced), Recorder(enabled=False)
    budget = Budget.of(request, TRACED_OPS_PER_SECOND[backend])

    # The traced run is the same loop, shortened, alternating spans off and
    # spans on op by op: a slow minute on the box then lands on both sides of
    # ``trace.overhead_pct``.  ``latencies[True]`` are the ops with spans on.
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    results = []
    failed = 0
    while budget.more(len(latencies[False]), sum(latencies[False])):
        for spans_on in ((False, True) if request.traced else (False,)):
            rec = recorder if spans_on else spans_off
            with rec.span("op", op=rec.new_op()):
                started = time.perf_counter()
                with rec.span("session.infer"):
                    result = state.session.infer()
                latencies[spans_on].append(time.perf_counter() - started)
            # Oracle, outside the timed section: every op's scores are judged.
            if not _scores_match(request.scores_for_oracle(result.scores),
                                 expected, state.warm_scores):
                failed += 1
            results.append((result.cost, result.metrics))

    attempted = len(results)
    detail = {"n": len(latencies[False]), "edges": state.graph.num_edges,
              "oracle": f"every op within {TOLERANCE} of model.forward and "
                        "bit-identical to the warm-up run"}
    if request.traced:
        values = _per_layer(recorder, request, backend, state, results)
        values["trace.overhead_pct"] = overhead_pct(latencies[True], latencies[False])
        values["session.overhead_x"] = (spec.median(latencies[True]) * 1e3
                                        / values["gnn.reference_forward_ms.gcn"])
        detail["n_traced"] = len(latencies[True])
    else:
        values = {
            "setup_s": setup_s,
            **latency_values(latencies[False]),
            # edges scored per second; an op that failed the oracle scored none
            "throughput_per_s": (state.graph.num_edges * NUM_LAYERS
                                 * ops_per_second(latencies[False])
                                 * (attempted - failed) / attempted),
            "peak_rss_mb": peak_rss_mb(),
            **sim_values([cost for cost, _ in results]),
        }
    state.session.close()
    return RunResult(f"batch_{backend}", attempted, failed, values, detail,
                     recorder if request.traced else None)


def _per_layer(recorder: Recorder, request: RunRequest, backend: str,
               state: _State, results) -> Dict[str, float]:
    shape, scale = request.scale.batch, request.scale
    digest = Digest()
    digest.update_graph(state.graph)
    # An op costs seconds on mapreduce: one repeat per staged probe there.
    repeats = 1 if backend == "mapreduce" else min(probes.PROBE_REPEATS, scale.max_ops)
    values = probes.static_layers(recorder, shape, request.seed, state.session,
                                  state.graph, repeats)
    stage_values, _ = probes.infer_stages(recorder, state.session, repeats)
    values.update(stage_values)
    # Phase timings come from the loop's own ops when there are more of them
    # than staged executes (pregel); mapreduce keeps the staged execute's.
    if backend == "pregel":
        values.update(probes.measured_phases([metrics for _, metrics in results]))
    last_cost, last_metrics = results[-1]
    values.update(probes.simulated(last_metrics, last_cost))
    values["loadgen.input_digest"] = float(digest.value)
    return values
