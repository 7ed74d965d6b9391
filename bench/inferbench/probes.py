"""Per-layer probes of the traced run.

Each probe calls one public function of one layer on the workload's real
arrays, inside a span named after the metric it feeds.  Nothing under
``src/`` is edited or patched: a layer that the harness cannot reach from
outside is measured by calling it the way its own caller does.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cluster.cost_model import CostModel, CostSummary
from repro.cluster.layout import ClusterLayout
from repro.cluster.metrics import MetricsCollector
from repro.gnn.model import GNNModel
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceResult,
    InferenceSession,
    SessionPool,
)
from repro.inference.delta import (
    DeltaBuffer,
    apply_delta_to_graph,
    expand_frontier,
    graph_fingerprint,
    validate_delta_against_graph,
)
from repro.inference.shadow import apply_shadow_nodes
from repro.inference.strategies import build_strategy_plan
from repro.pregel.combiners import SumCombiner
from repro.pregel.vertex import MessageBlock
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad

from inferbench import spec
from inferbench.common import reference_scores
from inferbench.inputs import Shape, copy_graph, make_config, make_graph, make_model
from inferbench.spans import Recorder

PROBE_REPEATS = 5


def probe_ms(recorder: Recorder, name: str, call: Callable[[], Any],
             repeats: int = PROBE_REPEATS, **attrs: Any) -> float:
    """Median milliseconds of ``call`` over ``repeats`` spans named ``name``."""
    for _ in range(repeats):
        with recorder.span(name, **attrs):
            call()
    return spec.median(recorder.durations_ms(name, **attrs)[-repeats:])


# --------------------------------------------------------------------------- #
# planning: graph -> strategies -> shadow rewrite -> layout -> prepare()
# --------------------------------------------------------------------------- #
def planning(recorder: Recorder, shape: Shape, seed: int, model: GNNModel,
             config: InferenceConfig, stream: int = 0) -> Dict[str, float]:
    workers = config.num_workers
    with recorder.span("graph.generate"):
        graph = make_graph(shape, seed, stream)
    with recorder.span("strategies.plan"):
        plan = build_strategy_plan(model, graph, workers, config.strategies, False)
    with recorder.span("shadow.rewrite"):
        shadow = apply_shadow_nodes(graph, plan.threshold, workers)
    with recorder.span("layout.build"):
        ClusterLayout.build(shadow.graph.num_nodes, HashPartitioner(workers))
    session = InferenceSession(model, config)
    with recorder.span("session.prepare"):
        prepared = session.prepare(copy_graph(graph))
    values = {f"{name}_ms": recorder.durations_ms(name)[-1]
              for name in ("graph.generate", "strategies.plan", "shadow.rewrite",
                           "layout.build", "session.prepare")}
    values["strategies.threshold"] = float(prepared.strategy_plan.threshold)
    values["strategies.hubs"] = float(prepared.strategy_plan.out_degree_hubs.size)
    values["shadow.mirrors"] = float(prepared.shadow_plan.num_mirrors)
    session.close()
    return values


# --------------------------------------------------------------------------- #
# kernels and routing, on the prepared plan's own edge list
# --------------------------------------------------------------------------- #
def kernels_and_routing(recorder: Recorder, session: InferenceSession) -> Dict[str, float]:
    """tensor / combiners / vertex / layout / shadow probes.

    The message matrix is what superstep 0 really scatters: the encoded state
    of every working-graph edge's source, keyed by its destination.
    """
    plan = session.plan
    working = plan.working_graph
    model = plan.model
    src, dst, nodes = working.src, working.dst, working.num_nodes
    with no_grad():
        state = model.encode(Tensor(working.node_features))
        messages = Tensor(state.data[src])
        logits = Tensor(np.ascontiguousarray(messages.data[:, :4]))
        weight = model.layers[0].linear.weight       # apply_node's [hidden, hidden] projection
        values = {
            "tensor.segment_sum_ms": probe_ms(
                recorder, "tensor.segment_sum",
                lambda: ops.segment_sum(messages, dst, nodes)),
            "tensor.segment_max_ms": probe_ms(
                recorder, "tensor.segment_max",
                lambda: ops.segment_max(messages, dst, nodes)),
            "tensor.segment_softmax_ms": probe_ms(
                recorder, "tensor.segment_softmax",
                lambda: ops.segment_softmax(logits, dst, nodes)),
            "tensor.matmul_ms": probe_ms(
                recorder, "tensor.matmul", lambda: ops.matmul(state, weight)),
            "tensor.gather_rows_ms": probe_ms(
                recorder, "tensor.gather_rows", lambda: ops.gather_rows(state, src)),
        }
    # Computed, not measured: rows read + ids read + segments written.
    values["tensor.segment_sum_mb_moved"] = (
        messages.data.nbytes + dst.nbytes + nodes * messages.shape[1] * 8) / 1e6

    block = MessageBlock(dst_ids=dst, payload=messages.data)
    owners = plan.layout.owners(dst)
    shadow = plan.shadow_plan
    values.update({
        "combiners.sum_block_ms": probe_ms(
            recorder, "combiners.sum_block",
            lambda: SumCombiner().combine_block(block)),
        "vertex.split_by_ms": probe_ms(
            recorder, "vertex.split_by",
            lambda: block.split_by(owners, plan.layout.num_partitions)),
        "layout.translate_ms": probe_ms(
            recorder, "layout.translate", lambda: plan.layout.translate(dst)),
        "shadow.expand_destinations_ms": probe_ms(
            recorder, "shadow.expand_destinations",
            lambda: shadow.expand_destinations(dst, messages.data)),
        "shadow.expand_rows_ms": probe_ms(
            recorder, "shadow.expand_rows", lambda: shadow.expand_rows(dst)),
    })
    return values


def static_layers(recorder: Recorder, shape: Shape, seed: int,
                  session: InferenceSession, graph: Graph, repeats: int,
                  stream: int = 0) -> Dict[str, float]:
    """What every traced run probes on its own graph: planning, kernels,
    routing and the three architectures."""
    values = planning(recorder, shape, seed, session.model, session.config, stream)
    values.update(kernels_and_routing(recorder, session))
    values.update(model_coverage(recorder, shape, graph, session.config.backend,
                                 repeats))
    return values


# --------------------------------------------------------------------------- #
# gnn: the three architectures, single-machine and through a session
# --------------------------------------------------------------------------- #
def model_coverage(recorder: Recorder, shape: Shape, graph: Graph, backend: str,
                   session_ops: int) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for arch in ("gcn", "sage", "gat"):
        model = make_model(shape, arch)
        values[f"gnn.reference_forward_ms.{arch}"] = probe_ms(
            recorder, "gnn.reference_forward",
            lambda: reference_scores(model, graph), repeats=3, arch=arch)
        if arch == "gcn":
            continue        # the end-to-end rows already run gcn through a session
        session = InferenceSession(model, make_config(shape, backend))
        session.prepare(copy_graph(graph))
        if backend != "mapreduce":      # it keeps nothing resident to warm
            session.infer()
        values[f"session.infer_full_ms.{arch}"] = probe_ms(
            recorder, "session.infer_full", session.infer,
            repeats=session_ops, arch=arch)
        session.close()
    return values


# --------------------------------------------------------------------------- #
# the fixed per-infer cost: fingerprint, execute, cost-model summarise
# --------------------------------------------------------------------------- #
def infer_stages(recorder: Recorder, session: InferenceSession,
                 repeats: int) -> Tuple[Dict[str, float], float]:
    """Call the stages of a full ``infer()`` one by one on ``session``'s plan.

    ``session`` must have no pending deltas: ``backend.execute`` is then a
    pure re-run that leaves every cache describing the same graph.  Returns
    the per-layer values and the median full-``infer()`` milliseconds they
    were measured beside.
    """
    plan = session.plan
    collectors: List[MetricsCollector] = []
    cost_model = CostModel(session.config.cluster)
    # The two sides of ``session.overhead_ms`` alternate, so that a slow
    # minute on the box lands on both.
    for _ in range(repeats):
        with recorder.span("session.infer"):
            session.infer()
        collectors.append(MetricsCollector())
        with recorder.span("backend.execute"):
            session.backend.execute(plan, collectors[-1])
    infer_ms = spec.median(recorder.durations_ms("session.infer")[-repeats:])
    values = {
        "backend.execute_ms": spec.median(
            recorder.durations_ms("backend.execute")[-repeats:]),
        "cost_model.summarize_ms": probe_ms(
            recorder, "cost_model.summarize",
            lambda: cost_model.summarize(collectors[-1])),
        "delta.fingerprint_ms": probe_ms(
            recorder, "delta.fingerprint", lambda: graph_fingerprint(plan.graph)),
    }
    values["session.overhead_ms"] = infer_ms - values["backend.execute_ms"]
    values.update(measured_phases(collectors, values["backend.execute_ms"]))
    return values, infer_ms


def measured_phases(collectors: Sequence[MetricsCollector],
                    execute_ms: float = 0.0) -> Dict[str, float]:
    """Per-phase ``measured_seconds`` the program already returns, as medians
    over ``collectors`` (one per op).

    Pregel phases are supersteps: a superstep lasts as long as its slowest
    instance.  MapReduce phases are map and reduce task sets; whatever
    ``backend.execute`` took beyond its tasks is coordinator shuffle and
    record handling.
    """
    supersteps: Dict[int, List[float]] = {}
    busy: List[float] = []
    straggler: List[float] = []
    map_ms: List[float] = []
    reduce_ms: List[float] = []
    for collector in collectors:
        per_instance = collector.per_instance("measured_seconds")
        seconds = list(per_instance.values())
        map_total = reduce_total = 0.0
        for phase in collector.phases():
            measured = [m.measured_seconds for m in collector.instances(phase)]
            if phase.endswith("/map"):
                map_total += sum(measured)
            elif phase.endswith("/reduce"):
                reduce_total += sum(measured)
            elif phase.startswith("superstep_"):
                index = int(phase.rsplit("_", 1)[1])
                supersteps.setdefault(index, []).append(max(measured) * 1e3)
        if supersteps:
            busy.append(sum(seconds) * 1e3)
            mean = sum(seconds) / len(seconds) if seconds else 0.0
            straggler.append(max(seconds) / mean if mean > 0 else 0.0)
        else:
            map_ms.append(map_total * 1e3)
            reduce_ms.append(reduce_total * 1e3)
    values: Dict[str, float] = {}
    if supersteps:
        for index in range(3):
            values[f"pregel.superstep_ms.{index}"] = spec.median(supersteps.get(index, []))
        values["pregel.busy_ms"] = spec.median(busy)
        values["pregel.straggler_ratio"] = spec.median(straggler)
    elif map_ms:
        values["mapreduce.map_ms"] = spec.median(map_ms)
        values["mapreduce.reduce_ms"] = spec.median(reduce_ms)
        values["mapreduce.shuffle_ms"] = max(
            0.0, execute_ms - values["mapreduce.map_ms"] - values["mapreduce.reduce_ms"])
    return values


def simulated(metrics: MetricsCollector, cost: CostSummary) -> Dict[str, float]:
    """Exact counters of one op: the deterministic half of its metrics."""
    times = list(cost.instance_times().values())
    mean = sum(times) / len(times) if times else 0.0
    return {
        "sim.compute_units": metrics.total("compute_units"),
        "sim.records_out": metrics.total("records_out"),
        "sim.peak_memory_mb": max((m.peak_memory_bytes for m in metrics.instances()),
                                  default=0.0) / 1e6,
        "sim.straggler_ratio": max(times) / mean if mean > 0 else 0.0,
    }


# --------------------------------------------------------------------------- #
# delta: the functions a deferred tick runs between buffer and plan patch
# --------------------------------------------------------------------------- #
def delta_path(recorder: Recorder, session: InferenceSession,
               deltas: Sequence[GraphDelta]) -> Dict[str, float]:
    """``deltas`` are one tick's worth, valid against ``session``'s graph.

    Everything here works on scratch copies, so the probed session is left
    exactly as it was found.
    """
    plan = session.plan
    scratch = copy_graph(plan.graph)
    buffers: List[DeltaBuffer] = []

    def buffer_add() -> None:
        buffers.append(DeltaBuffer(scratch))
        for delta in deltas:
            buffers[-1].add(delta)

    values = {
        "delta.validate_ms": probe_ms(
            recorder, "delta.validate",
            lambda: validate_delta_against_graph(scratch, deltas[0])),
        # one span buffers the whole tick; the metric is per delta
        "delta.buffer_add_ms": probe_ms(recorder, "delta.buffer_add", buffer_add)
        / len(deltas),
        "delta.buffer_merge_ms": probe_ms(
            recorder, "delta.buffer_merge", lambda: buffers[-1].merge()),
    }
    merged = buffers[-1].merge()
    for _ in range(3):
        target = copy_graph(scratch)          # copied outside the span
        with recorder.span("delta.apply_to_graph"):
            apply_delta_to_graph(target, merged)
    values["delta.apply_to_graph_ms"] = spec.median(
        recorder.durations_ms("delta.apply_to_graph")[-3:])
    feature_dirty = merged.node_ids if merged.has_feature_changes else np.empty(0, np.int64)
    topo = [ids for ids in (merged.added_dst,) if ids is not None]
    if merged.removed_edge_ids is not None:
        topo.append(scratch.dst[merged.removed_edge_ids])
    topo_dirty = np.unique(np.concatenate(topo)) if topo else np.empty(0, np.int64)
    values["delta.expand_frontier_ms"] = probe_ms(
        recorder, "delta.expand_frontier",
        lambda: expand_frontier(plan.working_graph, feature_dirty, topo_dirty,
                                plan.num_supersteps, plan.shadow_plan))

    for _ in range(PROBE_REPEATS):
        with recorder.span("session.apply_delta_defer"):
            session.apply_delta(deltas[0], defer=True)
        session.discard_pending_deltas()      # leave the session as found
    values["session.apply_delta_defer_ms"] = spec.median(
        recorder.durations_ms("session.apply_delta_defer")[-PROBE_REPEATS:])
    return values


def serving_layers(recorder: Recorder, session: InferenceSession, graph: Graph,
                   deltas: Sequence[GraphDelta], repeats: int,
                   reference_ms: float) -> Dict[str, float]:
    """Full-infer stages and the delta path of a serving workload, on a probe
    session over a copy of ``graph``: the tenant's own session must keep
    serving exactly the state its ticks left.  ``deltas`` are one tick's worth;
    ``reference_ms`` is the gcn single-machine forward ``session.overhead_x``
    is a multiple of."""
    probe = InferenceSession(session.model, session.config)
    probe.prepare(copy_graph(graph))
    probe.infer()
    values, infer_ms = infer_stages(recorder, probe, repeats)
    values["session.overhead_x"] = infer_ms / reference_ms
    values.update(delta_path(recorder, probe, deltas))
    probe.close()
    return values


# --------------------------------------------------------------------------- #
# pool: one serving tick taken apart at the pool's public seams
# --------------------------------------------------------------------------- #
def staged_tick(recorder: Recorder, pool: SessionPool, graph: Graph,
                deltas: Iterable[GraphDelta], kind: str,
                outcomes: List[bool]) -> Tuple[float, InferenceResult]:
    """``pool.apply_delta`` per delta, then ``pool.infer`` as its three public
    steps — lookup, flush, incremental run — each under its own span.

    ``deltas`` may be lazy (each generated against the live handle); that
    generation runs inside the root span but is the client's time, so it is
    recorded as ``client_s`` and left out of the returned system seconds.
    """
    spent = 0.0
    with recorder.span("tick", op=recorder.new_op(), kind=kind) as root:
        for delta in deltas:
            started = time.perf_counter()
            with recorder.span("pool.apply_delta"):
                pool.apply_delta(graph, delta, defer=True)
            spent += time.perf_counter() - started
        started = time.perf_counter()
        with recorder.span("pool.session_for"):
            session = pool.session_for(graph)
        with recorder.span("session.flush_deltas", kind=kind):
            outcomes.append(session.flush_deltas().in_place)
        with recorder.span("session.infer_incremental", kind=kind):
            result = session.infer(mode="incremental")
        spent += time.perf_counter() - started
    root["attrs"]["client_s"] = (root["end"] - root["start"]) - spent
    return spent, result


def pool_values(recorder: Recorder, pool: SessionPool,
                outcomes: Sequence[bool]) -> Dict[str, float]:
    """Pool and delta-path numbers the staged ticks and ``pool.stats`` give."""
    stats = pool.stats
    values = {
        "pool.apply_delta_ms": spec.median(recorder.durations_ms("pool.apply_delta")),
        "pool.lookup_hit_ms": spec.median(recorder.durations_ms("pool.session_for")),
        "pool.hit_rate": stats.hit_rate,
        "pool.evictions": float(stats.evictions),
        "pool.prepare_s": stats.total_prepare_seconds,
        "delta.in_place_share": sum(outcomes) / len(outcomes) if outcomes else 0.0,
        "session.replans": float(sum(s.num_replans for s in pool.sessions())),
    }
    for kind in ("feature", "edge"):
        values[f"session.flush_ms.{kind}"] = spec.median(
            recorder.durations_ms("session.flush_deltas", kind=kind))
        values[f"session.infer_incremental_ms.{kind}"] = spec.median(
            recorder.durations_ms("session.infer_incremental", kind=kind))
    return values
