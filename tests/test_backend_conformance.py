"""Cross-backend × cross-executor conformance suite.

Every backend in :data:`repro.inference.backends.BACKENDS` is
contract-checked here against the serving guarantees the rest of the system
assumes, under **every** executor substrate
(:func:`repro.cluster.executor.available_executors`):

1. **Score equivalence** — a session's scores match the traditional k-hop
   reference pipeline within the 1e-9 equivalence tolerance, on random
   power-law graphs with shadow nodes and broadcast enabled.
2. **Executor equivalence** — the process executor produces the same scores
   as the serial executor, bit for bit on every backend (executors never
   change batch shapes).
3. **Staleness contract** — an out-of-band in-place mutation after
   ``prepare()`` raises :class:`StalePlanError` instead of serving stale
   scores.
4. **Deltas keep scores current** — after ``apply_delta`` (patched in place,
   or re-planned when the hub set moves) both ``infer()`` and
   ``infer(mode="incremental")`` agree with a fresh prepare+infer bit for
   bit, including on mapreduce, which has no incremental hook.
5. **Plan reuse** — ``infer_many`` never re-plans (backend spy) and repeated
   runs are bit-identical to each other.
6. **Simulated counters** — ``compute_units`` / ``records_out`` /
   ``bytes_out`` of a full run on the GAS backends equal golden integers,
   per hub-strategy set and on both executors: the unit-level twin of "the
   benchmark's ``sim_*`` metrics must not move".
7. **Degenerate shapes** — no edges, more workers than nodes, every node a
   hub, a zero-row delta: the GAS backends still match ``model.forward``.
8. **Concurrent slots** — the in-process executor steps a full wave's slots
   side by side: the scores and every deterministic counter equal the
   one-slot-at-a-time run's, incremental ticks on the cache those slots
   wrote included; a wave with failing slots raises the lowest one's error
   once every started slot is done; two sessions sharing the helper
   threads neither deadlock nor change a bit.

The parametrisation is over ``available_backends()``, so a backend added to
the table inherits this suite.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster import executor as executor_module
from repro.cluster.executor import available_executors
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    StalePlanError,
    StrategyConfig,
)
from repro.inference.backends import available_backends
from tests.test_inference_equivalence import reference_scores

BACKENDS = sorted(available_backends())
EXECUTORS = sorted(available_executors())
NUM_WORKERS = 4
SEEDS = [0, 1, 2]

def make_graph(seed: int, num_nodes: int = 400):
    """Power-law (out-skewed) graph — the hub-strategy regime."""
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=6.0, skew="out",
                          feature_dim=8, num_classes=3, seed=seed)


def make_model():
    return build_model("sage", 8, 16, 3, num_layers=2, seed=1)


def make_config(backend: str, executor: str) -> InferenceConfig:
    """Shadow nodes + broadcast + partial-gather on, per the acceptance bar."""
    return InferenceConfig(
        backend=backend, num_workers=NUM_WORKERS, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  shadow_nodes=True, hub_threshold_override=15))


def khop_reference(model, graph) -> np.ndarray:
    """The traditional full-neighbourhood pipeline (deterministic baseline)."""
    return TraditionalPipeline(model, TraditionalConfig(
        num_workers=NUM_WORKERS)).run(graph).scores


class _PlanSpy:
    """Delegating backend wrapper counting ``plan()`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.plan_calls = 0

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def plan(self, model, graph, config):
        self.plan_calls += 1
        return self._inner.plan(model, graph, config)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendConformance:
    def test_scores_match_khop_reference(self, backend, executor):
        graph = make_graph(seed=7)
        model = make_model()
        expected = khop_reference(model, graph)
        session = InferenceSession(model, make_config(backend, executor))
        session.prepare(graph)
        try:
            # Agreement with the k-hop reference is tolerance-level by design:
            # it sums in-messages in another order (~1e-15 drift).  Bit-
            # exactness is asserted where it is promised — across runs and
            # executors (the other tests in this suite) and between the two
            # backends (test_inference_equivalence.py).
            np.testing.assert_allclose(session.infer().scores, expected,
                                       atol=1e-9)
        finally:
            session.close()

    def test_staleness_contract(self, backend, executor):
        graph = make_graph(seed=11)
        model = make_model()
        session = InferenceSession(model, make_config(backend, executor))
        session.prepare(graph)
        try:
            session.infer()
            graph.node_features[0, 0] += 1.0    # out-of-band mutation
            with pytest.raises(StalePlanError):
                session.infer()
        finally:
            session.close()

    def test_delta_keeps_scores_current(self, backend, executor):
        """Feature + edge deltas, patched in place or re-planned: the next
        infer() — full and incremental — serves post-delta scores."""
        rng = np.random.default_rng(23)
        graph = make_graph(seed=13)
        model = make_model()
        session = InferenceSession(model, make_config(backend, executor))
        session.prepare(graph)
        try:
            session.infer()
            node_ids = rng.choice(graph.num_nodes, size=12, replace=False)
            delta = GraphDelta(
                node_ids=node_ids,
                node_features=rng.normal(size=(12, graph.feature_dim)),
                added_src=rng.choice(graph.num_nodes, size=5),
                added_dst=rng.choice(graph.num_nodes, size=5),
            )
            session.apply_delta(delta)
            after = session.infer().scores
            incremental = session.infer(mode="incremental").scores

            fresh = InferenceSession(model, make_config(backend, executor))
            fresh.prepare(graph)        # graph already carries the delta
            expected = fresh.infer().scores
            fresh.close()
            np.testing.assert_array_equal(after, expected)
            np.testing.assert_array_equal(incremental, expected)
        finally:
            session.close()

    def test_infer_many_reuses_the_plan(self, backend, executor):
        graph = make_graph(seed=17)
        model = make_model()
        session = InferenceSession(model, make_config(backend, executor))
        spy = _PlanSpy(session.backend)
        session.backend = spy
        session.prepare(graph)
        try:
            results = session.infer_many(3)
            assert spy.plan_calls == 1      # the prepare(), nothing since
            for result in results[1:]:
                np.testing.assert_array_equal(result.scores, results[0].scores)
        finally:
            session.close()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeDeltaContract:
    """In-place edge deltas must be indistinguishable from a re-plan.

    A hub-preserving edge delta (adds from deep non-hub sources, removals
    whose source stays a deep non-hub) under shadow nodes must return
    ``DeltaOutcome(in_place=True)``, and the
    following full *and* incremental inferences must match a fresh
    ``prepare()+infer()`` on the post-delta graph bit for bit, on both
    executors.
    """

    def test_in_place_edge_delta_matches_fresh_replan(self, backend, executor):
        rng = np.random.default_rng(29)
        graph = make_graph(seed=19)
        model = make_model()
        session = InferenceSession(model, make_config(backend, executor))
        session.prepare(graph)
        try:
            session.infer()
            threshold = session.plan.strategy_plan.threshold
            degrees = graph.out_degrees()
            safe_sources = np.nonzero(degrees < threshold - 3)[0]
            removable = np.nonzero(degrees[graph.src] < threshold - 3)[0]
            delta = GraphDelta(
                added_src=rng.choice(safe_sources, size=20, replace=False),
                added_dst=rng.integers(0, graph.num_nodes, size=20),
                removed_edge_ids=rng.choice(removable, size=10, replace=False),
            )
            outcome = session.apply_delta(delta)
            assert outcome.in_place, outcome.reason
            after = session.infer().scores
            incremental = session.infer(mode="incremental").scores

            fresh = InferenceSession(model, make_config(backend, executor))
            fresh.prepare(graph)        # graph already carries the delta
            expected = fresh.infer().scores
            fresh.close()
            np.testing.assert_array_equal(after, expected)
            np.testing.assert_array_equal(incremental, expected)
        finally:
            session.close()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestExecutorEquivalence:
    """Acceptance bar: process scores == serial scores, property-tested on
    random power-law graphs with shadow nodes and broadcast enabled."""

    def test_process_matches_serial(self, backend, seed):
        if "process" not in EXECUTORS:  # pragma: no cover - registry safety
            pytest.skip("process executor unavailable")
        graph = make_graph(seed=seed)
        model = make_model()

        serial = InferenceSession(model, make_config(backend, "serial"))
        serial.prepare(graph)
        expected = serial.infer().scores
        serial.close()

        process = InferenceSession(model, make_config(backend, "process"))
        process.prepare(graph)
        try:
            actual = process.infer().scores
        finally:
            process.close()
        np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestStreamingDeltaConformance:
    """Every backend's ``apply_delta`` must survive a sustained stream.

    50 seeded interleaved deltas (feature refreshes + edge churn) are pushed
    through twin sessions over identical graph copies: session A applies each
    delta eagerly (``defer=False``), session B lets them coalesce in its
    :class:`DeltaBuffer` (``defer=True``) and flushes at each inference
    checkpoint.  Every 10 deltas both sides infer — scores must agree bit for
    bit at every checkpoint, not just at the end.
    """

    def test_coalesced_stream_matches_eager_application(self, backend,
                                                        executor):
        rng = np.random.default_rng(41)
        graph_eager = make_graph(seed=17)
        graph_coalesced = make_graph(seed=17)
        model = make_model()
        num_edges = graph_eager.num_edges     # virtual post-delta edge count
        num_nodes = graph_eager.num_nodes

        def next_delta() -> GraphDelta:
            nonlocal num_edges
            if rng.random() < 0.6:
                size = int(rng.integers(1, 8))
                ids = rng.choice(num_nodes, size=size, replace=False)
                return GraphDelta(
                    node_ids=ids,
                    node_features=rng.standard_normal((size, 8)))
            add = int(rng.integers(1, 5))
            remove = min(int(rng.integers(0, 3)), num_edges - 1)
            removed = (rng.choice(num_edges, size=remove, replace=False)
                       if remove else None)
            num_edges += add - remove
            return GraphDelta(
                added_src=rng.integers(0, num_nodes, size=add),
                added_dst=rng.integers(0, num_nodes, size=add),
                removed_edge_ids=removed)

        eager = InferenceSession(model, make_config(backend, executor))
        eager.prepare(graph_eager)
        coalesced = InferenceSession(model, make_config(backend, executor))
        coalesced.prepare(graph_coalesced)
        checkpoints = 0
        try:
            for index in range(50):
                delta = next_delta()
                eager.apply_delta(delta, defer=False)
                coalesced.apply_delta(delta, defer=True)
                if (index + 1) % 10 == 0:
                    mode = "incremental" if (index + 1) % 20 == 0 else "full"
                    expected = eager.infer(mode=mode).scores
                    actual = coalesced.infer(mode=mode).scores
                    np.testing.assert_array_equal(actual, expected)
                    checkpoints += 1
        finally:
            eager.close()
            coalesced.close()
        assert checkpoints == 5


ALL_ON = dict(partial_gather=True, broadcast=True, shadow_nodes=True)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend", ["mapreduce", "pregel"])
class TestDegenerateShapes:
    """Shapes at the edge of what a transport sees: empty blocks, empty
    workers, nothing but hubs, a delta that changes nothing.  Scores stay
    within the contract tolerance of ``model.forward``."""

    @staticmethod
    def check(backend, executor, graph, num_workers=NUM_WORKERS, delta=None,
              **strategies):
        model = make_model()
        session = InferenceSession(model, InferenceConfig(
            backend=backend, num_workers=num_workers, executor=executor,
            strategies=StrategyConfig(**strategies)))
        session.prepare(graph)
        try:
            scores = session.infer().scores
            np.testing.assert_allclose(scores, reference_scores(model, graph),
                                       rtol=0.0, atol=1e-9)
            # Twice: on pregel the first incremental request after a delta
            # primes the lazy cache with a full run, the second splices.
            for _ in range(2 if delta is not None else 0):
                assert session.apply_delta(delta).in_place
                np.testing.assert_array_equal(
                    session.infer(mode="incremental").scores, scores)
            assert session.num_replans == 0
        finally:
            session.close()

    def test_graph_without_edges(self, backend, executor):
        graph = make_graph(seed=3, num_nodes=40)
        empty = np.empty(0, dtype=np.int64)
        self.check(backend, executor,
                   Graph(empty, empty, graph.node_features, num_nodes=40), **ALL_ON)

    def test_more_workers_than_nodes(self, backend, executor):
        self.check(backend, executor, make_graph(seed=4, num_nodes=5),
                   num_workers=8, **ALL_ON)

    def test_every_node_a_hub(self, backend, executor):
        self.check(backend, executor, make_graph(seed=5, num_nodes=60),
                   hub_threshold_override=1, **ALL_ON)

    def test_zero_row_delta_then_incremental(self, backend, executor):
        graph = make_graph(seed=6, num_nodes=80)
        nothing = GraphDelta(node_ids=np.empty(0, dtype=np.int64),
                             node_features=np.empty((0, graph.feature_dim)))
        self.check(backend, executor, graph, delta=nothing,
                   hub_threshold_override=15, **ALL_ON)


#: (compute_units, bytes_out, records_out) of one full ``infer()`` on
#: ``make_graph(seed=0)`` / ``make_model()`` / 4 workers / hub threshold 15,
#: recorded before the GAS stages were unified.  A stage refactor must
#: reproduce them exactly; a change that means to move simulated cost updates
#: them and says why.  The three mapreduce partial-gather rows were
#: re-recorded when MapReduce slot ``i`` began mapping the rows Pregel
#: partition ``i`` owns (its combiner now folds the same message subsets, so
#: compute equals pregel's; was PG 382592 / 887665 / 6137, PG+BC 405296 /
#: 745660 / 7916, PG+BC+SN 449120 / 911574 / 9458).  Recipe: the body of
#: ``test_simulated_counters_match_golden`` for that row, printing ``counters``.
GOLDEN_COUNTERS = {
    ("pregel", "base"): (414400, 661200, 4350),
    ("pregel", "PG"): (382688, 359936, 2368),
    ("pregel", "PG+BC"): (405248, 337856, 3778),
    ("pregel", "PG+BC+SN"): (449312, 428112, 4296),
    ("mapreduce", "base"): (414400, 1175925, 8125),
    ("mapreduce", "PG"): (382688, 888535, 6143),
    ("mapreduce", "PG+BC"): (405248, 745225, 7913),
    ("mapreduce", "PG+BC+SN"): (449312, 913167, 9469),
}
STRATEGY_SETS = {
    "base": dict(partial_gather=False, broadcast=False, shadow_nodes=False),
    "PG": dict(partial_gather=True, broadcast=False, shadow_nodes=False),
    "PG+BC": dict(partial_gather=True, broadcast=True, shadow_nodes=False),
    "PG+BC+SN": dict(partial_gather=True, broadcast=True, shadow_nodes=True),
}


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("backend,strategies", sorted(GOLDEN_COUNTERS))
def test_simulated_counters_match_golden(backend, strategies, executor):
    config = InferenceConfig(
        backend=backend, num_workers=NUM_WORKERS, executor=executor,
        strategies=StrategyConfig(hub_threshold_override=15,
                                  **STRATEGY_SETS[strategies]))
    session = InferenceSession(make_model(), config)
    try:
        metrics = session.infer(make_graph(seed=0)).metrics
    finally:
        session.close()
    counters = tuple(int(metrics.total(name))
                     for name in ("compute_units", "bytes_out", "records_out"))
    assert counters == GOLDEN_COUNTERS[backend, strategies]


@pytest.mark.parametrize("strategies", sorted(STRATEGY_SETS))
def test_backends_spend_the_same_compute_units(strategies):
    """A mapreduce slot maps the rows its Pregel partition owns, so the two
    backends fold the same message subsets and charge the same compute."""
    assert (GOLDEN_COUNTERS["mapreduce", strategies][0]
            == GOLDEN_COUNTERS["pregel", strategies][0])


# --------------------------------------------------------------------------- #
# the in-process executor's concurrent full waves
# --------------------------------------------------------------------------- #
def slot_width(monkeypatch, width):
    """Step full waves ``width`` slots at a time (``None``: the box's CPUs)."""
    if width is not None:
        monkeypatch.setattr(executor_module, "usable_cpus", lambda: width)


def deterministic_record(result):
    """Everything a run reports but host time: the scores' bytes, every
    (phase, instance) record without ``measured_seconds``, and the cost."""
    records = sorted(dataclasses.astuple(dataclasses.replace(metric, measured_seconds=0.0))
                     for metric in result.metrics.instances())
    cost = result.cost
    return (result.scores.tobytes(), records, cost.wall_clock_seconds,
            cost.cpu_minutes, cost.total_bytes)


def tick_deltas(rng, graph, threshold):
    """One tick: fresh feature rows, and edges added and removed at sources
    far below the hub ``threshold``, so the delta lands in place."""
    low = np.flatnonzero(graph.out_degrees() < threshold // 3)
    removable = np.flatnonzero(np.isin(graph.src, low))
    return [GraphDelta(node_ids=rng.choice(graph.num_nodes, 6, replace=False),
                       node_features=rng.standard_normal((6, graph.feature_dim))),
            GraphDelta(added_src=rng.choice(low, 4), added_dst=rng.choice(low, 4),
                       removed_edge_ids=rng.choice(removable, 3, replace=False))]


def serial_session(backend, strategies="PG+BC+SN"):
    return InferenceSession(make_model(), InferenceConfig(
        backend=backend, num_workers=NUM_WORKERS, executor="serial",
        strategies=StrategyConfig(hub_threshold_override=15,
                                  **STRATEGY_SETS[strategies])))


def full_then_ticks(backend, strategies):
    """A full run, then two ticks of deltas each served incrementally (on
    pregel the first fills the state cache with a full run, the second
    splices into it): each run's :func:`deterministic_record`."""
    rng = np.random.default_rng(17)
    graph = make_graph(seed=0)
    session = serial_session(backend, strategies)
    try:
        runs = [deterministic_record(session.infer(graph))]
        for _ in range(2):
            for delta in tick_deltas(rng, graph, 15):
                assert session.apply_delta(delta).in_place
            runs.append(deterministic_record(session.infer(mode="incremental")))
        assert session.num_replans == 0
    finally:
        session.close()
    return runs


@pytest.mark.parametrize("width", [None, 4], ids=["box-cpus", "four-slots"])
@pytest.mark.parametrize("strategies", sorted(STRATEGY_SETS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_slots_change_no_bit_and_no_counter(backend, strategies, width,
                                                       monkeypatch):
    slot_width(monkeypatch, 1)
    one_at_a_time = full_then_ticks(backend, strategies)
    monkeypatch.undo()
    slot_width(monkeypatch, width)
    assert full_then_ticks(backend, strategies) == one_at_a_time


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_full_wave_raises_its_lowest_failing_slot(backend, monkeypatch):
    """Slots 1 and 3 of the first wave raise, slot 3 first: slot 1's error
    surfaces, only after every started slot's step is done, and the
    session's next infer equals a fresh session's."""
    from repro.inference.mapreduce_adaptor import RoundHarness
    from repro.pregel.engine import PregelPartitionHarness

    harness = RoundHarness if backend == "mapreduce" else PregelPartitionHarness
    real_step = harness.step
    lock = threading.Lock()
    running, raised = [0], []

    def step(self, control, incoming):
        slot = self.partition.partition_id
        with lock:
            running[0] += 1
        try:
            if control[0] == 0 and slot in (1, 3):
                if slot == 1:
                    time.sleep(0.05)
                with lock:
                    raised.append(slot)
                raise RuntimeError(f"slot {slot} failed")
            return real_step(self, control, incoming)
        finally:
            with lock:
                running[0] -= 1

    graph = make_graph(seed=2)
    session = serial_session(backend)
    fresh = serial_session(backend)
    try:
        session.prepare(graph)
        slot_width(monkeypatch, 4)
        monkeypatch.setattr(harness, "step", step)
        with pytest.raises(RuntimeError, match="slot 1 failed"):
            session.infer()
        assert running[0] == 0 and 1 in raised
        monkeypatch.undo()
        assert (deterministic_record(session.infer())
                == deterministic_record(fresh.infer(make_graph(seed=2))))
    finally:
        session.close()
        fresh.close()


def test_two_sessions_share_the_helpers_without_deadlock(monkeypatch):
    """Two threads run full infers at once, each wave wider than the box
    when it has one CPU: nobody waits on a helper the other holds, and the
    scores equal the one-slot-at-a-time ones."""
    graphs = {backend: make_graph(seed=8 + index) for index, backend in enumerate(BACKENDS)}
    slot_width(monkeypatch, 1)
    expected = {}
    for backend, graph in graphs.items():
        session = serial_session(backend)
        try:
            expected[backend] = session.infer(graph).scores
        finally:
            session.close()
    slot_width(monkeypatch, 3)
    errors = []

    def serve(backend):
        session = serial_session(backend)
        try:
            session.prepare(graphs[backend])
            for _ in range(6):
                np.testing.assert_array_equal(session.infer().scores, expected[backend])
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)
        finally:
            session.close()

    threads = [threading.Thread(target=serve, args=(backend,)) for backend in BACKENDS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "deadlocked"
    assert errors == []
