"""Tests for the MapReduce round driver, its byte accounting and the cluster cost model.

A MapReduce slot is a Pregel partition hosted by a
:class:`~repro.inference.mapreduce_adaptor.RoundHarness`; the tests below step
those harnesses by hand or drive them through a session.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.cluster.cost_model import CostModel, gnn_layer_compute_units
from repro.cluster.executor import WorkerCrashError, available_executors
from repro.cluster.metrics import (
    RECORD_OVERHEAD_BYTES,
    InstanceMetrics,
    MetricsCollector,
    tensor_bytes,
)
from repro.cluster.resources import ClusterSpec, WorkerSpec
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.graph.graph import Graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.backends import mapreduce as mapreduce_backend
from repro.inference.mapreduce_adaptor import Records, RoundHarness, StateRows
from repro.inference.pregel_adaptor import GNNInferenceProgram
from repro.inference.strategies import BroadcastMessageBlock, build_strategy_plan
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import MessageBlock


# Programs are module-level: they ship to the process executor's workers at
# ``open``, by pickle.
class ExplodingProgram(GNNInferenceProgram):
    """A program whose superstep 2 — round 1's reduce — raises."""

    def compute_partition(self, context, incoming):
        if context.superstep == 2:
            raise ArithmeticError("round 1 reduce exploded")
        super().compute_partition(context, incoming)


class ExplodingMapProgram(GNNInferenceProgram):
    """A program whose superstep 0 — round 0's map — raises."""

    def compute_partition(self, context, incoming):
        if context.superstep == 0:
            raise ArithmeticError("round 0 map exploded")
        super().compute_partition(context, incoming)


class SuicidalProgram(GNNInferenceProgram):
    """A program whose superstep 2 SIGKILLs its own worker."""

    def compute_partition(self, context, incoming):
        if context.superstep == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        super().compute_partition(context, incoming)


def round_slots(model, graph, num_workers=4, **strategies):
    """``(engine, harnesses)``: one round-driver slot per partition, unstarted."""
    plan = build_strategy_plan(model, graph, num_workers, StrategyConfig(**strategies),
                               graph.edge_features is not None)
    engine = PregelEngine(graph, num_workers=num_workers)
    program = GNNInferenceProgram(model, plan, num_outputs=graph.num_nodes)
    return engine, [RoundHarness(partition, program)
                    for partition in engine.partitions]


def step_all(harnesses, round_index, stage, mail=None):
    """One wave by hand: ``(records, mail)``, mail delivered in sender order."""
    records, delivered = [], [[] for _ in harnesses]
    for slot, harness in enumerate(harnesses):
        metrics, outgoing = harness.step((round_index, stage),
                                         [] if mail is None else mail[slot])
        records.append(metrics)
        for target, items in outgoing:
            delivered[target].extend(items)
    return records, delivered


def hub_graph():
    return powerlaw_graph(300, avg_degree=4.0, skew="both", feature_dim=6,
                          num_classes=3, seed=1)


def hub_session(executor_name):
    graph = hub_graph()
    model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
    config = InferenceConfig(
        backend="mapreduce", num_workers=4, executor=executor_name,
        strategies=StrategyConfig(partial_gather=True, broadcast=True, shadow_nodes=True))
    return InferenceSession(model, config), graph


class TestRoundDriver:
    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_between_rounds_a_step_returns_only_its_metrics(self, executor_name):
        """The coordinator relays the shuffle and sees nothing but each step's
        record; the scores come back once, through ``finish()``.  Every wave
        is full, so the in-process executor may step its slots side by side."""
        session, graph = hub_session(executor_name)
        try:
            session.prepare(graph)
            executor = session.plan.state["engine"].executor
            results, finals, fulls = [], [], []
            real_step, real_close = executor.step, executor.close

            def step(controls, full):
                fulls.append(full)
                results.extend(real_step(controls, full))
                return results[-len(controls):]

            def close():
                finals.extend(real_close())
                return finals[-executor.num_slots:]

            executor.step, executor.close = step, close
            scores = session.infer().scores
        finally:
            session.close()
        assert len(results) == 2 * 2 * 4
        assert fulls == [True] * 4          # every round computes whole slots
        assert all(type(result) is InstanceMetrics for result in results)
        assert [result.phase for result in results[::4]] == [
            "round_0/map", "round_0/reduce", "round_1/map", "round_1/reduce"]
        assert len(finals) == 4             # only the outputs come back
        assert all(type(final) is np.ndarray for final in finals)
        assert sum(final.shape[0] for final in finals) >= graph.num_nodes
        assert scores.shape == (graph.num_nodes, 3)

    def test_a_reduce_keeps_its_sends_until_the_next_map_routes_them(self):
        graph = hub_graph()
        model = build_model("sage", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        _, slots = round_slots(model, graph, partial_gather=True)
        _, mail = step_all(slots, 0, "map")
        assert all(slot.sends is None for slot in slots)
        step_all(slots, 0, "reduce", mail)
        assert all(slot.sends is not None for slot in slots)
        step_all(slots, 1, "map")
        assert all(slot.sends is None for slot in slots)     # released once routed

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_results_independent_of_worker_count(self, executor_name):
        graph = hub_graph()
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        scores = []
        for workers in (1, 4):
            session = InferenceSession(model, InferenceConfig(
                backend="mapreduce", num_workers=workers, executor=executor_name))
            try:
                scores.append(session.infer(graph).scores)
            finally:
                session.close()
        np.testing.assert_allclose(scores[0], scores[1], atol=1e-12)

    def test_partial_gather_folds_in_the_map_not_the_results(self):
        graph = hub_graph()
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        results = {flag: InferenceSession(model, InferenceConfig(
            backend="mapreduce", num_workers=4,
            strategies=StrategyConfig(partial_gather=flag))).infer(graph)
            for flag in (False, True)}
        np.testing.assert_allclose(results[True].scores, results[False].scores, atol=1e-12)
        for phase in ("round_0/map", "round_1/map"):
            assert (results[True].metrics.total("records_out", phase)
                    < results[False].metrics.total("records_out", phase))
        assert results[True].metrics.total("compute_units", "round_1/map") == 0

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_a_graph_without_edges_shuffles_only_state_rows(self, executor_name):
        """No out-edge, no message: each map moves just its slot's node rows,
        and the scores are the Pregel backend's bits."""
        graph = Graph(np.zeros(0, np.int64), np.zeros(0, np.int64),
                      node_features=np.random.default_rng(0).normal(size=(20, 4)))
        model = build_model("sage", 4, 8, 3, num_layers=2, seed=0)
        strategies = StrategyConfig(partial_gather=True, broadcast=True)
        results = {}
        for backend in ("pregel", "mapreduce"):
            session = InferenceSession(model, InferenceConfig(
                backend=backend, num_workers=4, executor=executor_name,
                strategies=strategies))
            try:
                results[backend] = session.infer(graph)
            finally:
                session.close()
        np.testing.assert_array_equal(results["mapreduce"].scores, results["pregel"].scores)
        metrics = results["mapreduce"].metrics
        for phase in ("round_0/map", "round_1/map"):
            assert metrics.total("records_out", phase) == graph.num_nodes
        assert metrics.total("records_in", "round_1/reduce") == graph.num_nodes


class TestAccountingFollowsTheData:
    """``run_instance`` counts what a task was given and what it bucketed."""

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_reducer_bytes_in_is_the_sum_of_the_bucket_totals_sent_to_it(self, executor_name):
        graph = hub_graph()
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        strategies = dict(partial_gather=True, broadcast=True, hub_threshold_override=8)
        _, slots = round_slots(model, graph, **strategies)
        mapped = []
        for harness in slots:
            metrics, outgoing = harness.step((0, "map"), [])
            assert metrics.bytes_out == sum(
                item.nbytes() for _, bucket in outgoing for item in bucket)
            mapped.append(dict(outgoing))
        for reducer_id, harness in enumerate(slots):
            incoming = [item for buckets in mapped for item in buckets.get(reducer_id, [])]
            reducer, mail = harness.step((0, "reduce"), incoming)
            assert mail == []
            assert reducer.bytes_in == sum(item.nbytes() for item in incoming) > 0
            assert reducer.records_in == sum(item.num_records() for item in incoming)
        # the same counts the engine files for a session run, on either executor
        session = InferenceSession(model, InferenceConfig(
            backend="mapreduce", num_workers=4, executor=executor_name,
            strategies=StrategyConfig(**strategies)))
        try:
            metrics = session.infer(graph).metrics
        finally:
            session.close()
        for mapper_id, buckets in enumerate(mapped):
            assert metrics.get("round_0/map", mapper_id).bytes_out == sum(
                item.nbytes() for bucket in buckets.values() for item in bucket)

    def test_a_task_is_timed_and_charged_for_what_it_bucketed(self):
        """The mapper and reducer sides of one round, stepped by hand (a
        harness is a plain object): the record a step returns is the engine's
        whole accounting for it."""
        graph = hub_graph()
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        _, slots = round_slots(model, graph, partial_gather=False)
        harness = slots[1]
        partition = harness.partition
        mapper, outgoing = harness.step((0, "map"), [])
        bucketed = [item for _, bucket in outgoing for item in bucket]
        assert (mapper.phase, mapper.instance_id) == ("round_0/map", 1)
        assert mapper.measured_seconds > 0
        assert mapper.records_in == partition.num_nodes          # raw node-table rows
        assert mapper.records_out == sum(item.num_records() for item in bucketed)
        assert mapper.bytes_out == sum(item.nbytes() for item in bucketed)
        assert mapper.disk_bytes == mapper.bytes_in + mapper.bytes_out
        # encode + one pass over the outgoing message elements
        assert mapper.compute_units == (partition.num_nodes * graph.feature_dim * 8
                                        + partition.num_out_edges * 8)
        # without a combiner every out-edge leaves as one message row
        assert sum(item.num_records() for item in bucketed
                   if isinstance(item, Records)) == partition.num_out_edges
        (own,) = [item for item in dict(outgoing)[1] if isinstance(item, StateRows)]
        assert own == harness._state_rows(tensor_bytes((partition.num_nodes, 8)))

        _, mail = step_all(slots, 0, "map")
        reducer, sent = harness.step((0, "reduce"), mail[1])
        written = harness._written()
        assert sent == [] and (reducer.phase, reducer.instance_id) == ("round_0/reduce", 1)
        assert reducer.measured_seconds > 0
        assert reducer.bytes_in == sum(item.nbytes() for item in mail[1])
        assert reducer.bytes_out == sum(item.nbytes() for item in written)
        assert reducer.records_out == sum(item.num_records() for item in written)
        assert reducer.disk_bytes == reducer.bytes_in + reducer.bytes_out

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_full_infer_moves_every_byte_a_mapper_emits_into_a_reducer(self, executor_name):
        session, graph = hub_session(executor_name)
        try:
            metrics = session.infer(graph).metrics
        finally:
            session.close()

        map_phases = [phase for phase in metrics.phases() if phase.endswith("/map")]
        assert len(map_phases) == 2
        for map_phase in map_phases:
            reduce_phase = map_phase[:-len("map")] + "reduce"
            assert (metrics.total("bytes_out", map_phase)
                    == metrics.total("bytes_in", reduce_phase) > 0)
            assert (metrics.total("records_out", map_phase)
                    == metrics.total("records_in", reduce_phase))
        # round 1 reads exactly what round 0 wrote: the rows stay on their slot
        for name in ("records", "bytes"):
            assert (metrics.total(f"{name}_in", "round_1/map")
                    == metrics.total(f"{name}_out", "round_0/reduce"))


class TestFailureAtomicity:
    """A run that fails leaves the executor, and the session, serviceable."""

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_a_stage_that_raises_once_leaves_the_session_usable(self, executor_name,
                                                                  monkeypatch):
        session, graph = hub_session(executor_name)
        try:
            before = session.infer(graph).scores
            # The backend builds its program from this name; the subclass pickles.
            monkeypatch.setattr(mapreduce_backend, "GNNInferenceProgram", ExplodingProgram)
            with pytest.raises(ArithmeticError, match="round 1 reduce exploded"):
                session.infer(graph)
            monkeypatch.undo()
            with pytest.raises(RuntimeError, match="no open harness session"):
                session.plan.state["engine"].executor.close()
            np.testing.assert_array_equal(session.infer(graph).scores, before)
        finally:
            session.close()

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_a_raising_map_reaches_the_caller_and_closes_the_session(self, executor_name,
                                                                     monkeypatch):
        """A failure in the first wave — before any reduce ran — surfaces as
        itself and leaves no half-open session behind."""
        session, graph = hub_session(executor_name)
        try:
            monkeypatch.setattr(mapreduce_backend, "GNNInferenceProgram", ExplodingMapProgram)
            with pytest.raises(ArithmeticError, match="round 0 map exploded"):
                session.infer(graph)
            monkeypatch.undo()
            with pytest.raises(RuntimeError, match="no open harness session"):
                session.plan.state["engine"].executor.close()
            result = session.infer(graph)
        finally:
            session.close()
        assert result.metrics.phases() == [
            "round_0/map", "round_0/reduce", "round_1/map", "round_1/reduce"]
        assert result.scores.shape == (graph.num_nodes, 3)

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="process executor unavailable")
    def test_a_worker_killed_mid_chain_is_a_crash_error_then_a_clean_infer(self, monkeypatch):
        session, graph = hub_session("process")
        try:
            before = session.infer(graph).scores
            monkeypatch.setattr(mapreduce_backend, "GNNInferenceProgram", SuicidalProgram)
            with pytest.raises(WorkerCrashError):
                session.infer(graph)
            monkeypatch.undo()
            np.testing.assert_array_equal(session.infer(graph).scores, before)
        finally:
            session.close()


def estimate_payload_bytes(payload):
    """The recursive per-record estimator the tuple transport was sized with —
    kept here as the reference the closed forms must reproduce."""
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (int, float, np.integer, np.floating)):
        return 8.0
    if isinstance(payload, (bytes, str)):
        return float(len(payload))
    if isinstance(payload, dict):
        return sum(estimate_payload_bytes(k) + estimate_payload_bytes(v)
                   for k, v in payload.items())
    if isinstance(payload, (list, tuple, set)):
        return sum(estimate_payload_bytes(item) for item in payload)
    return float(RECORD_OVERHEAD_BYTES)


class TestSizingOracle:
    """``Records`` and ``StateRows`` == the tagged tuple records they price."""

    @staticmethod
    def check(item, records):
        assert item.num_records() == len(records)
        assert item.nbytes() == sum(estimate_payload_bytes(record) for record in records)

    @staticmethod
    def state_rows(edge_dim):
        rng = np.random.default_rng(3)
        nbrs = [np.array([4, 9, 2]), np.array([], dtype=np.int64), np.array([7])]
        feats = ([rng.normal(size=(n.size, edge_dim)) for n in nbrs] if edge_dim
                 else [None] * 3)
        state = rng.normal(size=(3, 6))
        adjacency = sum(n.nbytes for n in nbrs) + sum(f.nbytes for f in feats if f is not None)
        return state, nbrs, feats, adjacency

    def test_message_rows(self):
        rng = np.random.default_rng(0)
        block = MessageBlock(np.array([3, 9, 3]), rng.normal(size=(3, 5)), np.array([1, 4, 1]))
        self.check(Records(block), [(int(dst), ("m", block.payload[row], int(block.counts[row])))
                                    for row, dst in enumerate(block.dst_ids)])
        assert Records(block).nbytes() == 3 * (17 + 8 * 5)

    def test_a_row_indexed_block_is_priced_as_its_dense_twin(self):
        """A block that reads its messages from a shared table (the sender's
        state) is priced by its rows' logical width, never by the table."""
        rng = np.random.default_rng(5)
        table = rng.normal(size=(2, 5))
        block = MessageBlock(np.array([3, 9, 3]), table, np.array([1, 4, 1]),
                             rows=np.array([1, 0, 1]))
        dense = MessageBlock(block.dst_ids, table[block.rows], block.counts)
        assert block.width == dense.width == 5
        assert Records(block).nbytes() == Records(dense).nbytes() == 3 * (17 + 8 * 5)
        assert Records(block).num_records() == Records(dense).num_records() == 3
        assert block.nbytes() == dense.nbytes()

    def test_broadcast_references_and_one_buckets_payload_rows(self):
        rng = np.random.default_rng(1)
        hub_ids, bucket = [40, 41], 2
        block = BroadcastMessageBlock(np.array([6, 2, 10, 6]), rows=np.array([0, 1, 1, 0]),
                                      payload=rng.normal(size=(2, 5)))
        records = [(("bc", bucket), ("p", hub, block.payload[ref]))
                   for ref, hub in enumerate(hub_ids)]
        records += [(int(dst), ("r", hub_ids[ref], 1))
                    for dst, ref in zip(block.dst_ids, block.rows)]
        self.check(Records(block), records)
        assert Records(block).nbytes() == 4 * 25 + 2 * (19 + 8 * 5)

    def test_an_uncut_broadcast_block_is_priced_as_its_bucket_pieces(self):
        """What a reducer writes is what the next map cuts it into."""
        graph = hub_graph()
        engine = PregelEngine(graph, num_workers=4)
        rng = np.random.default_rng(2)
        block = BroadcastMessageBlock(rng.integers(0, graph.num_nodes, size=40),
                                      rows=rng.integers(0, 3, size=40),
                                      payload=rng.normal(size=(3, 5)))
        pieces = [Records(piece)
                  for _, piece in block.split_by(engine.layout.owners(block.dst_ids), 4)]
        assert len(pieces) > 1
        uncut = Records(block, engine.layout)
        assert uncut.num_records() == sum(piece.num_records() for piece in pieces)
        assert uncut.nbytes() == sum(piece.nbytes() for piece in pieces)

    @pytest.mark.parametrize("edge_dim", [0, 2])
    def test_state_rows(self, edge_dim):
        state, nbrs, feats, adjacency = self.state_rows(edge_dim)
        self.check(StateRows(3, float(state.nbytes), float(adjacency)),
                   [(11 + row, ("s", state[row], nbrs[row], feats[row])) for row in range(3)])

    @pytest.mark.parametrize("edge_dim", [0, 2])
    def test_input_rows(self, edge_dim):
        state, nbrs, feats, adjacency = self.state_rows(edge_dim)
        self.check(StateRows(3, float(state.nbytes), float(adjacency), tagged=False),
                   [(11 + row, (state[row], nbrs[row], feats[row])) for row in range(3)])

    def test_output_rows(self):
        logits = np.random.default_rng(2).normal(size=(4, 3))
        self.check(StateRows(4, float(logits.nbytes)),
                   [(node, ("o", logits[row])) for row, node in enumerate([0, 5, 6, 9])])
        assert StateRows(4, float(logits.nbytes)).nbytes() == 4 * (9 + 8 * 3)

    def test_a_slots_input_rows_are_its_partitions_node_table_rows(self):
        graph = powerlaw_graph(50, avg_degree=3.0, skew="out", feature_dim=4,
                               num_classes=2, seed=5)
        graph.edge_features = np.random.default_rng(5).normal(size=(graph.num_edges, 2))
        model = build_model("sage", 4, 8, 2, num_layers=1, seed=0, edge_dim=2)
        _, slots = round_slots(model, graph, num_workers=3)
        for harness in slots:
            partition = harness.partition
            metrics, _ = harness.step((0, "map"), [])
            self.check(harness._state_rows(float(partition.node_features.nbytes),
                                           tagged=False), [
                (int(node), (graph.node_features[node], graph.out_neighbors(node),
                             graph.edge_features[graph.out_edge_ids(node)]))
                for node in partition.node_ids])
            assert metrics.bytes_in == harness._state_rows(
                float(partition.node_features.nbytes), tagged=False).nbytes()


class TestMetricsCollector:
    def test_record_and_totals(self):
        collector = MetricsCollector()
        collector.record("phase_a", 0, compute_units=10, bytes_in=100)
        collector.record("phase_a", 0, compute_units=5, bytes_in=50)
        collector.record("phase_a", 1, compute_units=1)
        assert collector.total("compute_units", "phase_a") == 16
        assert collector.get("phase_a", 0).bytes_in == 150

    def test_peak_memory_takes_max(self):
        collector = MetricsCollector()
        collector.record("p", 0, peak_memory_bytes=100)
        collector.record("p", 0, peak_memory_bytes=40)
        assert collector.get("p", 0).peak_memory_bytes == 100

    def test_per_instance_accumulates_across_phases(self):
        collector = MetricsCollector()
        collector.record("a", 0, bytes_in=10)
        collector.record("b", 0, bytes_in=15)
        collector.record("b", 1, bytes_in=3)
        per_instance = collector.per_instance("bytes_in")
        assert per_instance[0] == 25
        assert per_instance[1] == 3

    def test_phase_order_preserved(self):
        collector = MetricsCollector()
        collector.record("z_first", 0)
        collector.record("a_second", 0)
        assert collector.phases() == ["z_first", "a_second"]

    def test_add_folds_whole_records_and_keeps_no_alias(self):
        collector = MetricsCollector()
        first = InstanceMetrics("p", 0, bytes_in=5, peak_memory_bytes=3)
        collector.add(first)
        collector.add(InstanceMetrics("p", 0, bytes_in=7, measured_seconds=0.5))
        collector.add(InstanceMetrics("q", 1, records_in=2))
        assert first.bytes_in == 5           # the caller's record is not the stored one
        assert collector.get("p", 0).bytes_in == 12
        assert collector.get("p", 0).peak_memory_bytes == 3
        assert collector.get("p", 0).measured_seconds == 0.5
        assert collector.get("q", 1).records_in == 2
        assert collector.phases() == ["p", "q"]

    def test_instance_accumulators(self):
        metrics = InstanceMetrics("p", 0)
        metrics.add_compute(3)
        metrics.add_compute(4.5)
        metrics.observe_memory(100)
        metrics.observe_memory(40)
        assert metrics.compute_units == 7.5
        assert metrics.peak_memory_bytes == 100

    def test_size_estimators(self):
        assert tensor_bytes((10, 10)) == 800


class TestCostModel:
    def test_instance_seconds_composition(self):
        worker = WorkerSpec(cpu_cores=2, compute_units_per_second=100,
                            network_bandwidth_bytes_per_second=1000,
                            disk_bandwidth_bytes_per_second=500)
        model = CostModel(ClusterSpec(num_workers=1, worker=worker))
        metric = InstanceMetrics(phase="p", instance_id=0, compute_units=400,
                                 bytes_in=2000, bytes_out=1000, disk_bytes=250)
        # 400/(2*100) + 2000/1000 + 250/500 = 2 + 2 + 0.5
        assert model.instance_seconds(metric) == pytest.approx(4.5)

    def test_wall_clock_is_straggler_sum_over_phases(self):
        collector = MetricsCollector()
        collector.record("s0", 0, compute_units=100)
        collector.record("s0", 1, compute_units=400)
        collector.record("s1", 0, compute_units=200)
        worker = WorkerSpec(cpu_cores=1, compute_units_per_second=100)
        summary = CostModel(ClusterSpec(2, worker)).summarize(collector)
        assert summary.wall_clock_seconds == pytest.approx(4.0 + 2.0)
        assert summary.phases[0].straggler_instance == 1

    def test_cpu_minutes_counts_all_instances(self):
        collector = MetricsCollector()
        collector.record("s0", 0, compute_units=600)
        collector.record("s0", 1, compute_units=600)
        worker = WorkerSpec(cpu_cores=2, compute_units_per_second=10)
        summary = CostModel(ClusterSpec(2, worker)).summarize(collector)
        # each instance busy 30 s, 2 cores each -> 120 core-seconds = 2 cpu-minutes
        assert summary.cpu_minutes == pytest.approx(2.0)

    def test_oom_reported(self):
        collector = MetricsCollector()
        collector.record("s0", 0, peak_memory_bytes=100e9)
        summary = CostModel(ClusterSpec(1, WorkerSpec(memory_bytes=1e9))).summarize(collector)
        assert summary.oom
        assert summary.oom_instances

    def test_oom_names_only_the_instances_over_budget(self):
        collector = MetricsCollector()
        collector.record("s0", 0, peak_memory_bytes=100e9)
        collector.record("s0", 3, peak_memory_bytes=100e9)
        collector.record("s0", 1, peak_memory_bytes=0.5e9)
        summary = CostModel(ClusterSpec(4, WorkerSpec(memory_bytes=1e9))).summarize(collector)
        assert summary.oom
        assert summary.oom_instances == ["s0/instance0", "s0/instance3"]
        assert summary.phases[0].oom_instances == [0, 3]

    def test_no_oom_within_budget(self):
        collector = MetricsCollector()
        collector.record("s0", 0, peak_memory_bytes=0.5e9)
        collector.record("s1", 1, peak_memory_bytes=1e9)
        summary = CostModel(ClusterSpec(2, WorkerSpec(memory_bytes=1e9))).summarize(collector)
        assert not summary.oom
        assert summary.oom_instances == []
        assert all(phase.oom_instances == [] for phase in summary.phases)

    def test_instance_times_helper(self):
        collector = MetricsCollector()
        collector.record("a", 0, compute_units=100)
        collector.record("b", 0, compute_units=100)
        worker = WorkerSpec(cpu_cores=1, compute_units_per_second=100)
        summary = CostModel(ClusterSpec(1, worker)).summarize(collector)
        assert summary.instance_times()[0] == pytest.approx(2.0)
        assert summary.instance_times("a")[0] == pytest.approx(1.0)

    def test_gnn_layer_compute_units(self):
        cost = gnn_layer_compute_units(num_messages=10, message_dim=4, num_nodes=5,
                                       in_dim=3, out_dim=2)
        assert cost == 10 * 4 + 5 * 3 * 2

    def test_cluster_presets(self):
        assert ClusterSpec.pregel_default(10).total_cores == 20
        assert ClusterSpec.mapreduce_default(5).worker.memory_bytes == pytest.approx(2e9)
        assert ClusterSpec.traditional_default(3).worker.cpu_cores == 10
