"""Tests for the MapReduce engine, its byte accounting and the cluster cost model."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.batch.mapreduce import MapReduceEngine, MapReduceJob, RoundHarness
from repro.cluster.cost_model import CostModel, gnn_layer_compute_units
from repro.cluster.executor import WorkerCrashError, available_executors, build_executor
from repro.cluster.metrics import (
    RECORD_OVERHEAD_BYTES,
    InstanceMetrics,
    MetricsCollector,
    message_bytes,
    tensor_bytes,
)
from repro.cluster.resources import ClusterSpec, WorkerSpec
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.inference.backends import mapreduce as mapreduce_backend
from repro.inference.mapreduce_adaptor import GNNRoundJob, Records, StateBlock, input_rows
from repro.inference.strategies import BroadcastMessageBlock
from repro.pregel.vertex import MessageBlock


# Items and jobs are module-level: jobs ship to the process executor's workers
# at ``open`` and items as step controls and mail, all by pickle.
class Tokens:
    """The smallest item the engine moves: token ids, one count each."""

    def __init__(self, tokens, counts=None):
        self.tokens = np.asarray(tokens, dtype=np.int64)
        self.counts = (np.ones(self.tokens.size, dtype=np.int64) if counts is None
                       else np.asarray(counts, dtype=np.int64))

    def __len__(self):
        return self.tokens.size

    def take(self, rows):
        return Tokens(self.tokens[rows], self.counts[rows])

    def num_records(self):
        return self.tokens.size

    def nbytes(self):
        return float(self.tokens.nbytes + self.counts.nbytes)

    def fold(self):
        tokens, inverse = np.unique(self.tokens, return_inverse=True)
        return Tokens(tokens, np.bincount(inverse, weights=self.counts,
                                          minlength=tokens.size))


class TokenCountJob(MapReduceJob):
    """Count tokens: the job buckets (token id modulo the reducer count)."""

    def __init__(self, num_reducers):
        self.num_reducers = num_reducers

    def bucket_of(self, tokens):
        return tokens % self.num_reducers

    def map_partition(self, items, context):
        buckets = [[] for _ in range(self.num_reducers)]
        for item in items:
            target = self.bucket_of(item.tokens)
            for bucket in np.unique(target).tolist():
                buckets[bucket].append(item.take(np.nonzero(target == bucket)[0]))
        return buckets

    def reduce_partition(self, items, context):
        if not items:
            return []
        context.add_compute(sum(len(item) for item in items))
        return [Tokens(np.concatenate([item.tokens for item in items]),
                       np.concatenate([item.counts for item in items])).fold()]


class FoldingTokenCountJob(TokenCountJob):
    """Folds each split per token before bucketing (a map-side combiner)."""

    def map_partition(self, items, context):
        return super().map_partition([item.fold() for item in items], context)


class AllToZeroJob(TokenCountJob):
    def bucket_of(self, tokens):
        return np.zeros_like(tokens)


class ExplodingReduceJob(TokenCountJob):
    def reduce_partition(self, items, context):
        raise ArithmeticError("reducer exploded")


class ExplodingRoundJob(GNNRoundJob):
    """A GNN round whose second layer's reduce stage raises."""

    def reduce_partition(self, items, metrics):
        if self.layer_index == 1:
            raise ArithmeticError("layer 1 reduce exploded")
        return super().reduce_partition(items, metrics)


class SuicidalRoundJob(GNNRoundJob):
    """A GNN round whose second layer's reducers SIGKILL their own worker."""

    def reduce_partition(self, items, metrics):
        if self.layer_index == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().reduce_partition(items, metrics)


TOKENS = np.random.default_rng(0).integers(0, 12, size=60)
#: the input arrives as several items; splits cut across their boundaries
DOCUMENTS = [Tokens(TOKENS[:7]), Tokens(TOKENS[7:7]), Tokens(TOKENS[7:40]), Tokens(TOKENS[40:])]


def counts_of(items):
    return {int(token): int(count) for item in items
            for token, count in zip(item.tokens, item.counts)}


@pytest.fixture(params=sorted(available_executors()))
def executor(request):
    """``executor(n)`` builds an ``n``-slot executor of the parametrised kind."""
    built = []

    def build(num_slots):
        built.append(build_executor(request.param, num_slots))
        return built[-1]

    yield build
    for each in built:
        each.shutdown()


def make_engine(executor, num_slots=2):
    """An engine of ``num_slots`` mappers and as many reducers."""
    return MapReduceEngine(MetricsCollector(), executor(num_slots))


class TestMapReduceEngine:
    def test_wordcount_correct(self, executor):
        engine = make_engine(executor)
        counts = counts_of(engine.run([("tc", TokenCountJob(2))], DOCUMENTS))
        assert counts == {token: int(n) for token, n in enumerate(np.bincount(TOKENS)) if n}
        assert engine.metrics.total("records_out", "tc/map") == TOKENS.size

    def test_results_independent_of_worker_count(self, executor):
        small = counts_of(make_engine(executor, 1).run([("tc", TokenCountJob(1))], DOCUMENTS))
        large = counts_of(make_engine(executor, 4).run([("tc", TokenCountJob(4))], DOCUMENTS))
        assert small == large

    def test_rows_are_split_contiguously_and_evenly(self, executor):
        engine = make_engine(executor, 4)
        splits = engine._split_rows(DOCUMENTS)
        assert [sum(len(item) for item in split) for split in splits] == [15, 15, 15, 15]
        np.testing.assert_array_equal(
            np.concatenate([item.tokens for split in splits for item in split]), TOKENS)
        # an item that fits one split whole is handed over, not copied
        assert splits[0][0] is DOCUMENTS[0]

    def test_combiner_reduces_shuffle_records_but_not_results(self, executor):
        plain_engine = make_engine(executor)
        plain = plain_engine.run([("tc", TokenCountJob(2))], DOCUMENTS)
        folding_engine = make_engine(executor)
        folded = folding_engine.run([("tc", FoldingTokenCountJob(2))], DOCUMENTS)
        assert counts_of(plain) == counts_of(folded)
        assert (folding_engine.metrics.total("records_out", "tc/map")
                < plain_engine.metrics.total("records_out", "tc/map"))

    def test_partition_reduce(self, executor):
        engine = make_engine(executor, 3)
        engine.run([("sum", TokenCountJob(3))], DOCUMENTS)
        assert engine.metrics.total("compute_units", "sum/reduce") == TOKENS.size

    def test_metrics_recorded_for_both_phases(self, executor):
        engine = make_engine(executor, 3)
        engine.run([("job", TokenCountJob(3))], DOCUMENTS)
        metrics = engine.metrics
        assert metrics.phases() == ["job/map", "job/reduce"]
        assert metrics.total("records_in", "job/map") == TOKENS.size
        assert metrics.total("records_out", "job/map") == TOKENS.size
        assert metrics.total("records_in", "job/reduce") == TOKENS.size
        # one reducer per executor slot, which is what the job buckets for
        assert len(metrics.instances("job/reduce")) == 3
        for instance in metrics.instances():
            assert instance.disk_bytes == instance.bytes_in + instance.bytes_out
            assert instance.measured_seconds > 0

    def test_the_job_places_every_row(self, executor):
        engine = make_engine(executor, 4)
        engine.run([("p", AllToZeroJob(4))], DOCUMENTS)
        # Everything lands on reducer 0.
        busy = [m for m in engine.metrics.instances("p/reduce") if m.records_in > 0]
        assert len(busy) == 1 and busy[0].instance_id == 0

    def test_empty_input(self, executor):
        engine = make_engine(executor)
        assert engine.run([("tc", TokenCountJob(2))], []) == []
        assert engine.metrics.total("records_out", "tc/map") == 0

    def test_invalid_worker_counts(self, executor):
        with pytest.raises(ValueError):
            make_engine(executor, 0)

    def test_a_job_must_bucket_for_the_executors_slots(self, executor):
        engine = make_engine(executor, 2)
        with pytest.raises(ValueError, match="3 reducers.*2 slots"):
            engine.run([("tc", TokenCountJob(3))], DOCUMENTS)
        assert counts_of(engine.run([("tc", TokenCountJob(2))], DOCUMENTS)) == \
            counts_of([Tokens(TOKENS).fold()])

    def test_chained_rounds_feed_the_next_map_in_one_session(self, executor):
        engine = make_engine(executor, 3)
        chained = engine.run([("a", TokenCountJob(3)), ("b", FoldingTokenCountJob(3))],
                             DOCUMENTS)
        assert counts_of(chained) == counts_of([Tokens(TOKENS).fold()])
        metrics = engine.metrics
        assert metrics.phases() == ["a/map", "a/reduce", "b/map", "b/reduce"]
        # round b reads exactly what round a wrote
        assert (metrics.total("records_in", "b/map")
                == metrics.total("records_out", "a/reduce") == len(counts_of(chained)))
        assert metrics.total("bytes_in", "b/map") == metrics.total("bytes_out", "a/reduce")


class TestAccountingFollowsTheData:
    """``run_instance`` counts what a task was given and what it bucketed."""

    def test_reducer_bytes_in_is_the_sum_of_the_bucket_totals_sent_to_it(self, executor):
        engine = make_engine(executor, 4)
        engine.run([("tc", TokenCountJob(4))], DOCUMENTS)
        mapped = []
        for mapper_id, split in enumerate(engine._split_rows(DOCUMENTS)):
            metrics, outgoing = RoundHarness(mapper_id, (4, [TokenCountJob(4)])).step(
                (0, "tc/map", split), [])
            assert [reducer_id for reducer_id, _ in outgoing] == [0, 1, 2, 3]
            mapped.append(([bucket for _, bucket in outgoing], metrics))
        for mapper_id, (buckets, metrics) in enumerate(mapped):
            assert metrics.bytes_out == sum(
                item.nbytes() for bucket in buckets for item in bucket)
            assert engine.metrics.get("tc/map", mapper_id).bytes_out == metrics.bytes_out
        for reducer_id in range(4):
            assert engine.metrics.get("tc/reduce", reducer_id).bytes_in == sum(
                item.nbytes() for buckets, _ in mapped for item in buckets[reducer_id])
        assert (engine.metrics.total("bytes_in", "tc/map")
                == sum(item.nbytes() for item in DOCUMENTS))

    def test_a_task_is_timed_and_charged_for_what_it_bucketed(self):
        """The mapper and reducer sides of one tiny round, stepped by hand (a
        harness is a plain object): the record a step returns is the engine's
        whole accounting for it."""
        job = TokenCountJob(3)
        mapper, outgoing = RoundHarness(5, (3, [job])).step((0, "tc/map", DOCUMENTS), [])
        buckets = [bucket for _, bucket in outgoing]
        assert (mapper.phase, mapper.instance_id) == ("tc/map", 5)
        assert mapper.measured_seconds > 0
        assert mapper.records_in == TOKENS.size
        assert mapper.bytes_in == sum(item.nbytes() for item in DOCUMENTS)
        assert mapper.records_out == TOKENS.size
        assert mapper.bytes_out == sum(item.nbytes() for bucket in buckets for item in bucket)
        assert mapper.disk_bytes == mapper.bytes_in + mapper.bytes_out
        assert mapper.compute_units == 0

        (reducer, emitted), mail = RoundHarness(1, (3, [job])).step(
            (0, "tc/reduce", None), buckets[1])
        assert mail == [] and (reducer.phase, reducer.instance_id) == ("tc/reduce", 1)
        assert reducer.measured_seconds > 0
        assert reducer.bytes_in == sum(item.nbytes() for item in buckets[1])
        assert reducer.bytes_out == sum(item.nbytes() for item in emitted)
        assert reducer.records_out == sum(item.num_records() for item in emitted)
        assert reducer.compute_units == sum(len(item) for item in buckets[1])

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_full_infer_moves_every_byte_a_mapper_emits_into_a_reducer(self, executor_name):
        graph = powerlaw_graph(300, avg_degree=4.0, skew="both", feature_dim=6,
                               num_classes=3, seed=1)
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        config = InferenceConfig(
            backend="mapreduce", num_workers=4, executor=executor_name,
            strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                      shadow_nodes=True))
        session = InferenceSession(model, config)
        try:
            metrics = session.infer(graph).metrics
        finally:
            session.close()

        map_phases = [phase for phase in metrics.phases() if phase.endswith("/map")]
        assert len(map_phases) == model.num_layers
        for map_phase in map_phases:
            reduce_phase = map_phase[:-len("map")] + "reduce"
            assert (metrics.total("bytes_out", map_phase)
                    == metrics.total("bytes_in", reduce_phase) > 0)
            assert (metrics.total("records_out", map_phase)
                    == metrics.total("records_in", reduce_phase))
        # round 1 reads what round 0 wrote (a hub payload row cut by a mapper
        # split is read twice: records and bytes may only grow, by a hair)
        written = metrics.total("bytes_out", "round_0/reduce")
        assert written <= metrics.total("bytes_in", "round_1/map") <= 1.01 * written


class TestFailureAtomicity:
    """A chain that fails leaves the executor, and the session, serviceable."""

    def test_a_raising_reducer_reaches_the_caller_and_closes_the_session(self, executor):
        engine = make_engine(executor, 2)
        with pytest.raises(ArithmeticError, match="reducer exploded"):
            engine.run([("r0", TokenCountJob(2)), ("r1", ExplodingReduceJob(2))], DOCUMENTS)
        # round 0 ran whole, round 1's mappers too; no reducer of round 1 reported
        assert engine.metrics.phases() == ["r0/map", "r0/reduce", "r1/map"]
        with pytest.raises(RuntimeError, match="no open harness session"):
            engine.executor.close()
        again = engine.run([("r0", TokenCountJob(2)), ("r1", TokenCountJob(2))], DOCUMENTS)
        assert counts_of(again) == counts_of([Tokens(TOKENS).fold()])

    @staticmethod
    def hub_session(executor_name):
        graph = powerlaw_graph(300, avg_degree=4.0, skew="both", feature_dim=6,
                               num_classes=3, seed=1)
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        config = InferenceConfig(
            backend="mapreduce", num_workers=4, executor=executor_name,
            strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                      shadow_nodes=True))
        return InferenceSession(model, config), graph

    @pytest.mark.parametrize("executor_name", sorted(available_executors()))
    def test_a_stage_that_raises_once_leaves_the_session_usable(self, executor_name,
                                                                  monkeypatch):
        session, graph = self.hub_session(executor_name)
        try:
            before = session.infer(graph).scores
            # The backend builds its jobs from this name; the subclass pickles.
            monkeypatch.setattr(mapreduce_backend, "GNNRoundJob", ExplodingRoundJob)
            with pytest.raises(ArithmeticError, match="layer 1 reduce exploded"):
                session.infer(graph)
            monkeypatch.undo()
            np.testing.assert_array_equal(session.infer(graph).scores, before)
        finally:
            session.close()

    @pytest.mark.skipif("process" not in available_executors(),
                        reason="process executor unavailable")
    def test_a_worker_killed_mid_chain_is_a_crash_error_then_a_clean_infer(self, monkeypatch):
        session, graph = self.hub_session("process")
        try:
            before = session.infer(graph).scores
            monkeypatch.setattr(mapreduce_backend, "GNNRoundJob", SuicidalRoundJob)
            with pytest.raises(WorkerCrashError):
                session.infer(graph)
            monkeypatch.undo()
            np.testing.assert_array_equal(session.infer(graph).scores, before)
        finally:
            session.close()


def estimate_payload_bytes(payload):
    """The recursive per-record estimator the tuple transport was sized with —
    kept here as the reference the blocks' closed forms must reproduce."""
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
    """``Records(block)`` == the tagged tuple records the block replaced."""

    @staticmethod
    def check(block, records):
        item = Records(block)
        assert item.num_records() == len(records)
        assert item.nbytes() == sum(estimate_payload_bytes(record) for record in records)

    @staticmethod
    def state_block(edge_dim, tagged=True):
        rng = np.random.default_rng(3)
        nbrs = [np.array([4, 9, 2]), np.array([], dtype=np.int64), np.array([7])]
        feats = ([rng.normal(size=(n.size, edge_dim)) for n in nbrs] if edge_dim
                 else [None] * 3)
        block = StateBlock(
            np.array([11, 5, 8]), rng.normal(size=(3, 6)), np.array([0, 3, 3, 4]),
            np.concatenate(nbrs), np.concatenate(feats) if edge_dim else None, tagged)
        return block, nbrs, feats

    def test_message_rows(self):
        rng = np.random.default_rng(0)
        block = MessageBlock(np.array([3, 9, 3]), rng.normal(size=(3, 5)), np.array([1, 4, 1]))
        self.check(block, [(int(dst), ("m", block.payload[row], int(block.counts[row])))
                           for row, dst in enumerate(block.dst_ids)])
        assert Records(block).nbytes() == 3 * (17 + 8 * 5)

    def test_broadcast_references_and_one_buckets_payload_rows(self):
        rng = np.random.default_rng(1)
        hub_ids, bucket = [40, 41], 2
        block = BroadcastMessageBlock(np.array([6, 2, 10, 6]), np.array([0, 1, 1, 0]),
                                      rng.normal(size=(2, 5)))
        records = [(("bc", bucket), ("p", hub, block.unique_payloads[ref]))
                   for ref, hub in enumerate(hub_ids)]
        records += [(int(dst), ("r", hub_ids[ref], 1))
                    for dst, ref in zip(block.dst_ids, block.payload_refs)]
        self.check(block, records)
        assert Records(block).nbytes() == 4 * 25 + 2 * (19 + 8 * 5)

    @pytest.mark.parametrize("edge_dim", [0, 2])
    def test_state_rows(self, edge_dim):
        block, nbrs, feats = self.state_block(edge_dim)
        self.check(block, [(int(node), ("s", block.payload[row], nbrs[row], feats[row]))
                           for row, node in enumerate(block.dst_ids)])

    @pytest.mark.parametrize("edge_dim", [0, 2])
    def test_input_rows(self, edge_dim):
        block, nbrs, feats = self.state_block(edge_dim, tagged=False)
        self.check(block, [(int(node), (block.payload[row], nbrs[row], feats[row]))
                           for row, node in enumerate(block.dst_ids)])

    def test_output_rows(self):
        logits = np.random.default_rng(2).normal(size=(4, 3))
        block = StateBlock(np.array([0, 5, 6, 9]), logits)
        self.check(block, [(int(node), ("o", logits[row]))
                           for row, node in enumerate(block.dst_ids)])
        assert Records(block).nbytes() == 4 * (9 + 8 * 3)

    def test_a_graphs_input_rows_and_any_slice_of_them(self):
        graph = powerlaw_graph(50, avg_degree=3.0, skew="out", feature_dim=4,
                               num_classes=2, seed=5)
        graph.edge_features = np.random.default_rng(5).normal(size=(graph.num_edges, 2))
        model = build_model("sage", 4, 8, 2, num_layers=1, seed=0, edge_dim=2)
        rows = input_rows(model, graph)
        for block in (rows, rows.take(np.array([17, 3, 40, 3]))):
            self.check(block, [
                (int(node), (graph.node_features[node], graph.out_neighbors(node),
                             graph.edge_features[graph.out_edge_ids(node)]))
                for node in block.dst_ids])
            for row, node in enumerate(block.dst_ids):
                np.testing.assert_array_equal(
                    block.nbrs[block.indptr[row]:block.indptr[row + 1]],
                    graph.out_neighbors(node))


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
        assert message_bytes(10, 4) == 10 * (4 * 8 + 8 + 16)


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
