"""Tests for the Pregel-like graph processing engine."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.executor import UnknownExecutorError, available_executors
from repro.cluster.metrics import MetricsCollector
from repro.graph.graph import Graph
from repro.pregel.combiners import (
    MaxCombiner,
    MeanCombiner,
    SumCombiner,
    combiner_for_aggregate_kind,
)
from repro.pregel.engine import PregelEngine, PregelPartitionHarness
from repro.pregel.vertex import BlockVertexProgram, MessageBlock


def ring_graph(num_nodes: int) -> Graph:
    src = np.arange(num_nodes)
    dst = (src + 1) % num_nodes
    return Graph(src, dst, num_nodes=num_nodes)


class PageRankProgram(BlockVertexProgram):
    """Classic PageRank as a block program (module-level: it ships to workers)."""

    def __init__(self, num_iterations: int = 10, damping: float = 0.85,
                 combine: bool = False) -> None:
        self.num_iterations = num_iterations
        self.damping = damping
        self.combine = combine

    def max_supersteps(self) -> int:
        return self.num_iterations + 1

    def combiner_for_superstep(self, superstep: int):
        return SumCombiner() if self.combine else None

    def setup_partition(self, partition) -> None:
        src_local = partition.local_indices(partition.out_src)
        partition.block_state.update(
            rank=np.ones(partition.num_nodes), src_local=src_local,
            out_degree=np.bincount(src_local, minlength=partition.num_nodes))

    def compute_partition(self, context, incoming) -> None:
        partition = context.partition
        state = partition.block_state
        if context.superstep > 0:
            received = np.zeros(partition.num_nodes)
            for block in incoming:
                received += np.bincount(partition.local_indices(block.dst_ids),
                                        weights=block.payload[:, 0],
                                        minlength=partition.num_nodes)
            state["rank"] = (1 - self.damping) + self.damping * received
        if context.superstep < self.num_iterations and partition.num_out_edges:
            share = state["rank"] / np.maximum(state["out_degree"], 1)
            context.send_block(MessageBlock(dst_ids=partition.out_dst,
                                            payload=share[state["src_local"]]))


def run_pagerank(graph: Graph, num_workers: int, program: PageRankProgram,
                 metrics: MetricsCollector = None):
    """Run ``program``; return ``(ranks, result)``."""
    engine = PregelEngine(graph, num_workers=num_workers, metrics=metrics)
    try:
        result = engine.run(program)
        ranks = np.empty(graph.num_nodes)
        for partition in result.partitions:
            ranks[partition.node_ids] = partition.block_state["rank"]
        return ranks, result
    finally:
        engine.shutdown()


#: Under the process executor a partition's arrays are views into the engine's
#: shared-memory segments; reading them after the segments were unmapped
#: crashed the interpreter, hence a subprocess and its exit code.
_READ_PARTITIONS_AFTER_ENGINE = """
import gc, sys
import numpy as np
from tests.test_pregel import PageRankProgram
from repro.graph.graph import Graph
from repro.pregel.engine import PregelEngine, PregelPartitionHarness

src = np.arange(12)
features = np.arange(24.0).reshape(12, 2)
graph = Graph(src, (src + 1) % 12, node_features=features, num_nodes=12)
engine = PregelEngine(graph, num_workers=2, executor="process")
result = engine.run(PageRankProgram(2))
layout = engine.layout
if sys.argv[1] == "shutdown":
    engine.shutdown()
del engine
gc.collect()
first = result.partitions[0]
assert np.array_equal(first.node_features, features[first.node_ids])
assert np.array_equal(layout.owner_of[first.node_ids], np.zeros(first.num_nodes))
"""


@pytest.mark.parametrize("release", ["shutdown", "drop"])
def test_result_partitions_readable_after_the_engine_is_gone(release):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _READ_PARTITIONS_AFTER_ENGINE, release],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]


@pytest.mark.parametrize("executor_name", sorted(available_executors()))
def test_engine_runs_on_the_named_executor(executor_name):
    """``executor`` names the substrate; every substrate yields the same bits."""
    graph = ring_graph(9)
    engine = PregelEngine(graph, num_workers=3, executor=executor_name)
    try:
        result = engine.run(PageRankProgram(3))
        assert engine.executor.name == executor_name
        ranks = np.empty(graph.num_nodes)
        for partition in result.partitions:
            ranks[partition.node_ids] = partition.block_state["rank"]
    finally:
        engine.shutdown()
    serial = PregelEngine(graph, num_workers=3, executor="serial")
    try:
        expected = np.empty(graph.num_nodes)
        for partition in serial.run(PageRankProgram(3)).partitions:
            expected[partition.node_ids] = partition.block_state["rank"]
    finally:
        serial.shutdown()
    np.testing.assert_array_equal(ranks, expected)


def test_engine_rejects_an_unknown_executor_name():
    engine = PregelEngine(ring_graph(4), num_workers=2, executor="spark")
    with pytest.raises(UnknownExecutorError, match="spark"):
        engine.run(PageRankProgram(1))


class TestBlockPrograms:
    def test_pagerank_sums_to_node_count(self):
        ranks, result = run_pagerank(ring_graph(10), 2, PageRankProgram(num_iterations=15))
        assert result.num_supersteps == 16
        assert ranks.sum() == pytest.approx(10.0, rel=0.05)

    def test_pagerank_uniform_on_ring(self):
        ranks, _ = run_pagerank(ring_graph(8), 4, PageRankProgram(num_iterations=20))
        np.testing.assert_allclose(ranks, np.ones(8), atol=0.05)

    def test_metrics_recorded_per_superstep(self, small_graph):
        _, result = run_pagerank(small_graph, 4, PageRankProgram(2))
        assert result.metrics.phases() == ["superstep_0", "superstep_1", "superstep_2"]
        assert result.metrics.total("records_out", "superstep_0") == small_graph.num_edges
        assert result.metrics.total("records_out", "superstep_2") == 0

    def test_single_record_call_per_partition_per_superstep(self, small_graph):
        """compute/bytes_in and bytes_out land in ONE add() call, so
        per-phase instance counts are not inflated by a separate route-side
        record site."""
        calls = []

        class CountingCollector(MetricsCollector):
            def add(self, metric):
                calls.append((metric.phase, int(metric.instance_id)))
                super().add(metric)

        _, result = run_pagerank(small_graph, 4, PageRankProgram(2), CountingCollector())
        assert len(calls) == 3 * 4
        assert len(calls) == len(set(calls)), "duplicate record() per (phase, instance)"
        # Every call carries both directions of IO for superstep 0.
        for instance in range(4):
            entry = result.metrics.get("superstep_0", instance)
            assert entry is not None
            assert entry.bytes_in == 0.0          # nothing received yet
            assert entry.bytes_out > 0.0          # everyone sends rank shares

    def test_a_superstep_is_timed_and_charged_for_what_it_bucketed(self, small_graph):
        """One partition's harness, stepped by hand: the ``InstanceMetrics``
        it reports is the engine's whole accounting for that superstep."""
        engine = PregelEngine(small_graph, num_workers=3)
        partition = engine.partitions[1]
        harness = PregelPartitionHarness(partition, PageRankProgram(2, combine=True),
                                         engine.layout, ship_final_state=False)
        sent, outgoing = harness.step((0, None), [])
        bucketed = [block for _, bucket in outgoing for block in bucket]
        assert (sent.phase, sent.instance_id) == ("superstep_0", 1)
        assert sent.measured_seconds > 0
        assert (sent.bytes_in, sent.records_in) == (0.0, 0)
        assert sent.bytes_out == sum(block.nbytes() for block in bucketed) > 0
        assert sent.records_out == sum(block.num_records() for block in bucketed)
        # post-combine volume: each destination once per bucket
        assert sent.records_out == np.unique(partition.out_dst).size
        mailbox = [MessageBlock(dst_ids=partition.node_ids[:2], payload=np.ones(2))]
        received, _ = harness.step((1, None), mailbox)
        assert received.bytes_in == mailbox[0].nbytes()
        assert received.records_in == 2

    def test_program_combiner_reduces_messages(self, small_graph):
        plain_ranks, plain = run_pagerank(small_graph, 2, PageRankProgram(5))
        combined_ranks, combined = run_pagerank(small_graph, 2,
                                                PageRankProgram(5, combine=True))
        # Results agree (the sum combiner only re-associates the additions)...
        np.testing.assert_allclose(combined_ranks, plain_ranks, rtol=1e-12)
        # ...but fewer records cross the wire.
        assert (combined.metrics.total("records_out", "superstep_0")
                < plain.metrics.total("records_out", "superstep_0"))


class TestMessageBlocks:
    def test_block_validation(self):
        with pytest.raises(ValueError):
            MessageBlock(dst_ids=np.array([1, 2]), payload=np.zeros((3, 2)))

    def test_block_defaults_counts_to_ones(self):
        block = MessageBlock(dst_ids=np.array([1, 2]), payload=np.zeros((2, 3)))
        np.testing.assert_array_equal(block.counts, [1, 1])

    def test_block_take_preserves_type_and_rows(self):
        block = MessageBlock(dst_ids=np.array([1, 2, 3]), payload=np.arange(6.0).reshape(3, 2))
        piece = block.take(np.array([0, 2]))
        np.testing.assert_array_equal(piece.dst_ids, [1, 3])
        np.testing.assert_allclose(piece.payload, [[0.0, 1.0], [4.0, 5.0]])

    def test_block_nbytes_scales_with_rows(self):
        small = MessageBlock(dst_ids=np.array([1]), payload=np.zeros((1, 8)))
        large = MessageBlock(dst_ids=np.arange(10), payload=np.zeros((10, 8)))
        assert large.nbytes() > small.nbytes()

    def test_1d_payload_reshaped(self):
        block = MessageBlock(dst_ids=np.array([0, 1]), payload=np.array([1.0, 2.0]))
        assert block.payload.shape == (2, 1)


class TestCombiners:
    def test_sum_combiner_block(self):
        block = MessageBlock(dst_ids=np.array([5, 5, 7]),
                             payload=np.array([[1.0], [2.0], [4.0]]))
        combined = SumCombiner().combine_block(block)
        assert combined.num_records() == 2
        lookup = dict(zip(combined.dst_ids.tolist(), combined.payload[:, 0].tolist()))
        assert lookup[5] == 3.0
        assert lookup[7] == 4.0

    def test_sum_combiner_accumulates_counts(self):
        block = MessageBlock(dst_ids=np.array([5, 5]), payload=np.ones((2, 2)),
                             counts=np.array([2, 3]))
        combined = SumCombiner().combine_block(block)
        assert combined.counts[0] == 5

    def test_max_combiner_block(self):
        block = MessageBlock(dst_ids=np.array([1, 1]), payload=np.array([[3.0, 1.0], [2.0, 9.0]]))
        combined = MaxCombiner().combine_block(block)
        np.testing.assert_allclose(combined.payload, [[3.0, 9.0]])

    def test_combiner_for_aggregate_kind(self):
        assert isinstance(combiner_for_aggregate_kind("sum"), SumCombiner)
        assert isinstance(combiner_for_aggregate_kind("mean"), MeanCombiner)
        assert isinstance(combiner_for_aggregate_kind("max"), MaxCombiner)
        assert combiner_for_aggregate_kind("union") is None
        with pytest.raises(ValueError):
            combiner_for_aggregate_kind("median")

    def test_empty_block_passthrough(self):
        block = MessageBlock(dst_ids=np.array([], dtype=np.int64), payload=np.zeros((0, 4)))
        assert SumCombiner().combine_block(block).num_records() == 0


# --------------------------------------------------------------------------- #
# the resident send schedule (kept in block_state by GNNInferenceProgram)
# --------------------------------------------------------------------------- #
class TestResidentSendSchedule:
    """A full superstep derives its routing once per partition and topology."""

    @staticmethod
    def hub_session(kind: str = "gcn", partial_gather: bool = True, seed: int = 35):
        from repro.gnn.model import build_model
        from repro.graph.generators import powerlaw_graph
        from repro.inference import InferenceConfig, InferenceSession, StrategyConfig

        graph = powerlaw_graph(num_nodes=700, avg_degree=6.0, skew="out", feature_dim=8,
                               num_classes=4, seed=seed)
        model = build_model(kind, graph.feature_dim, 16, 4, num_layers=2, seed=0)
        config = InferenceConfig(           # serial: the spies below count in this process
            backend="pregel", num_workers=4, executor="serial",
            strategies=StrategyConfig(partial_gather=partial_gather, broadcast=True,
                                      shadow_nodes=True, hub_threshold_override=20))
        return InferenceSession(model, config), graph

    @staticmethod
    def schedules(session):
        return [partition.block_state.get("send_schedule")
                for partition in session.plan.state["engine"].partitions]

    @pytest.mark.parametrize("kind,partial_gather", [("gcn", True), ("gcn", False),
                                                     ("gat", True)])
    def test_second_full_infer_derives_no_routing(self, kind, partial_gather, monkeypatch):
        """Counted, not timed: the first infer computes each partition's
        schedule (one per distinct ``(broadcast, folds)`` pair — GCN's two
        layers share one); the second makes **zero** calls to ``gas.scatter``,
        ``np.unique`` and ``stable_group_by`` and returns the same bits."""
        from repro.inference import gas
        from repro.pregel import vertex

        session, graph = self.hub_session(kind, partial_gather)
        calls = {"scatter": 0, "unique": 0, "stable_group_by": 0}

        def counting(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy

        monkeypatch.setattr(gas, "scatter", counting("scatter", gas.scatter))
        monkeypatch.setattr(np, "unique", counting("unique", np.unique))
        monkeypatch.setattr(vertex, "stable_group_by",
                            counting("stable_group_by", vertex.stable_group_by))
        try:
            session.prepare(graph)
            assert session.plan.shadow_plan.has_mirrors
            assert session.plan.strategy_plan.out_degree_hubs.size
            calls.update(scatter=0, unique=0, stable_group_by=0)
            first = session.infer().scores
            assert all(len(kept) == 1 for kept in self.schedules(session))
            derived = dict(calls)
            calls.update(scatter=0, unique=0, stable_group_by=0)
            second = session.infer().scores
        finally:
            session.close()
        assert derived["scatter"] == 4 and derived["stable_group_by"] >= 4
        assert calls == {"scatter": 0, "unique": 0, "stable_group_by": 0}
        np.testing.assert_array_equal(second, first)

    def test_feature_delta_keeps_the_schedule_and_an_edge_delta_drops_it(self):
        from repro.inference import GraphDelta
        from repro.inference.delta import apply_delta_to_graph

        rng = np.random.default_rng(35)
        session, graph = self.hub_session()
        fresh, reference = self.hub_session()
        try:
            session.prepare(graph)
            session.infer()
            kept = self.schedules(session)
            assert all(kept)

            rows = rng.choice(graph.num_nodes, size=20, replace=False)
            feature_delta = GraphDelta(node_ids=rows,
                                       node_features=rng.normal(size=(20, graph.feature_dim)))
            assert session.apply_delta(feature_delta).in_place
            session.infer()
            assert all(now is before for now, before in zip(self.schedules(session), kept))
            assert all(now[key][1] is before[key][1] for now, before
                       in zip(self.schedules(session), kept) for key in before)

            threshold = session.plan.strategy_plan.threshold
            degrees = graph.out_degrees()
            edge_delta = GraphDelta(
                added_src=rng.choice(np.nonzero(degrees < threshold - 3)[0], size=40,
                                     replace=False),
                added_dst=rng.integers(0, graph.num_nodes, size=40),
                removed_edge_ids=rng.choice(
                    np.nonzero(degrees[graph.src] < threshold - 3)[0], size=20, replace=False))
            assert session.apply_delta(edge_delta).in_place
            assert self.schedules(session) == [None] * 4
            scores = session.infer().scores
            assert all(self.schedules(session))

            apply_delta_to_graph(reference, feature_delta)
            apply_delta_to_graph(reference, edge_delta)
            fresh.prepare(reference)
            np.testing.assert_array_equal(scores, fresh.infer().scores)
        finally:
            session.close()
            fresh.close()
