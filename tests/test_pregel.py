"""Tests for the Pregel-like graph processing engine."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def counting_spies(calls):
    """``counting(name, fn)``: ``fn`` behind a spy that counts its calls in
    ``calls[name]``, under a lock — the partitions of a full superstep call
    it from several threads at once."""
    lock = threading.Lock()

    def counting(name, fn):
        def spy(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return spy
    return counting


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

    def result(self, partition):
        return partition.block_state["rank"]


def gather_ranks(result, num_nodes: int) -> np.ndarray:
    """The ranks each partition's ``result`` handed back, by node id."""
    ranks = np.empty(num_nodes)
    for partition, rank in zip(result.partitions, result.results):
        ranks[partition.node_ids] = rank
    return ranks


def run_pagerank(graph: Graph, num_workers: int, program: PageRankProgram,
                 metrics: MetricsCollector = None):
    """Run ``program``; return ``(ranks, result)``."""
    engine = PregelEngine(graph, num_workers=num_workers, metrics=metrics)
    try:
        result = engine.run(program)
        return gather_ranks(result, graph.num_nodes), result
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
        ranks = gather_ranks(engine.run(PageRankProgram(3)), graph.num_nodes)
        assert engine.executor.name == executor_name
    finally:
        engine.shutdown()
    serial = PregelEngine(graph, num_workers=3, executor="serial")
    try:
        expected = gather_ranks(serial.run(PageRankProgram(3)), graph.num_nodes)
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
        harness = PregelPartitionHarness(partition, PageRankProgram(2, combine=True))
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
    def hub_session(kind: str = "gcn", partial_gather: bool = True, seed: int = 35,
                    executor: Optional[str] = "serial"):
        """A session on a graph with hubs and mirrors; ``executor=None`` takes
        the environment's default executor."""
        from repro.gnn.model import build_model
        from repro.graph.generators import powerlaw_graph
        from repro.inference import InferenceConfig, InferenceSession, StrategyConfig

        graph = powerlaw_graph(num_nodes=700, avg_degree=6.0, skew="out", feature_dim=8,
                               num_classes=4, seed=seed)
        model = build_model(kind, graph.feature_dim, 16, 4, num_layers=2, seed=0)
        config = InferenceConfig(           # serial: the spies below count in this process
            backend="pregel", num_workers=4,
            strategies=StrategyConfig(partial_gather=partial_gather, broadcast=True,
                                      shadow_nodes=True, hub_threshold_override=20),
            **({} if executor is None else {"executor": executor}))
        return InferenceSession(model, config), graph

    @staticmethod
    def schedules(session):
        return [partition.block_state.get("send_schedule")
                for partition in session.plan.state["engine"].partitions]

    @staticmethod
    def feature_delta(rng, graph, size=20):
        from repro.inference import GraphDelta

        rows = rng.choice(graph.num_nodes, size=size, replace=False)
        return GraphDelta(node_ids=rows, node_features=rng.normal(size=(size, graph.feature_dim)))

    @staticmethod
    def edge_delta(rng, session, graph, added=40, removed=20, features=0):
        """Hub-preserving churn: every touched edge's source is well below the
        hub threshold, so the delta lands in place."""
        from repro.inference import GraphDelta

        threshold = session.plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        rows = rng.choice(graph.num_nodes, size=features, replace=False)
        return GraphDelta(
            node_ids=rows if features else None,
            node_features=rng.normal(size=(features, graph.feature_dim)) if features else None,
            added_src=rng.choice(np.nonzero(degrees < threshold - 3)[0], size=added,
                                 replace=False),
            added_dst=rng.integers(0, graph.num_nodes, size=added),
            removed_edge_ids=rng.choice(np.nonzero(degrees[graph.src] < threshold - 3)[0],
                                        size=removed, replace=False))

    @staticmethod
    def live_entries(resident, partition):
        """Per path, every destination's live entries, destination by
        destination and each in send order: the destinations, the edge rows,
        the ``own`` flags and the hub node each entry carries (broadcast
        path)."""
        ids = np.arange(partition.layout.num_nodes)
        paths = []
        for index in resident.by_destination(partition):
            rows, own, hub, ends = index.take(ids)
            hubs = resident.plan.out_degree_hubs[hub]
            if hubs.size:                       # a reference names its edge's own source
                np.testing.assert_array_equal(hubs, partition.out_src[rows])
            paths.append((np.repeat(ids, np.diff(ends)), rows, own, hubs))
        return paths

    @classmethod
    def assert_matches_a_fresh_build(cls, session):
        """Every partition's per-destination index holds, per destination,
        the live entries a schedule built from its current out-edges holds,
        in the same order: edge rows, ``own`` flags and hub node ids; and its
        full routing (rebuilt on demand) is a fresh build's."""
        from repro.inference.pregel_adaptor import SendSchedule

        for partition in session.plan.state["engine"].partitions:
            for resident in partition.block_state.get("send_schedule", {}).values():
                fresh = SendSchedule(resident.strategy, resident.plan, resident.replicas)
                for patched, built in zip(cls.live_entries(resident, partition),
                                          cls.live_entries(fresh, partition)):
                    for mine, theirs in zip(patched, built):
                        np.testing.assert_array_equal(mine, theirs)
                for mine, theirs in zip(resident.routed(partition), fresh.routed(partition)):
                    np.testing.assert_array_equal(mine, theirs)

    @staticmethod
    def assert_memo_matches_a_fresh_fold(session):
        """Every valid memo entry equals a fresh fold of its pair: the rows the
        partition now sends that destination, gathered from the cached state
        of the memo's superstep and folded by the combiner's own default
        (``np.unique``) path — and it folds two rows or more."""
        from repro.inference import gas
        from repro.inference.pregel_adaptor import Destinations

        plan = session.plan
        engine = plan.state["engine"]
        for partition in engine.partitions:
            for resident in partition.block_state.get("send_schedule", {}).values():
                for superstep, memo in resident.memos.items():
                    kept = np.flatnonzero(memo.valid)
                    if not kept.size:
                        continue
                    owners = engine.layout.owners(kept)
                    order = np.argsort(owners, kind="stable")
                    bounds = np.searchsorted(owners[order],
                                             np.arange(engine.layout.num_partitions + 1))
                    no_change = np.zeros(partition.num_nodes, dtype=bool)
                    edges, routed, _, _ = resident.select(
                        partition, Destinations(kept[order], bounds), None, superstep,
                        no_change)
                    state = partition.block_state["h_history"][superstep]
                    src_pos = partition.local_indices(partition.out_src)
                    features = partition.out_edge_features
                    blocks, _ = gas.scatter_blocks(
                        plan.model, plan.strategy_plan, plan.replicas, superstep, state,
                        src_pos[edges], partition.out_src[edges], partition.out_dst[edges],
                        None if features is None else features[edges], routed=routed)
                    combiner = plan.strategy_plan.layer(superstep).combiner
                    fresh = combiner.combine_block(blocks[0])
                    np.testing.assert_array_equal(fresh.dst_ids, kept)
                    assert (fresh.counts >= 2).all()
                    np.testing.assert_array_equal(memo.read(kept), fresh.payload)

    @pytest.mark.parametrize("edit", ["append", "remove", "remove and re-add"])
    def test_an_edge_patch_invalidates_the_memo(self, edit):
        """A destination gets three or more plain rows from one partition, none
        of whose sources a later edge-only tick changes, and its partial is in
        that partition's memo.  An edge patch into that pair — appending an
        edge from an unchanged source, removing one of its edges, or removing
        and re-adding one (which moves it behind the others) — must make the
        next incremental infer fold the pair again: it equals a fresh
        ``prepare()+infer()`` bit for bit."""
        from repro.inference import GraphDelta
        from repro.inference.delta import apply_delta_to_graph

        rng = np.random.default_rng(7)
        session, graph = self.hub_session()
        fresh, reference = self.hub_session()
        try:
            session.prepare(graph)
            session.infer()
            prime = self.feature_delta(rng, graph)
            session.apply_delta(prime)
            session.infer(mode="incremental")           # primes the state cache
            engine = session.plan.state["engine"]
            quiet = graph.out_degrees() < session.plan.strategy_plan.threshold - 3
            # quiet edges (plain path) per (source owner, destination), no self-loops
            plain = np.flatnonzero(quiet[graph.src] & (graph.src != graph.dst))
            pairs = engine.layout.owners(graph.src[plain]) * graph.num_nodes + graph.dst[plain]
            sizes = np.bincount(pairs)
            pair = int(np.flatnonzero(sizes >= 3)[0])
            owner, target = divmod(pair, graph.num_nodes)
            into = plain[pairs == pair]            # the pair's edges, in edge order

            # a feature delta on the destination alone: its own in-pair is
            # unchanged at superstep 0, so that send folds it into the memo
            arm = GraphDelta(node_ids=np.array([target]),
                             node_features=rng.normal(size=(1, graph.feature_dim)))
            session.apply_delta(arm)
            session.infer(mode="incremental")
            (resident,) = engine.partitions[owner].block_state["send_schedule"].values()
            assert resident.memos[0].valid[target]

            if edit == "append":
                sources = np.flatnonzero(quiet & (engine.layout.owner_of[:graph.num_nodes]
                                                  == owner))
                source = sources[sources != target][0]
                delta = GraphDelta(added_src=np.array([source]), added_dst=np.array([target]))
            elif edit == "remove":
                delta = GraphDelta(removed_edge_ids=into[:1])
            else:
                delta = GraphDelta(removed_edge_ids=into[:1], added_src=graph.src[into[:1]],
                                   added_dst=np.array([target]))
            assert session.apply_delta(delta).in_place
            assert engine.partitions[owner].pending_kept is not None   # patched at open
            scores = session.infer(mode="incremental").scores
            for each in (prime, arm, delta):
                apply_delta_to_graph(reference, each)
            fresh.prepare(reference)
            np.testing.assert_array_equal(scores, fresh.infer().scores)
            self.assert_memo_matches_a_fresh_fold(session)
            assert session.num_replans == 0
        finally:
            session.close()
            fresh.close()

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

        counting = counting_spies(calls)

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

    @pytest.mark.parametrize("kind,partial_gather", [("gcn", True), ("gcn", False),
                                                     ("gat", True)])
    def test_an_incremental_infer_derives_no_routing(self, kind, partial_gather,
                                                     monkeypatch):
        """(a) Counted, not timed: after a feature delta, an incremental infer
        selects its sends from the resident schedule — **zero** calls to
        ``gas.scatter``, ``np.unique`` and ``stable_group_by`` — and equals a
        fresh session bit for bit."""
        from repro.inference import gas
        from repro.pregel import vertex

        rng = np.random.default_rng(3)
        session, graph = self.hub_session(kind, partial_gather)
        fresh, _ = self.hub_session(kind, partial_gather)
        calls = {"scatter": 0, "unique": 0, "stable_group_by": 0}

        counting = counting_spies(calls)

        try:
            session.prepare(graph)
            full = session.infer()
            session.apply_delta(self.feature_delta(rng, graph))
            session.infer(mode="incremental")           # primes the state cache
            assert session.apply_delta(self.feature_delta(rng, graph)).in_place
            monkeypatch.setattr(gas, "scatter", counting("scatter", gas.scatter))
            monkeypatch.setattr(np, "unique", counting("unique", np.unique))
            monkeypatch.setattr(vertex, "stable_group_by",
                                counting("stable_group_by", vertex.stable_group_by))
            tick = session.infer(mode="incremental")
            monkeypatch.undo()
            fresh.prepare(graph)
            expected = fresh.infer().scores
        finally:
            session.close()
            fresh.close()
        assert calls == {"scatter": 0, "unique": 0, "stable_group_by": 0}
        assert (tick.metrics.total("compute_units")
                < full.metrics.total("compute_units"))          # it did run incrementally
        np.testing.assert_array_equal(tick.scores, expected)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_feature_delta_keeps_the_schedule_and_an_edge_delta_patches_it(self, monkeypatch,
                                                                           indexed):
        """(b) An in-place edge delta patches each partition's schedule
        objects when the next run opens: only the appended edges are routed
        (``gas.scatter``) — whether or not an incremental send has indexed
        the schedule yet — and per destination the result equals a schedule
        built from the new out-edges; incremental and full runs equal a
        fresh session."""
        from repro.inference import gas
        from repro.inference.delta import apply_delta_to_graph

        rng = np.random.default_rng(35)
        session, graph = self.hub_session()
        fresh, reference = self.hub_session()
        try:
            session.prepare(graph)
            session.infer()
            kept = self.schedules(session)
            assert all(kept)

            feature_delta = self.feature_delta(rng, graph)
            assert session.apply_delta(feature_delta).in_place
            session.infer()
            assert all(now is before for now, before in zip(self.schedules(session), kept))
            residents = [dict(schedules) for schedules in kept]
            full_schedules = [{key: resident.schedule for key, resident in schedules.items()}
                              for schedules in residents]
            assert all(full_schedules[0].values())
            deltas = [feature_delta]
            if indexed:
                deltas.append(self.feature_delta(rng, graph))
                assert session.apply_delta(deltas[-1]).in_place
                session.infer(mode="incremental")       # indexes the schedules

            scattered = []
            real_scatter = gas.scatter

            def spy(strategy, hubs, replicas, source_ids, dst_ids):
                scattered.append(source_ids.size)
                return real_scatter(strategy, hubs, replicas, source_ids, dst_ids)

            monkeypatch.setattr(gas, "scatter", spy)
            edge_delta = self.edge_delta(rng, session, graph)
            assert session.apply_delta(edge_delta).in_place
            assert not scattered                        # patched at the next open
            incremental = session.infer(mode="incremental").scores
            monkeypatch.undo()
            assert [dict(schedules) for schedules in self.schedules(session)] == residents
            assert all(now[key] is resident for now, schedules
                       in zip(self.schedules(session), residents)
                       for key, resident in schedules.items())
            assert len(scattered) == 4 and sum(scattered) == edge_delta.added_src.size
            self.assert_matches_a_fresh_build(session)

            for each in deltas + [edge_delta]:
                apply_delta_to_graph(reference, each)
            fresh.prepare(reference)
            expected = fresh.infer().scores
            np.testing.assert_array_equal(incremental, expected)
            np.testing.assert_array_equal(session.infer().scores, expected)
        finally:
            session.close()
            fresh.close()

    @staticmethod
    def tick_counters(kind: str, executor: Optional[str] = "serial"):
        """Per-instance counters of one feature, one edge and one mixed tick.

        After a full run and one priming update, each tick is an in-place
        delta then ``infer(mode="incremental")``; for every tick it returns
        ``crc32`` of the sorted ``(phase, partition, compute_units,
        records_in, records_out, bytes_in, bytes_out)`` rows, and their
        compute, records-out and bytes-out totals.
        """
        import zlib

        rng = np.random.default_rng(11)
        session, graph = TestResidentSendSchedule.hub_session(kind, executor=executor)
        try:
            session.prepare(graph)
            session.infer()
            session.apply_delta(TestResidentSendSchedule.feature_delta(rng, graph))
            session.infer(mode="incremental")
            counters = {}
            for tick in ("feature", "edge", "mixed"):
                delta = (TestResidentSendSchedule.feature_delta(rng, graph) if tick == "feature"
                         else TestResidentSendSchedule.edge_delta(
                             rng, session, graph, features=20 if tick == "mixed" else 0))
                assert session.apply_delta(delta).in_place
                metrics = session.infer(mode="incremental").metrics.instances()
                rows = sorted((m.phase, m.instance_id, int(m.compute_units), m.records_in,
                               m.records_out, int(m.bytes_in), int(m.bytes_out))
                              for m in metrics)
                assert all(m.compute_units == int(m.compute_units) for m in metrics)
                counters[tick] = (zlib.crc32(repr(rows).encode()),
                                  sum(row[2] for row in rows), sum(row[4] for row in rows),
                                  sum(row[6] for row in rows))
        finally:
            session.close()
        return counters

    #: ``tick_counters(kind)``, under either executor.  Recipe: put the
    #: checkout's ``src`` and root on ``PYTHONPATH``, import this class from
    #: this file and print ``{k: tick_counters(k) for k in ("gcn", "sage",
    #: "gat")}``.  GCN and SAGE coincide: same widths, and the cost model
    #: charges a layer by its shapes.  Their edge and mixed ticks charge less
    #: compute than at commit d23b566 (191120 and 276960 units): a partial
    #: served from the memo is neither computed nor charged.  Records and
    #: bytes are d23b566's for every kind, and GAT (no combiner, no memo) is
    #: unchanged, as are the feature ticks (the first after a full run, whose
    #: memo is empty).
    GOLDEN_TICK_COUNTERS = {
        "gcn": {"feature": (3199251714, 118624, 1169, 159584),
                "edge": (1102191817, 188704, 1982, 231056),
                "mixed": (886403242, 272368, 2812, 327304)},
        "sage": {"feature": (3199251714, 118624, 1169, 159584),
                 "edge": (1102191817, 188704, 1982, 231056),
                 "mixed": (886403242, 272368, 2812, 327304)},
        "gat": {"feature": (2929656786, 92524, 1498, 251896),
                "edge": (1121655177, 135780, 2410, 353520),
                "mixed": (3764772896, 208156, 3465, 509536)},
    }

    @pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
    def test_tick_counters_are_golden(self, kind):
        """(c) Selecting from the resident schedule and the memo sends exactly
        what re-deriving routing for the frontier's edges sent: every
        incremental instance's records and bytes are unchanged, and its
        compute units are the recorded ones — under whichever executor the
        environment picks: a process worker keeps its memo between runs."""
        assert self.tick_counters(kind, executor=None) == self.GOLDEN_TICK_COUNTERS[kind]

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(["gcn", "sage", "gat"]), partial_gather=st.booleans(),
           steps=st.lists(st.sampled_from(["feature", "edge", "mixed"]),
                          min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    def test_interleaved_deltas_stay_bit_identical(self, kind, partial_gather, steps, seed):
        """Any interleaving of feature and hub-preserving edge deltas: every
        incremental infer equals a fresh ``prepare()+infer()`` bit for bit,
        nothing re-plans, every patched schedule equals a fresh build per
        destination, and every memo entry a fresh fold of its pair."""
        from repro.inference.delta import apply_delta_to_graph

        rng = np.random.default_rng(seed)
        session, graph = self.hub_session(kind, partial_gather, seed=seed % 7 + 30)
        fresh, reference = self.hub_session(kind, partial_gather, seed=seed % 7 + 30)
        try:
            session.prepare(graph)
            assert session.plan.shadow_plan.has_mirrors
            session.infer()
            first = self.feature_delta(rng, graph)
            session.apply_delta(first)
            apply_delta_to_graph(reference, first)
            session.infer(mode="incremental")           # primes the state cache
            for step in steps:
                delta = (self.feature_delta(rng, graph, size=8) if step == "feature"
                         else self.edge_delta(rng, session, graph, added=6, removed=4,
                                              features=4 if step == "mixed" else 0))
                assert session.apply_delta(delta).in_place
                apply_delta_to_graph(reference, delta)
                scores = session.infer(mode="incremental").scores
                self.assert_matches_a_fresh_build(session)
                self.assert_memo_matches_a_fresh_fold(session)
                fresh.prepare(reference)
                np.testing.assert_array_equal(scores, fresh.infer().scores)
            assert session.num_replans == 0
        finally:
            session.close()
            fresh.close()
