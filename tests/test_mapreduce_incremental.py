"""MapReduce after a delta: in-place graph patching, then full rounds.

Property-tested on random power-law graphs with all hub strategies enabled:
``apply_delta`` lands feature deltas on the engine partitions the rounds
read (no re-plan, as on Pregel), and the MapReduce backend has no
incremental path of its own — ``infer(mode="incremental")`` runs the full
rounds over those patched partitions, which are byte-identical to a fresh
plan's.  So every run, full or "incremental", is **bit-identical** to a
fresh ``prepare()+infer()`` on the mutated graph, and no result survives a
run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    StrategyConfig,
)


def make_graph(seed: int, num_nodes: int = 500):
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=6.0, skew="out",
                          feature_dim=8, num_classes=4, seed=seed)


def make_config(**strategy_kwargs) -> InferenceConfig:
    kwargs = dict(partial_gather=True, broadcast=True, shadow_nodes=True,
                  hub_threshold_override=20)
    kwargs.update(strategy_kwargs)
    return InferenceConfig(backend="mapreduce", num_workers=4,
                           strategies=StrategyConfig(**kwargs))


def make_session(kind: str = "gcn", **strategy_kwargs) -> InferenceSession:
    model = build_model(kind, 8, 16, 4, num_layers=2, seed=0)
    return InferenceSession(model, make_config(**strategy_kwargs))


def fresh_scores(graph, kind: str = "gcn", **strategy_kwargs) -> np.ndarray:
    session = make_session(kind, **strategy_kwargs)
    session.prepare(graph)
    return session.infer().scores


def feature_delta(rng: np.random.Generator, num_nodes: int,
                  fraction: float = 0.03) -> GraphDelta:
    count = max(1, int(num_nodes * fraction))
    ids = rng.choice(num_nodes, size=count, replace=False)
    return GraphDelta(node_ids=ids,
                      node_features=rng.standard_normal((count, 8)))


def warmed_session(graph, **strategy_kwargs) -> InferenceSession:
    """A session that has seen a delta and run since: full, tiny delta, full."""
    session = make_session(**strategy_kwargs)
    session.prepare(graph)
    session.infer()
    session.apply_delta(GraphDelta(node_ids=np.array([0]),
                                   node_features=graph.node_features[[0]].copy()))
    session.infer()
    return session


class TestIncrementalReplay:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("strategies", [
        {},                                       # all strategies on
        {"shadow_nodes": False},                  # broadcast without mirrors
        {"shadow_nodes": False, "broadcast": False},
    ])
    def test_incremental_matches_full_recompute(self, seed, strategies):
        rng = np.random.default_rng(seed)
        graph = make_graph(seed)
        session = warmed_session(graph, **strategies)
        delta = feature_delta(rng, graph.num_nodes)
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        incremental = session.infer(mode="incremental").scores

        reference = make_graph(seed)
        reference.node_features[delta.node_ids] = delta.node_features
        full = fresh_scores(reference, **strategies)
        np.testing.assert_array_equal(incremental, full)

    def test_consecutive_incrementals_chain(self):
        rng = np.random.default_rng(13)
        graph = make_graph(13)
        reference = make_graph(13)
        session = warmed_session(graph)
        for _ in range(3):
            delta = feature_delta(rng, graph.num_nodes, fraction=0.01)
            session.apply_delta(delta)
            reference.node_features[delta.node_ids] = delta.node_features
            incremental = session.infer(mode="incremental").scores
        np.testing.assert_array_equal(incremental, fresh_scores(reference))
        assert "scores" not in session.plan.state
        # the partitions give their state and outputs up once scores are read
        for partition in session.plan.state["engine"].partitions:
            assert not {"h", "output"} & set(partition.block_state)

    def test_incremental_request_runs_the_full_rounds(self):
        """An incremental request after a delta costs exactly what a full
        run on the same patched plan costs: it is that run."""
        rng = np.random.default_rng(17)
        graph = make_graph(17)
        session = warmed_session(graph)
        session.apply_delta(feature_delta(rng, graph.num_nodes, fraction=0.005))
        incremental = session.infer(mode="incremental")
        full = session.infer()
        np.testing.assert_array_equal(incremental.scores, full.scores)
        assert incremental.cost.total_bytes == full.cost.total_bytes
        for counter in ("compute_units", "bytes_out", "records_out"):
            assert incremental.metrics.total(counter) == full.metrics.total(counter)


class TestRecordPatching:
    """There are no cached records left to patch: the first round reads its
    input rows from the partitions, which ``apply_delta`` patched."""

    def test_full_infer_after_patch_bit_identical_to_fresh_plan(self):
        rng = np.random.default_rng(29)
        graph = make_graph(29)
        session = make_session()
        session.prepare(graph)
        session.infer()
        delta = feature_delta(rng, graph.num_nodes)
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        assert session.num_replans == 0
        reference = make_graph(29)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(session.infer().scores,
                                      fresh_scores(reference))

    def test_shadow_mirror_records_refreshed(self):
        rng = np.random.default_rng(31)
        graph = make_graph(31)
        session = make_session()
        session.prepare(graph)
        shadow_plan = session.plan.shadow_plan
        assert shadow_plan is not None and shadow_plan.has_mirrors
        # Pick a mirrored hub and refresh its features: every replica's input
        # row must carry the new values.
        group_sizes = np.diff(shadow_plan.replica_indptr)
        hub = int(np.nonzero(group_sizes > 1)[0][0])
        replicas = shadow_plan.replica_ids[
            shadow_plan.replica_indptr[hub]:shadow_plan.replica_indptr[hub + 1]]
        assert replicas[0] == hub and replicas.size == group_sizes[hub]
        delta = GraphDelta(node_ids=np.array([hub]),
                           node_features=rng.standard_normal((1, 8)))
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        # Every replica's partition feature row — what round 0's map encodes.
        engine, layout = session.plan.state["engine"], session.plan.layout
        for replica in replicas:
            partition = engine.partitions[layout.owners(np.array([replica]))[0]]
            row = partition.local_indices(np.array([replica]))[0]
            np.testing.assert_array_equal(partition.node_features[row],
                                          delta.node_features[0])
