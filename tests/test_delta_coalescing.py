"""Deferred-delta coalescing: merged application ≡ eager application.

The contract under test: ``apply_delta(..., defer=True)`` buffers deltas and
the next ``infer()`` / ``flush_deltas()`` applies **one merged delta**, whose
resulting graph arrays — and therefore scores — are *byte/bit-identical* to
applying the same deltas eagerly one by one.  Property-tested on random
power-law graphs with mixed feature/edge deltas, overlapping feature writes
(last-write-wins) and removals that cancel earlier appends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import (
    DeltaBuffer,
    GraphDelta,
    InferenceConfig,
    InferenceSession,
    StalePlanError,
    StrategyConfig,
)
from repro.inference.delta import apply_delta_to_graph


def make_graph(seed: int, num_nodes: int = 500):
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=6.0, skew="out",
                          feature_dim=8, num_classes=4, seed=seed)


def make_config(backend: str = "pregel", **strategy_kwargs) -> InferenceConfig:
    kwargs = dict(partial_gather=True, broadcast=True, shadow_nodes=True,
                  hub_threshold_override=20)
    kwargs.update(strategy_kwargs)
    return InferenceConfig(backend=backend, num_workers=4,
                           strategies=StrategyConfig(**kwargs))


def make_session(backend: str = "pregel", **strategy_kwargs) -> InferenceSession:
    model = build_model("gcn", 8, 16, 4, num_layers=2, seed=0)
    return InferenceSession(model, make_config(backend, **strategy_kwargs))


def random_mixed_delta(rng: np.random.Generator, num_nodes: int,
                       current_num_edges: int, features: bool = True,
                       edges: bool = True) -> GraphDelta:
    kwargs = {}
    if features:
        count = int(rng.integers(1, 12))
        kwargs["node_ids"] = rng.choice(num_nodes, size=count, replace=False)
        kwargs["node_features"] = rng.standard_normal((count, 8))
    if edges:
        add = int(rng.integers(0, 5))
        if add:
            kwargs["added_src"] = rng.integers(0, num_nodes, size=add)
            kwargs["added_dst"] = rng.integers(0, num_nodes, size=add)
        remove = int(rng.integers(0, 4))
        if remove and current_num_edges > remove:
            kwargs["removed_edge_ids"] = rng.choice(current_num_edges, size=remove,
                                                    replace=False)
    return GraphDelta(**kwargs)


# --------------------------------------------------------------------------- #
# buffer-level exactness
# --------------------------------------------------------------------------- #
class TestDeltaBufferMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_merged_graph_arrays_byte_identical_to_sequential(self, seed):
        rng = np.random.default_rng(seed)
        merged_graph = make_graph(seed)
        sequential_graph = make_graph(seed)
        buffer = DeltaBuffer(merged_graph)
        current_edges = sequential_graph.num_edges
        for _ in range(6):
            delta = random_mixed_delta(rng, merged_graph.num_nodes, current_edges)
            buffer.add(delta)
            apply_delta_to_graph(sequential_graph, GraphDelta(
                node_ids=delta.node_ids, node_features=delta.node_features,
                added_src=delta.added_src, added_dst=delta.added_dst,
                removed_edge_ids=delta.removed_edge_ids))
            current_edges = sequential_graph.num_edges
        apply_delta_to_graph(merged_graph, buffer.merge())
        np.testing.assert_array_equal(merged_graph.src, sequential_graph.src)
        np.testing.assert_array_equal(merged_graph.dst, sequential_graph.dst)
        np.testing.assert_array_equal(merged_graph.node_features,
                                      sequential_graph.node_features)

    def test_last_feature_write_wins(self):
        graph = make_graph(5)
        buffer = DeltaBuffer(graph)
        buffer.add(GraphDelta(node_ids=np.array([3, 7]),
                              node_features=np.ones((2, 8))))
        buffer.add(GraphDelta(node_ids=np.array([7, 9]),
                              node_features=np.full((2, 8), 2.0)))
        merged = buffer.merge()
        np.testing.assert_array_equal(merged.node_ids, [3, 7, 9])
        np.testing.assert_array_equal(merged.node_features[1], np.full(8, 2.0))

    def test_removal_cancels_buffered_append(self):
        graph = make_graph(6)
        base_edges = graph.num_edges
        buffer = DeltaBuffer(graph)
        buffer.add(GraphDelta(added_src=np.array([0, 1]), added_dst=np.array([2, 3])))
        # Virtual edge list = base edges then the two appends; remove the
        # first appended edge by its virtual position.
        buffer.add(GraphDelta(removed_edge_ids=np.array([base_edges])))
        merged = buffer.merge()
        assert merged.removed_edge_ids is None
        np.testing.assert_array_equal(merged.added_src, [1])
        np.testing.assert_array_equal(merged.added_dst, [3])

    def test_cancelling_deltas_merge_to_empty(self):
        graph = make_graph(7)
        buffer = DeltaBuffer(graph)
        buffer.add(GraphDelta(added_src=np.array([0]), added_dst=np.array([1])))
        buffer.add(GraphDelta(removed_edge_ids=np.array([graph.num_edges])))
        assert buffer.merge().is_empty and not buffer.is_empty

    @pytest.mark.parametrize("seed", [9, 10, 11, 12])
    def test_interleaved_edge_feature_cancellation(self, seed):
        # Property: on a graph *with edge features*, interleaved appends and
        # removals — including removals that cancel still-buffered appends —
        # merge to a delta whose application is byte-identical to sequential
        # application, with every cancelled edge's feature row dropped
        # alongside its endpoints.
        rng = np.random.default_rng(seed)
        merged_graph = make_graph(seed)
        merged_graph.edge_features = rng.standard_normal((merged_graph.num_edges, 3))
        sequential_graph = make_graph(seed)
        sequential_graph.edge_features = merged_graph.edge_features.copy()
        buffer = DeltaBuffer(merged_graph)
        current_edges = sequential_graph.num_edges
        for step in range(8):
            kwargs = {}
            add = int(rng.integers(0, 4)) if step % 2 == 0 else 0
            if add:
                kwargs["added_src"] = rng.integers(0, merged_graph.num_nodes, size=add)
                kwargs["added_dst"] = rng.integers(0, merged_graph.num_nodes, size=add)
                kwargs["added_edge_features"] = rng.standard_normal((add, 3))
            remove = int(rng.integers(1, 4)) if step % 2 == 1 else 0
            if remove:
                # Bias removals toward the tail so buffered appends are hit
                # (the virtual edge list keeps appends last).
                tail = min(current_edges, 12)
                kwargs["removed_edge_ids"] = (current_edges - 1 - rng.choice(
                    tail, size=min(remove, tail), replace=False))
            if not kwargs:
                continue
            delta = GraphDelta(**kwargs)
            buffer.add(delta)
            apply_delta_to_graph(sequential_graph, GraphDelta(
                added_src=delta.added_src, added_dst=delta.added_dst,
                added_edge_features=delta.added_edge_features,
                removed_edge_ids=delta.removed_edge_ids))
            current_edges = sequential_graph.num_edges
        merged = buffer.merge()
        if merged.added_src is not None:
            assert merged.added_edge_features is not None
            assert merged.added_edge_features.shape[0] == merged.added_src.size
        apply_delta_to_graph(merged_graph, merged)
        np.testing.assert_array_equal(merged_graph.src, sequential_graph.src)
        np.testing.assert_array_equal(merged_graph.dst, sequential_graph.dst)
        np.testing.assert_array_equal(merged_graph.edge_features,
                                      sequential_graph.edge_features)

    def test_removal_cancels_append_with_edge_features(self):
        # The cancelled append's feature row must drop *with its edge*: the
        # surviving appended edge keeps its own row, not the cancelled one's.
        graph = make_graph(13)
        rng = np.random.default_rng(13)
        graph.edge_features = rng.standard_normal((graph.num_edges, 3))
        base_edges = graph.num_edges
        buffer = DeltaBuffer(graph)
        rows = np.arange(6, dtype=np.float64).reshape(2, 3)
        buffer.add(GraphDelta(added_src=np.array([0, 1]),
                              added_dst=np.array([2, 3]),
                              added_edge_features=rows))
        buffer.add(GraphDelta(removed_edge_ids=np.array([base_edges])))
        merged = buffer.merge()
        np.testing.assert_array_equal(merged.added_src, [1])
        np.testing.assert_array_equal(merged.added_edge_features, rows[1:])

    def test_add_validates_against_virtual_state(self):
        graph = make_graph(8)
        buffer = DeltaBuffer(graph)
        with pytest.raises(ValueError, match="removed_edge_ids"):
            buffer.add(GraphDelta(removed_edge_ids=np.array([graph.num_edges])))
        buffer.add(GraphDelta(added_src=np.array([0]), added_dst=np.array([1])))
        buffer.add(GraphDelta(removed_edge_ids=np.array([graph.num_edges])))  # now valid
        with pytest.raises(ValueError, match="width"):
            buffer.add(GraphDelta(node_ids=np.array([0]),
                                  node_features=np.zeros((1, 3))))
        with pytest.raises(ValueError, match="outside"):
            buffer.add(GraphDelta(added_src=np.array([graph.num_nodes]),
                                  added_dst=np.array([0])))


# --------------------------------------------------------------------------- #
# session-level bit-identity: deferred flush vs eager application
# --------------------------------------------------------------------------- #
class TestDeferredSessions:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_deferred_scores_bit_identical_to_eager(self, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        deferred = make_session()
        eager = make_session()
        graph_a, graph_b = make_graph(seed), make_graph(seed)
        deferred.prepare(graph_a)
        deferred.infer()
        eager.prepare(graph_b)
        eager.infer()
        for _ in range(4):
            delta_a = random_mixed_delta(rng_a, graph_a.num_nodes,
                                         graph_a.num_edges, edges=False)
            delta_b = random_mixed_delta(rng_b, graph_b.num_nodes,
                                         graph_b.num_edges, edges=False)
            deferred.apply_delta(delta_a, defer=True)
            eager.apply_delta(delta_b)
        assert deferred.num_pending_deltas == 4
        incremental = deferred.infer(mode="incremental").scores
        assert deferred.num_pending_deltas == 0
        np.testing.assert_array_equal(incremental,
                                      eager.infer(mode="incremental").scores)

    def test_deferred_edge_deltas_match_eager(self):
        # Edge deltas patch in place under shadow nodes while the hub set
        # holds and re-plan transparently when it does not; either way the
        # merged flush must land the same graph state — and scores — the
        # eager path reaches step by step.
        rng = np.random.default_rng(31)
        deferred = make_session()
        eager = make_session()
        graph_a, graph_b = make_graph(31), make_graph(31)
        deferred.prepare(graph_a)
        eager.prepare(graph_b)
        for _ in range(3):
            # One delta fed to both paths: its removal positions index the
            # eager graph's live edge list, which is exactly the deferred
            # buffer's virtual edge list at the same point in the sequence.
            delta = random_mixed_delta(rng, graph_b.num_nodes, graph_b.num_edges)
            deferred.apply_delta(delta, defer=True)
            eager.apply_delta(delta)
        np.testing.assert_array_equal(deferred.infer().scores,
                                      eager.infer().scores)
        np.testing.assert_array_equal(graph_a.src, graph_b.src)

    def test_explicit_flush(self):
        session = make_session()
        graph = make_graph(33)
        session.prepare(graph)
        session.infer()
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.ones((1, 8))), defer=True)
        outcome = session.flush_deltas()
        assert outcome.in_place and not outcome.deferred
        assert session.num_pending_deltas == 0
        assert session.flush_deltas().reason == "no pending deltas"

    def test_eager_apply_flushes_pending_first(self):
        # Sequence semantics: an eager delta describes the state *after* the
        # buffered ones; both writes to node 1 must land in order.
        session = make_session()
        graph = make_graph(35)
        session.prepare(graph)
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.full((1, 8), 5.0)),
                            defer=True)
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.full((1, 8), 9.0)))
        assert session.num_pending_deltas == 0
        np.testing.assert_array_equal(graph.node_features[1], np.full(8, 9.0))

    def test_prepare_refuses_while_pending(self):
        session = make_session()
        graph = make_graph(37)
        session.prepare(graph)
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.ones((1, 8))), defer=True)
        with pytest.raises(RuntimeError, match="deferred delta"):
            session.prepare(graph)
        assert session.discard_pending_deltas() == 1
        session.prepare(graph)                     # fine after discarding

    def test_defer_on_stale_graph_still_raises(self):
        session = make_session()
        graph = make_graph(39)
        session.prepare(graph)
        graph.node_features[0] += 1.0              # out of band
        with pytest.raises(StalePlanError):
            session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                           node_features=np.ones((1, 8))),
                                defer=True)

    def test_flush_detects_mutation_after_defer(self):
        # The flush must not launder an out-of-band mutation made *after* the
        # deltas were deferred: applying the merged delta would refresh the
        # fingerprint over the foreign change and serve wrong scores.
        session = make_session()
        graph = make_graph(41)
        session.prepare(graph)
        session.infer()
        session.apply_delta(GraphDelta(node_ids=np.array([1]),
                                       node_features=np.ones((1, 8))), defer=True)
        graph.node_features[7] += 100.0            # out of band, post-defer
        with pytest.raises(StalePlanError):
            session.infer()
        # The buffer was consumed; recovery via re-plan works.
        assert session.num_pending_deltas == 0
        session.prepare(graph)
        session.infer()

    def test_failed_first_defer_leaves_no_stale_buffer(self):
        # A rejected first deferred delta must not pin an empty buffer to the
        # current edge-list snapshot: a later eager edge delta would shift
        # positions underneath it and corrupt the next deferred removal.
        session = make_session(shadow_nodes=False)
        graph = make_graph(43)
        session.prepare(graph)
        with pytest.raises(ValueError, match="width"):
            session.apply_delta(GraphDelta(node_ids=np.array([0]),
                                           node_features=np.zeros((1, 3))),
                                defer=True)
        assert session.num_pending_deltas == 0
        # Grow the graph eagerly, then defer a removal of the last (just
        # appended) edge — a position only valid against the *current* edge
        # list.  A stale buffer snapshotted before the append would either
        # reject the position or translate it onto the wrong edge.
        session.apply_delta(GraphDelta(added_src=np.array([0, 1]),
                                       added_dst=np.array([2, 3])))
        expected_src = graph.src[:-1].copy()       # everything but the 1->3 append
        expected_dst = graph.dst[:-1].copy()
        session.apply_delta(
            GraphDelta(removed_edge_ids=np.array([graph.num_edges - 1])),
            defer=True)
        session.flush_deltas()
        np.testing.assert_array_equal(graph.src, expected_src)
        np.testing.assert_array_equal(graph.dst, expected_dst)

    def test_deferred_mapreduce_matches_eager(self):
        rng_a, rng_b = np.random.default_rng(43), np.random.default_rng(43)
        deferred = make_session(backend="mapreduce")
        eager = make_session(backend="mapreduce")
        graph_a, graph_b = make_graph(43, num_nodes=300), make_graph(43, num_nodes=300)
        deferred.prepare(graph_a)
        deferred.infer()
        eager.prepare(graph_b)
        eager.infer()
        for _ in range(3):
            delta_a = random_mixed_delta(rng_a, 300, graph_a.num_edges, edges=False)
            delta_b = random_mixed_delta(rng_b, 300, graph_b.num_edges, edges=False)
            deferred.apply_delta(delta_a, defer=True)
            eager.apply_delta(delta_b)
        np.testing.assert_array_equal(deferred.infer().scores,
                                      eager.infer().scores)


# --------------------------------------------------------------------------- #
# the one delta path: eager == buffer + flush, on every front and backend
# --------------------------------------------------------------------------- #
def shaped_delta(kind: str, graph, rng: np.random.Generator) -> GraphDelta:
    """A feature / edge / mixed / hub-moving delta over ``graph``.

    Edge changes keep every touched source far below the hub threshold (20)
    so pregel and mapreduce patch in place; ``hub_moving`` pushes one
    low-degree source over it, which must re-plan.
    """
    out_degree = np.bincount(graph.src, minlength=graph.num_nodes)
    low = np.nonzero(out_degree < 5)[0]
    kwargs = {}
    if kind in ("feature", "mixed"):
        kwargs["node_ids"] = rng.choice(graph.num_nodes, size=9, replace=False)
        kwargs["node_features"] = rng.standard_normal((9, 8))
    if kind in ("edge", "mixed"):
        kwargs["added_src"] = low[:4]
        kwargs["added_dst"] = rng.integers(0, graph.num_nodes, size=4)
        kwargs["removed_edge_ids"] = np.nonzero(np.isin(graph.src, low[4:40]))[0][:3]
    if kind == "hub_moving":
        kwargs["added_src"] = np.full(30, low[0])
        kwargs["added_dst"] = rng.choice(graph.num_nodes, size=30, replace=False)
    return GraphDelta(**kwargs)


def graph_bytes(graph):
    return [None if a is None else a.tobytes()
            for a in (graph.src, graph.dst, graph.node_features, graph.edge_features)]


class TestOneDeltaPath:
    @pytest.mark.parametrize("front", ["session", "pool"])
    @pytest.mark.parametrize("kind", ["feature", "edge", "mixed", "hub_moving"])
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_eager_equals_defer_then_flush(self, backend, kind, front):
        from repro.inference import SessionPool

        def run(two_step: bool):
            graph = make_graph(61, num_nodes=300)
            delta = shaped_delta(kind, graph, np.random.default_rng(61))
            if front == "pool":
                pool = SessionPool(build_model("gcn", 8, 16, 4, num_layers=2, seed=0),
                                   make_config(backend), capacity=2)
                pool.infer(graph)
                session = pool.session_for(graph)
                apply = lambda **kw: pool.apply_delta(graph, delta, **kw)
                infer = lambda: pool.infer(graph, mode="incremental")
            else:
                session = make_session(backend)
                session.prepare(graph)
                session.infer()
                apply = lambda **kw: session.apply_delta(delta, **kw)
                infer = lambda: session.infer(mode="incremental")
            if two_step:
                assert apply(defer=True).deferred
                outcome = session.flush_deltas()
            else:
                outcome = apply()
            assert session.num_pending_deltas == 0 and not outcome.deferred
            fingerprint = session.plan.fingerprint
            scores = infer().scores
            if front == "pool":
                assert pool.stats.misses == 1          # the handle kept hitting
                assert graph_bytes(graph) == graph_bytes(session.plan.graph)
            return (scores, graph_bytes(session.plan.graph), fingerprint,
                    outcome.in_place, session.num_replans)

        eager, two_step = run(False), run(True)
        np.testing.assert_array_equal(eager[0], two_step[0])
        assert eager[1:] == two_step[1:]
        # The shapes exercise what they claim: in-place patches where the
        # hub set holds, exactly one re-plan where not.
        in_place, replans = eager[3], eager[4]
        assert in_place == (kind != "hub_moving")
        assert replans == (0 if in_place else 1)

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_eager_on_pending_buffer_is_one_merged_patch(self, backend, monkeypatch):
        # k deferred deltas + one eager delta reach the backend as ONE merged
        # apply_delta (not "flush, then a second patch"), and land the same
        # bytes and scores as applying all k+1 eagerly one by one.
        rng = np.random.default_rng(67)
        merged, sequential = make_session(backend), make_session(backend)
        graph_a, graph_b = make_graph(67, num_nodes=300), make_graph(67, num_nodes=300)
        merged.prepare(graph_a)
        merged.infer()
        sequential.prepare(graph_b)
        sequential.infer()
        calls = []
        inner = merged.backend.apply_delta
        monkeypatch.setattr(merged.backend, "apply_delta",
                            lambda plan, delta: calls.append(delta) or inner(plan, delta))
        deltas = [random_mixed_delta(rng, 300, graph_b.num_edges, edges=False)
                  for _ in range(3)]
        deltas.append(shaped_delta("mixed", graph_b, rng))
        for delta in deltas[:-1]:
            merged.apply_delta(delta, defer=True)
        assert not calls and merged.num_pending_deltas == 3
        outcome = merged.apply_delta(deltas[-1])
        assert len(calls) == 1 and outcome.in_place and not outcome.deferred
        assert merged.num_pending_deltas == 0
        monkeypatch.undo()
        for delta in deltas:
            sequential.apply_delta(delta)
        assert graph_bytes(graph_a) == graph_bytes(graph_b)
        assert merged.plan.fingerprint == sequential.plan.fingerprint
        a = merged.infer(mode="incremental").scores
        b = sequential.infer(mode="incremental").scores
        np.testing.assert_array_equal(a, b)
