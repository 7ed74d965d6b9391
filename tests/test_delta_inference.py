"""The staleness contract and incremental delta-inference.

Property-style checks on random power-law graphs: mutating a prepared graph
out of band must raise :class:`StalePlanError` (never silently serve stale
scores), and an in-band :class:`GraphDelta` followed by
``infer(mode="incremental")`` must be *bit-identical* to a fresh full
``prepare()+infer()`` on the mutated graph — shadow nodes and broadcast
enabled, on both backends (mapreduce answers an incremental request with a
full run).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

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
    graph_fingerprint,
)
from repro.inference.delta import apply_delta_to_graph, expand_frontier
from repro.inference.shadow import apply_shadow_nodes


ALL_ON = dict(partial_gather=True, broadcast=True, shadow_nodes=True,
              hub_threshold_override=20)


def make_graph(seed: int, num_nodes: int = 700) -> Graph:
    return powerlaw_graph(num_nodes=num_nodes, avg_degree=6.0, skew="out",
                          feature_dim=8, num_classes=4, seed=seed)


def make_config(backend: str = "pregel", **strategy_kwargs) -> InferenceConfig:
    kwargs = dict(ALL_ON)
    kwargs.update(strategy_kwargs)
    return InferenceConfig(backend=backend, num_workers=4,
                           strategies=StrategyConfig(**kwargs))


def make_session(graph: Graph, kind: str = "gcn", **config_kwargs) -> InferenceSession:
    model = build_model(kind, graph.feature_dim, 16, 4, num_layers=2, seed=0)
    return InferenceSession(model, make_config(**config_kwargs))


def fresh_scores(graph: Graph, kind: str = "gcn", **config_kwargs) -> np.ndarray:
    session = make_session(graph, kind, **config_kwargs)
    session.prepare(graph)
    return session.infer().scores


def random_feature_delta(rng: np.random.Generator, graph: Graph,
                         fraction: float = 0.03) -> GraphDelta:
    count = max(1, int(graph.num_nodes * fraction))
    ids = rng.choice(graph.num_nodes, size=count, replace=False)
    rows = rng.standard_normal((count, graph.feature_dim))
    return GraphDelta(node_ids=ids, node_features=rows)


class _KeptMaskThatFailsToPatch(np.ndarray):
    """A pending edge mask whose complement raises: ``out_src_local`` takes
    it, then the first send schedule's patch (``~kept``) fails."""

    def __invert__(self):
        raise RuntimeError("patch failed")


# --------------------------------------------------------------------------- #
# staleness detection
# --------------------------------------------------------------------------- #
class TestStaleness:
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_out_of_band_mutation_raises(self, backend):
        graph = make_graph(seed=1)
        session = make_session(graph, backend=backend)
        session.prepare(graph)
        session.infer()
        graph.node_features[3, 0] += 1.0
        with pytest.raises(StalePlanError, match="apply_delta"):
            session.infer()

    def test_edge_mutation_raises(self):
        graph = make_graph(seed=2)
        session = make_session(graph)
        session.prepare(graph)
        graph.src = np.concatenate([graph.src, np.array([0])])
        graph.dst = np.concatenate([graph.dst, np.array([1])])
        graph.invalidate_adjacency()
        with pytest.raises(StalePlanError):
            session.infer()

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_a_write_to_the_dst_the_working_graph_shares_raises(self, backend):
        # The shadow rewrite changes only sources, so the expanded working
        # graph shares the caller's dst: an in-place write reaches the plan,
        # and the fingerprint must catch it.
        graph = make_graph(seed=4)
        session = make_session(graph, backend=backend)
        plan = session.prepare(graph)
        assert plan.shadow_plan.has_mirrors and plan.working_graph is not graph
        assert plan.working_graph.dst is graph.dst
        graph.dst[0] = (graph.dst[0] + 1) % graph.num_nodes
        with pytest.raises(StalePlanError):
            session.infer()

    def test_exact_restore_serves_again(self):
        graph = make_graph(seed=3)
        session = make_session(graph)
        session.prepare(graph)
        base = session.infer().scores
        saved = graph.node_features[5].copy()
        graph.node_features[5] = 7.0
        with pytest.raises(StalePlanError):
            session.infer()
        graph.node_features[5] = saved
        np.testing.assert_array_equal(session.infer().scores, base)

    def test_apply_delta_on_stale_graph_raises(self):
        # apply_delta must not launder an out-of-band mutation into a fresh
        # fingerprint: the patch would cover only the delta's rows while the
        # foreign mutation silently reached some-but-not-all caches.
        graph = make_graph(seed=6)
        session = make_session(graph)
        session.prepare(graph)
        session.infer()
        graph.node_features[7] += 5.0     # out of band
        delta = GraphDelta(node_ids=np.array([3]),
                           node_features=np.ones((1, graph.feature_dim)))
        with pytest.raises(StalePlanError):
            session.apply_delta(delta)

    def test_mutation_right_after_an_eager_flush_raises(self):
        # The flush checked and refreshed the fingerprint; a mutation made
        # after it returned must still be caught by the next infer()'s check.
        graph = make_graph(seed=8)
        session = make_session(graph)
        session.prepare(graph)
        session.infer()
        session.apply_delta(GraphDelta(node_ids=np.array([3]),
                                       node_features=np.ones((1, graph.feature_dim))))
        graph.node_features[7] += 5.0     # out of band
        with pytest.raises(StalePlanError):
            session.infer(mode="incremental")

    def test_fingerprint_tracks_content(self):
        graph = make_graph(seed=5)
        before = graph_fingerprint(graph)
        assert graph_fingerprint(graph) == before
        graph.node_features[0, 0] += 1.0
        assert graph_fingerprint(graph) != before


# --------------------------------------------------------------------------- #
# incremental inference: bit-identity with a fresh full run
# --------------------------------------------------------------------------- #
class TestIncrementalFeatureDelta:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_bit_identical_on_random_powerlaw(self, seed):
        rng = np.random.default_rng(seed)
        graph = make_graph(seed=seed)
        session = make_session(graph)
        session.prepare(graph)
        session.infer()

        delta = random_feature_delta(rng, graph)
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        incremental = session.infer(mode="incremental").scores

        reference = make_graph(seed=seed)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(incremental, fresh_scores(reference))

    def test_consecutive_deltas_accumulate(self):
        rng = np.random.default_rng(7)
        graph = make_graph(seed=7)
        reference = make_graph(seed=7)
        session = make_session(graph)
        session.prepare(graph)
        session.infer()
        for _ in range(3):
            delta = random_feature_delta(rng, graph, fraction=0.01)
            session.apply_delta(delta)
            reference.node_features[delta.node_ids] = delta.node_features
        incremental = session.infer(mode="incremental").scores
        np.testing.assert_array_equal(incremental, fresh_scores(reference))

    def test_full_mode_after_delta_is_current(self):
        rng = np.random.default_rng(9)
        graph = make_graph(seed=9)
        session = make_session(graph)
        session.prepare(graph)
        session.infer()
        delta = random_feature_delta(rng, graph)
        session.apply_delta(delta)
        full = session.infer().scores      # default full mode, patched plan
        reference = make_graph(seed=9)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(full, fresh_scores(reference))

    def test_gat_projecting_apply_edge(self):
        # GAT's apply_edge projects messages, exercising edge_messages over
        # the sent edges instead of the identity row-gather fast path.
        rng = np.random.default_rng(13)
        graph = make_graph(seed=13, num_nodes=400)
        session = make_session(graph, kind="gat")
        session.prepare(graph)
        session.infer()
        delta = random_feature_delta(rng, graph)
        session.apply_delta(delta)
        incremental = session.infer(mode="incremental").scores
        reference = make_graph(seed=13, num_nodes=400)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(incremental, fresh_scores(reference, kind="gat"))

    def test_incremental_before_any_full_run_falls_back(self):
        rng = np.random.default_rng(17)
        graph = make_graph(seed=17)
        session = make_session(graph)
        session.prepare(graph)     # never ran infer(): no warm state cache
        delta = random_feature_delta(rng, graph)
        session.apply_delta(delta)
        scores = session.infer(mode="incremental").scores
        reference = make_graph(seed=17)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(scores, fresh_scores(reference))

    def test_incremental_with_no_delta_reproduces_cached_scores(self):
        graph = make_graph(seed=21)
        session = make_session(graph)
        session.prepare(graph)
        base = session.infer().scores
        again = session.infer(mode="incremental").scores
        np.testing.assert_array_equal(again, base)

    def test_incremental_moves_fewer_bytes(self):
        rng = np.random.default_rng(25)
        graph = make_graph(seed=25)
        session = make_session(graph)
        session.prepare(graph)
        full = session.infer()
        # The state cache is lazy: the first post-delta run primes it (full
        # cost), later incrementals ride it.
        session.apply_delta(random_feature_delta(rng, graph, fraction=0.005))
        priming = session.infer(mode="incremental")
        assert priming.cost.total_bytes >= full.cost.total_bytes * 0.99
        session.apply_delta(random_feature_delta(rng, graph, fraction=0.005))
        incremental = session.infer(mode="incremental")
        assert incremental.cost.total_bytes < full.cost.total_bytes

    def test_state_cache_lazy_until_first_delta(self):
        # A session that never sees a delta must not pay the per-superstep
        # state cache (the pre-delta peak-memory behaviour); the cache arms on
        # the first apply_delta and fills on the next full-shaped run.
        rng = np.random.default_rng(29)
        graph = make_graph(seed=29)
        session = make_session(graph)
        session.prepare(graph)
        no_delta_run = session.infer()
        engine = session.plan.state["engine"]
        assert not engine.cache_warm
        session.apply_delta(random_feature_delta(rng, graph, fraction=0.01))
        delta_run = session.infer()            # full run, now caching
        assert engine.cache_warm
        # Modeled worker memory reflects the cache: armed runs are heavier.
        peak = lambda result: max(m.peak_memory_bytes
                                  for m in result.metrics.instances())
        assert peak(delta_run) > peak(no_delta_run)

    def test_a_warm_cache_holds_only_the_states_a_tick_reads(self, monkeypatch):
        # After a caching full run, and after an incremental tick, each
        # partition holds the states of supersteps 0 … L-1 and the logits.
        # Superstep L's state feeds the head alone: no reference to it, nor
        # to any part of it, survives the run.
        from repro.inference import gas
        from repro.inference.pregel_adaptor import has_cached_run

        graph = make_graph(seed=71)
        model = build_model("gcn", graph.feature_dim, 16, 4, num_layers=2, seed=0)
        session = InferenceSession(model, InferenceConfig(
            backend="pregel", num_workers=4, executor="serial",
            strategies=StrategyConfig(**ALL_ON)))
        session.prepare(graph)
        rng = np.random.default_rng(71)
        session.apply_delta(random_feature_delta(rng, graph))
        last_states = []
        gather_apply = gas.gather_apply

        def recorded(layer, *args, **kwargs):
            state, units = gather_apply(layer, *args, **kwargs)
            if layer is model.layers[-1]:
                last_states.append(state)
            return state, units
        monkeypatch.setattr(gas, "gather_apply", recorded)

        for mode in ("full", "incremental"):
            if mode == "incremental":
                session.apply_delta(random_feature_delta(rng, graph))
            del last_states[:]
            scores = session.infer(mode=mode).scores
            np.testing.assert_array_equal(scores, fresh_scores(graph))
            engine = session.plan.state["engine"]
            assert engine.cache_warm and last_states
            for partition in engine.partitions:
                store = partition.block_state
                assert has_cached_run(partition, model.num_layers)
                assert set(store) <= {"out_src_local", "send_schedule", "h_history",
                                      "output"}
                assert [h.shape for h in store["h_history"]] == [
                    (partition.num_nodes, 16)] * model.num_layers
                assert store["output"].shape == (partition.num_nodes, 4)
                held = store["h_history"] + [store["output"]]
                assert not any(np.shares_memory(array, state)
                               for array in held for state in last_states)

    def test_a_tick_computes_only_frontier_rows(self, monkeypatch):
        # One serving tick — four deferred deltas (two feature, two edge) and
        # an incremental infer through the pool.  Every stage call computes
        # exactly the frontier rows of its superstep, summed over partitions;
        # the head predicts from the rows superstep L computed, no others.
        from repro.inference import SessionPool, gas
        from repro.inference.backends import pregel as pregel_backend

        graph = make_graph(seed=51)
        model = build_model("gcn", graph.feature_dim, 16, 4, num_layers=2, seed=0)
        pool = SessionPool(model, InferenceConfig(
            backend="pregel", num_workers=4, executor="serial",
            strategies=StrategyConfig(**ALL_ON)), capacity=2)
        pool.infer(graph)
        rng = np.random.default_rng(51)
        pool.apply_delta(graph, random_feature_delta(rng, graph, fraction=0.01))
        pool.infer(graph, mode="incremental")        # arms the state cache

        frontiers, computed = [], {"encode": 0, "predict": 0, 0: 0, 1: 0}
        counting = threading.Lock()     # a full superstep steps partitions on threads

        def spy(name, stage, key):
            def wrapped(*args, **kwargs):
                rows = kwargs.get("rows", args[-1])
                out, units = stage(*args, **kwargs)
                assert rows is not None and out.shape[0] == rows.size
                with counting:
                    computed[key(args)] += rows.size
                return out, units
            monkeypatch.setattr(gas, name, wrapped)

        spy("encode", gas.encode, lambda args: "encode")
        spy("gather_apply", gas.gather_apply, lambda args: model.layers.index(args[0]))
        predict = gas.predict

        def predict_computed_rows(net, state):
            with counting:
                computed["predict"] += state.shape[0]
            return predict(net, state)
        monkeypatch.setattr(gas, "predict", predict_computed_rows)
        expand = pregel_backend.expand_frontier

        def recorded_expand(*args, **kwargs):
            frontiers[:] = expand(*args, **kwargs)
            return frontiers
        monkeypatch.setattr(pregel_backend, "expand_frontier", recorded_expand)

        safe = np.nonzero(graph.out_degrees() < 10)[0]
        for delta in (random_feature_delta(rng, graph, fraction=0.005),
                      GraphDelta(added_src=safe[:3], added_dst=safe[3:6]),
                      random_feature_delta(rng, graph, fraction=0.005),
                      GraphDelta(removed_edge_ids=np.nonzero(
                          np.isin(graph.src, safe[6:]))[0][:3])):
            pool.apply_delta(graph, delta, defer=True)
        pool.infer(graph, mode="incremental")

        sizes = [frontier.size for frontier in frontiers]
        assert len(sizes) == 3 and 0 < sizes[0] < sizes[2] < graph.num_nodes // 2
        assert computed == {"encode": sizes[0], 0: sizes[1], 1: sizes[2],
                            "predict": sizes[2]}

    @pytest.mark.parametrize("kind,fails_in", [("gcn", "predict"), ("gat", "predict"),
                                               ("gcn", "route"), ("gat", "route"),
                                               ("gcn", "last gather")],
                             ids=["gcn", "gat", "gcn-route", "gat-route",
                                  "gcn-last-gather"])
    def test_a_tick_that_raises_mid_run_is_retried_bit_exactly(self, kind, fails_in,
                                                               monkeypatch):
        # A tick writes its frontier rows into the cached states as it goes,
        # and the partials it re-folds into the senders' memos.  When a stage
        # raises part-way — superstep 2's predict with two partitions done,
        # superstep 1's route in the third partition, after that partition's
        # send rewrote memo rows, or superstep 2's gather in the third
        # partition, after its rows are computed and before their logits are
        # spliced — the session keeps its dirty sets, no row outside a
        # frontier has been written to the L cached states, and the engine no
        # longer counts its cache warm, so the retry runs in full: it, and the
        # incremental tick after it, equal a fresh prepare()+infer() bit for
        # bit.
        from repro.inference import gas
        from repro.inference.backends import pregel as pregel_backend
        from repro.pregel import engine as pregel_engine

        graph = make_graph(seed=61)
        model = build_model(kind, graph.feature_dim, 16, 4, num_layers=2, seed=0)
        config = InferenceConfig(backend="pregel", num_workers=4, executor="serial",
                                 strategies=StrategyConfig(**ALL_ON))
        session = InferenceSession(model, config)
        session.prepare(graph)
        session.infer()
        rng = np.random.default_rng(61)
        session.apply_delta(random_feature_delta(rng, graph))
        session.infer(mode="incremental")             # arms the state cache
        session.apply_delta(random_feature_delta(rng, graph))
        session.infer(mode="incremental")             # fills the memos (gcn)
        session.apply_delta(random_feature_delta(rng, graph))
        engine = session.plan.state["engine"]
        cached = [[h.copy() for h in p.block_state["h_history"]] for p in engine.partitions]
        assert all(len(states) == model.num_layers for states in cached)
        memos = [memo for p in engine.partitions
                 for resident in p.block_state["send_schedule"].values()
                 for superstep, memo in resident.memos.items() if superstep == 1]
        memo_rows = [memo.partials.copy() for memo in memos]
        assert bool(memos) == (kind == "gcn")

        frontiers = []
        expand = pregel_backend.expand_frontier

        def recorded_expand(*args, **kwargs):
            frontiers[:] = expand(*args, **kwargs)
            return frontiers

        owner, name, fail_at = {"predict": (gas, "predict", 3),
                                "route": (pregel_engine, "route", 7),   # 4 routes a superstep
                                "last gather": (gas, "gather_apply", 3)}[fails_in]
        calls = []
        counting = threading.Lock()     # a full superstep steps partitions on threads
        stage = getattr(owner, name)

        def count_reaches_fail_at():
            with counting:
                calls.append(True)
                return len(calls) == fail_at

        def failing(*args, **kwargs):
            if count_reaches_fail_at():
                raise RuntimeError("stage failed")
            return stage(*args, **kwargs)

        def failing_after_the_last_gather(layer, *args, **kwargs):
            out = stage(layer, *args, **kwargs)
            if layer is model.layers[-1] and count_reaches_fail_at():
                raise RuntimeError("stage failed")
            return out

        monkeypatch.setattr(pregel_backend, "expand_frontier", recorded_expand)
        monkeypatch.setattr(owner, name, failing_after_the_last_gather
                            if fails_in == "last gather" else failing)
        with pytest.raises(RuntimeError, match="stage failed"):
            session.infer(mode="incremental")
        monkeypatch.undo()
        assert (kind == "gat"
                or not all(np.array_equal(memo.partials, old)
                           for memo, old in zip(memos, memo_rows)))   # memo rows rewritten
        layout = engine.layout
        for partition, before in zip(engine.partitions, cached):
            assert len(partition.block_state["h_history"]) == len(before)
            for superstep, (now, then) in enumerate(zip(partition.block_state["h_history"],
                                                        before)):
                frontier = frontiers[superstep]
                rows = layout.local_indices(frontier[layout.owners(frontier)
                                                     == partition.partition_id])
                outside = np.ones(then.shape[0], dtype=bool)
                outside[rows] = False
                np.testing.assert_array_equal(now[outside], then[outside])
        assert not np.array_equal(engine.partitions[0].block_state["h_history"][1],
                                  cached[0][1])       # the failed tick did write

        scores = session.infer(mode="incremental").scores
        np.testing.assert_array_equal(scores, fresh_scores(graph, kind))
        session.apply_delta(random_feature_delta(rng, graph))
        np.testing.assert_array_equal(session.infer(mode="incremental").scores,
                                      fresh_scores(graph, kind))

    @pytest.mark.parametrize("executor", sorted(available_executors()))
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_an_edge_patch_that_raises_at_open_is_retried_bit_exactly(self, backend,
                                                                      executor):
        # An edge tick's open patches each partition's resident state by its
        # pending ``kept`` mask: ``out_src_local``, then every send schedule.
        # When a schedule's patch raises, the mask is spent and the state half
        # patched, so the slot must drop that state — a process worker took
        # it out of its table before hosting, the in-process factory drops it
        # on the raise — and the retry rebuilds it: it, and the edge tick
        # after it, equal a fresh prepare()+infer() bit for bit.  The mask
        # ships in the open payload, so the raise reaches a process worker.
        graph = make_graph(seed=67)
        model = build_model("gcn", graph.feature_dim, 16, 4, num_layers=2, seed=0)
        session = InferenceSession(model, InferenceConfig(
            backend=backend, num_workers=4, executor=executor,
            strategies=StrategyConfig(**ALL_ON)))
        rng = np.random.default_rng(67)

        def in_place_edge_delta():
            # sources far below the hub threshold keep the hub set
            low = graph.out_degrees() < ALL_ON["hub_threshold_override"] - 3
            return GraphDelta(
                added_src=rng.choice(np.flatnonzero(low), size=12, replace=False),
                added_dst=rng.integers(0, graph.num_nodes, size=12),
                removed_edge_ids=rng.choice(np.flatnonzero(low[graph.src]), size=6,
                                            replace=False))

        try:
            session.prepare(graph)
            session.infer()
            assert session.apply_delta(in_place_edge_delta()).in_place
            pending = [partition for partition in session.plan.state["engine"].partitions
                       if partition.pending_kept is not None]
            assert len(pending) > 1
            # one slot fails; on the in-process executor those before it are
            # hosted (their masks applied) and those after it are not
            failing = pending[len(pending) // 2]
            failing.pending_kept = failing.pending_kept.view(_KeptMaskThatFailsToPatch)
            with pytest.raises(RuntimeError, match="patch failed"):
                session.infer(mode="incremental")
            np.testing.assert_array_equal(session.infer(mode="incremental").scores,
                                          fresh_scores(graph, backend=backend))
            assert session.apply_delta(in_place_edge_delta()).in_place
            np.testing.assert_array_equal(session.infer(mode="incremental").scores,
                                          fresh_scores(graph, backend=backend))
        finally:
            session.close()

    def test_invalid_mode_rejected(self):
        graph = make_graph(seed=27)
        session = make_session(graph)
        session.prepare(graph)
        with pytest.raises(ValueError, match="mode"):
            session.infer(mode="partial")


# --------------------------------------------------------------------------- #
# edge deltas
# --------------------------------------------------------------------------- #
class TestEdgeDelta:
    def _reference_graph(self, seed, delta):
        base = make_graph(seed=seed)
        apply_delta_to_graph(base, delta)
        return base

    def test_in_place_edge_delta_bit_identical(self):
        rng = np.random.default_rng(31)
        graph = make_graph(seed=31)
        session = make_session(graph, shadow_nodes=False)
        session.prepare(graph)
        session.infer()
        # Keep the hub set stable: add at most one edge per deep-non-hub
        # source, and remove edges whose source stays a deep non-hub.
        threshold = session.plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        safe_sources = np.nonzero(degrees < threshold - 3)[0]
        added_src = rng.choice(safe_sources, size=40, replace=False)
        removable = np.nonzero(degrees[graph.src] < threshold - 3)[0]
        delta = GraphDelta(
            added_src=added_src,
            added_dst=rng.integers(0, graph.num_nodes, size=40),
            removed_edge_ids=rng.choice(removable, size=20, replace=False),
        )
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        incremental = session.infer(mode="incremental").scores
        reference = self._reference_graph(31, GraphDelta(
            added_src=delta.added_src, added_dst=delta.added_dst,
            removed_edge_ids=delta.removed_edge_ids))
        np.testing.assert_array_equal(incremental,
                                      fresh_scores(reference, shadow_nodes=False))

    def test_hub_set_change_replans_transparently(self):
        graph = make_graph(seed=33)
        session = make_session(graph, shadow_nodes=False)
        session.prepare(graph)
        session.infer()
        # Blast one quiet node far past the hub threshold: the hub set must
        # change, invalidating the plan.
        degrees = graph.out_degrees()
        quiet = int(np.argmin(degrees))
        added_dst = np.arange(50, dtype=np.int64) % graph.num_nodes
        delta = GraphDelta(added_src=np.full(50, quiet, dtype=np.int64),
                           added_dst=added_dst)
        outcome = session.apply_delta(delta)
        assert not outcome.in_place and "hub" in outcome.reason
        scores = session.infer(mode="incremental").scores   # falls back fresh
        reference = self._reference_graph(33, GraphDelta(
            added_src=np.full(50, quiet, dtype=np.int64), added_dst=added_dst))
        np.testing.assert_array_equal(scores,
                                      fresh_scores(reference, shadow_nodes=False))

    def test_edge_delta_with_shadow_nodes_in_place(self):
        # The position-stable mirror assignment lets edge deltas patch the
        # shadow-expanded working graph in place: an in-place outcome must be
        # bit-identical to a fresh prepare()+infer() over the post-delta graph
        # with the same (shadow-on) strategies.
        rng = np.random.default_rng(35)
        graph = make_graph(seed=35)
        session = make_session(graph)          # shadow_nodes=True
        session.prepare(graph)
        session.infer()
        threshold = session.plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        safe_sources = np.nonzero(degrees < threshold - 3)[0]
        added_src = rng.choice(safe_sources, size=40, replace=False)
        removable = np.nonzero(degrees[graph.src] < threshold - 3)[0]
        delta = GraphDelta(
            added_src=added_src,
            added_dst=rng.integers(0, graph.num_nodes, size=40),
            removed_edge_ids=rng.choice(removable, size=20, replace=False),
        )
        reference = self._reference_graph(35, GraphDelta(
            added_src=delta.added_src, added_dst=delta.added_dst,
            removed_edge_ids=delta.removed_edge_ids))
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        np.testing.assert_array_equal(session.infer().scores,
                                      fresh_scores(reference))

    def test_an_edge_delta_leaves_the_replaced_dst_untouched(self):
        # The expanded working graph shares the caller's dst, so neither the
        # landing nor the shadow patch may write it in place: both move to
        # one new array, and a holder of the old one sees it unchanged.
        rng = np.random.default_rng(36)
        graph = make_graph(seed=36)
        session = make_session(graph)
        plan = session.prepare(graph)
        threshold = plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        old, before = graph.dst, graph.dst.copy()
        delta = GraphDelta(
            added_src=rng.choice(np.nonzero(degrees < threshold - 3)[0], size=5, replace=False),
            added_dst=rng.integers(0, graph.num_nodes, size=5),
            removed_edge_ids=rng.choice(np.nonzero(degrees[graph.src] < threshold - 3)[0],
                                        size=5, replace=False))
        assert session.apply_delta(delta).in_place
        assert graph.dst is not old and np.array_equal(old, before)
        assert plan.working_graph.dst is graph.dst

    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_edge_churn_rounds_stay_in_place_under_shadow_nodes(self, backend):
        # Rounds of balanced churn among non-hubs, as a streaming graph
        # rewires: every round lands in place, is served incrementally
        # bit-identical to a fresh plan, and nothing ever re-plans.
        rng = np.random.default_rng(41)
        graph = make_graph(seed=41)
        reference = make_graph(seed=41)
        session = make_session(graph, backend=backend)   # shadow_nodes=True
        session.prepare(graph)
        session.infer()
        assert session.plan.shadow_plan.has_mirrors
        threshold = session.plan.strategy_plan.threshold
        for _ in range(3):
            degrees = reference.out_degrees()
            safe_sources = np.nonzero(degrees < threshold - 3)[0]
            removable = np.nonzero(degrees[reference.src] < threshold - 3)[0]
            delta = GraphDelta(
                added_src=rng.choice(safe_sources, size=20, replace=False),
                added_dst=rng.choice(safe_sources, size=20),
                removed_edge_ids=rng.choice(removable, size=20, replace=False))
            apply_delta_to_graph(reference, delta)
            assert session.apply_delta(delta).in_place
            # the patch re-points the expanded graph at the landed dst
            assert session.plan.working_graph.dst is graph.dst
            np.testing.assert_array_equal(session.infer(mode="incremental").scores,
                                          fresh_scores(reference, backend=backend))
        assert session.num_replans == 0

    def test_edge_delta_onto_hub_out_edges_in_place(self):
        # Adding/removing a *hub's* out-edges stays in place as long as the
        # hub's mirror-group count survives; the new edges must land on the
        # same mirror a fresh rewrite would assign them to.
        graph = make_graph(seed=36)
        session = make_session(graph)          # shadow_nodes=True
        session.prepare(graph)
        session.infer()
        assert session.plan.shadow_plan.has_mirrors
        degrees = graph.out_degrees()
        threshold = session.plan.strategy_plan.threshold
        # Pick a hub whose degree is not about to cross a group boundary.
        hubs = np.nonzero(degrees >= threshold)[0]
        hub = int(hubs[int(np.argmax(degrees[hubs] % threshold))])
        hub_edges = np.nonzero(graph.src == hub)[0]
        delta = GraphDelta(
            added_src=np.array([hub, hub]),
            added_dst=np.array([(hub + 1) % graph.num_nodes,
                                (hub + 2) % graph.num_nodes]),
            removed_edge_ids=hub_edges[:1],
        )
        reference = self._reference_graph(36, GraphDelta(
            added_src=delta.added_src, added_dst=delta.added_dst,
            removed_edge_ids=delta.removed_edge_ids))
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        np.testing.assert_array_equal(session.infer().scores,
                                      fresh_scores(reference))

    def test_mirror_group_count_change_replans(self):
        # Pushing a hub's degree across the next group boundary changes its
        # mirror count — the one shadow-specific way an edge delta still
        # invalidates the plan.
        graph = make_graph(seed=38)
        session = make_session(graph)          # shadow_nodes=True
        session.prepare(graph)
        session.infer()
        plan = session.plan
        assert plan.shadow_plan.has_mirrors
        threshold = plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        original = plan.shadow_plan.original_num_nodes
        hubs = plan.strategy_plan.out_degree_hubs
        hubs = hubs[hubs < original]
        # Round a hub's degree up past its next multiple of the threshold
        # (group counts are capped at num_workers=4, so pick one below cap).
        hub = int(hubs[np.argmin(degrees[hubs])])
        groups = int(-(-degrees[hub] // threshold))
        assert groups < 4
        need = (groups * threshold + 1) - int(degrees[hub])
        delta = GraphDelta(
            added_src=np.full(need, hub, dtype=np.int64),
            added_dst=(hub + 1 + np.arange(need, dtype=np.int64)) % graph.num_nodes)
        reference = self._reference_graph(38, GraphDelta(
            added_src=delta.added_src, added_dst=delta.added_dst))
        outcome = session.apply_delta(delta)
        assert not outcome.in_place and "mirror" in outcome.reason
        np.testing.assert_array_equal(session.infer().scores,
                                      fresh_scores(reference))

    @pytest.mark.parametrize("shadow_nodes", [False, True], ids=["plain", "shadow"])
    @pytest.mark.parametrize("seed", range(37, 45))
    def test_gat_edge_delta_lands_in_place(self, seed, shadow_nodes):
        # GAT's apply_edge projects every message, so an edge delta changes
        # the shape of that matmul; the matmul is row-stable, so no message's
        # bits move and the delta lands in place.  Odd widths (hidden 17,
        # 3 heads, 5 classes) are where an unblocked BLAS call would drift.
        def gat_session():
            model = build_model("gat", 8, 17, 5, num_layers=2, heads=3, seed=0)
            return InferenceSession(model, make_config(shadow_nodes=shadow_nodes))

        graph = make_graph(seed=seed, num_nodes=300)
        reference = make_graph(seed=seed, num_nodes=300)
        session = gat_session()
        session.prepare(graph)
        session.infer()
        safe = np.nonzero(graph.out_degrees() < session.plan.strategy_plan.threshold - 3)[0]
        # The first delta arms the state cache (a full run on the patched
        # plan); the second one is served incrementally.  Appends keep every
        # earlier edge position, so the removal ids stay valid.
        for delta in (GraphDelta(added_src=safe[:2], added_dst=np.array([1, 2])),
                      GraphDelta(removed_edge_ids=np.nonzero(
                          np.isin(graph.src, safe[2:]))[0][:3])):
            apply_delta_to_graph(reference, delta)
            outcome = session.apply_delta(delta)
            assert outcome.in_place and session.num_replans == 0
            fresh = gat_session()
            fresh.prepare(reference)
            np.testing.assert_array_equal(session.infer(mode="incremental").scores,
                                          fresh.infer().scores)

    def test_new_node_rejected(self):
        graph = make_graph(seed=39)
        session = make_session(graph)
        session.prepare(graph)
        with pytest.raises(ValueError, match="fresh prepare"):
            session.apply_delta(GraphDelta(
                added_src=np.array([graph.num_nodes]), added_dst=np.array([0])))


# --------------------------------------------------------------------------- #
# the re-plan path, and mapreduce's full runs over the patched graph
# --------------------------------------------------------------------------- #
class TestFallbackBackends:
    @pytest.mark.parametrize("backend", ["pregel", "mapreduce"])
    def test_tables_source_survives_the_replan_path(self, backend):
        # A session prepared from a converted (NodeTable, EdgeTable) pair
        # whose delta moves the hub set must keep serving post-delta scores
        # when called as infer(source) — the re-plan runs over the same
        # (patched) Graph object, so the source stays current.
        from repro.graph.tables import graph_to_tables, tables_to_graph

        graph = make_graph(seed=43, num_nodes=300)
        source = tables_to_graph(*graph_to_tables(graph))
        session = make_session(graph, backend=backend)
        plan = session.prepare(source)
        session.infer()
        low = np.nonzero(source.out_degrees() < 5)[0][0]
        delta = GraphDelta(added_src=np.full(30, low),      # a new hub
                           added_dst=np.arange(30))
        outcome = session.apply_delta(delta)
        assert not outcome.in_place, "a hub-moving delta must re-plan"
        assert session.plan is not plan and session.num_replans == 1
        replanned = session.plan
        after = session.infer().scores
        again = session.infer(source).scores             # must not re-plan
        assert session.plan is replanned
        np.testing.assert_array_equal(again, after)
        np.testing.assert_array_equal(after, fresh_scores(source, backend=backend))

    def test_mapreduce_feature_delta_patches_in_place(self):
        # mapreduce has delta hooks: a feature delta lands on the graph the
        # rounds read their input rows from (no re-plan); full infer() serves
        # current scores bit-identical to a fresh prepare()+infer().
        rng = np.random.default_rng(42)
        graph = make_graph(seed=42, num_nodes=300)
        session = make_session(graph, backend="mapreduce")
        session.prepare(graph)
        session.infer()
        delta = random_feature_delta(rng, graph)
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        assert session.num_replans == 0
        scores = session.infer().scores
        reference = make_graph(seed=42, num_nodes=300)
        reference.node_features[delta.node_ids] = delta.node_features
        np.testing.assert_array_equal(scores,
                                      fresh_scores(reference, backend="mapreduce"))

    def test_mapreduce_edge_delta_patches_in_place(self):
        # Hub-preserving edge deltas splice into the working graph (no
        # re-plan); its rebuilt adjacency index is byte-identical to a fresh
        # plan's, so full infer() stays bit-identical too.
        graph = make_graph(seed=44, num_nodes=300)
        session = make_session(graph, backend="mapreduce")
        session.prepare(graph)
        session.infer()
        outcome = session.apply_delta(
            GraphDelta(added_src=np.array([2, 3]), added_dst=np.array([0, 1])))
        assert outcome.in_place
        assert session.num_replans == 0
        after = session.infer().scores
        reference = make_graph(seed=44, num_nodes=300)
        apply_delta_to_graph(reference, GraphDelta(
            added_src=np.array([2, 3]), added_dst=np.array([0, 1])))
        np.testing.assert_array_equal(after,
                                      fresh_scores(reference, backend="mapreduce"))

    def test_mapreduce_incremental_after_edge_delta(self):
        # After an in-place edge delta, an incremental request runs the full
        # rounds and is bit-identical to a fresh full run.
        rng = np.random.default_rng(46)
        graph = make_graph(seed=46, num_nodes=300)
        session = make_session(graph, backend="mapreduce")
        session.prepare(graph)
        session.infer()
        session.apply_delta(random_feature_delta(rng, graph, fraction=0.01))
        session.infer(mode="incremental")
        threshold = session.plan.strategy_plan.threshold
        degrees = graph.out_degrees()
        safe_sources = np.nonzero(degrees < threshold - 3)[0]
        added_src = rng.choice(safe_sources, size=10, replace=False)
        removable = np.nonzero(degrees[graph.src] < threshold - 3)[0]
        delta = GraphDelta(
            added_src=added_src,
            added_dst=rng.integers(0, graph.num_nodes, size=10),
            removed_edge_ids=rng.choice(removable, size=5, replace=False),
        )
        reference = Graph(src=graph.src.copy(), dst=graph.dst.copy(),
                          node_features=graph.node_features.copy(),
                          num_nodes=graph.num_nodes)
        apply_delta_to_graph(reference, GraphDelta(
            added_src=delta.added_src, added_dst=delta.added_dst,
            removed_edge_ids=delta.removed_edge_ids))
        outcome = session.apply_delta(delta)
        assert outcome.in_place
        incremental = session.infer(mode="incremental").scores
        np.testing.assert_array_equal(
            incremental, fresh_scores(reference, backend="mapreduce"))


# --------------------------------------------------------------------------- #
# delta plumbing
# --------------------------------------------------------------------------- #
class TestGraphDelta:
    def test_validation(self):
        with pytest.raises(ValueError, match="together"):
            GraphDelta(node_ids=np.array([1]))
        with pytest.raises(ValueError, match="together"):
            GraphDelta(added_src=np.array([1]))
        with pytest.raises(ValueError, match="duplicates"):
            GraphDelta(node_ids=np.array([1, 1]), node_features=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="matrix"):
            GraphDelta(node_ids=np.array([1]), node_features=np.zeros((2, 3)))
        assert GraphDelta().is_empty
        assert "2 feature row" in GraphDelta(node_ids=np.array([1, 2]),
                                             node_features=np.zeros((2, 3))).describe()

    def test_apply_to_graph_removes_then_appends(self):
        graph = Graph(src=np.array([0, 1, 2]), dst=np.array([1, 2, 0]),
                      node_features=np.zeros((3, 2)), num_nodes=3)
        topo = apply_delta_to_graph(graph, GraphDelta(
            added_src=np.array([0]), added_dst=np.array([2]),
            removed_edge_ids=np.array([1])))
        np.testing.assert_array_equal(graph.src, [0, 2, 0])
        np.testing.assert_array_equal(graph.dst, [1, 0, 2])
        np.testing.assert_array_equal(topo, [2])    # both changed dsts

    def test_rejected_delta_leaves_graph_untouched(self):
        # A combined delta whose edge half is invalid must not land its
        # feature half: the session's fingerprint would wedge every infer().
        graph = make_graph(seed=45)
        session = make_session(graph)
        session.prepare(graph)
        base = session.infer().scores
        bad = GraphDelta(node_ids=np.array([3]),
                         node_features=np.ones((1, graph.feature_dim)),
                         removed_edge_ids=np.array([10 ** 9]))
        with pytest.raises(ValueError, match="removed_edge_ids"):
            session.apply_delta(bad)
        np.testing.assert_array_equal(session.infer().scores, base)   # still serves

    def test_bad_edge_feature_width_rejected_before_any_write(self):
        graph = Graph(src=np.array([0, 1]), dst=np.array([1, 0]),
                      node_features=np.zeros((2, 2)),
                      edge_features=np.zeros((2, 4)), num_nodes=2)
        bad = GraphDelta(node_ids=np.array([0]),
                         node_features=np.ones((1, 2)),
                         added_src=np.array([0]), added_dst=np.array([1]),
                         added_edge_features=np.ones((1, 3)))
        with pytest.raises(ValueError, match="edge-feature width"):
            apply_delta_to_graph(graph, bad)
        np.testing.assert_array_equal(graph.node_features, np.zeros((2, 2)))
        assert graph.num_edges == 2

    def test_session_rejects_bad_edge_feature_width_at_entry(self):
        # The eager session path validates at the API boundary (the same
        # checks DeltaBuffer.add performs on the deferred path): a wrong-width
        # added_edge_features fails before any graph, plan or cache write.
        rng = np.random.default_rng(47)
        graph = make_graph(seed=47, num_nodes=200)
        graph.edge_features = rng.standard_normal((graph.num_edges, 4))
        session = make_session(graph)
        session.prepare(graph)
        base = session.infer().scores
        bad = GraphDelta(added_src=np.array([0]), added_dst=np.array([1]),
                         added_edge_features=np.ones((1, 3)))
        with pytest.raises(ValueError, match="edge-feature width"):
            session.apply_delta(bad)
        np.testing.assert_array_equal(session.infer().scores, base)

    def test_validate_aligns_edge_feature_dtype(self):
        # Validation aligns the delta's added_edge_features dtype with the
        # graph's edge-feature buffer so the append never silently upcasts.
        from repro.inference.delta import validate_delta_against_graph

        graph = Graph(src=np.array([0, 1]), dst=np.array([1, 0]),
                      node_features=np.zeros((2, 2)),
                      edge_features=np.zeros((2, 4), dtype=np.float64),
                      num_nodes=2)
        delta = GraphDelta(added_src=np.array([0]), added_dst=np.array([1]),
                           added_edge_features=np.ones((1, 4)))
        # Simulate a hand-built delta whose rows bypassed __post_init__'s
        # coercion (e.g. assigned after construction).
        delta.added_edge_features = delta.added_edge_features.astype(np.float32)
        validate_delta_against_graph(graph, delta)
        assert delta.added_edge_features.dtype == graph.edge_features.dtype
        apply_delta_to_graph(graph, delta)
        assert graph.edge_features.dtype == np.float64

    def test_feature_width_mismatch(self):
        graph = Graph(src=np.array([0]), dst=np.array([1]),
                      node_features=np.zeros((2, 4)), num_nodes=2)
        with pytest.raises(ValueError, match="width"):
            apply_delta_to_graph(graph, GraphDelta(
                node_ids=np.array([0]), node_features=np.zeros((1, 3))))

    def test_expand_frontier_grows_and_is_replica_closed(self):
        graph = make_graph(seed=43)
        plan = apply_shadow_nodes(graph, threshold=20, num_workers=4)
        seeds = np.array([0, 1], dtype=np.int64)
        frontiers = expand_frontier(plan.graph, seeds, np.empty(0, np.int64),
                                    num_supersteps=3, shadow_plan=plan)
        assert len(frontiers) == 3
        for earlier, later in zip(frontiers, frontiers[1:]):
            assert np.isin(earlier, later).all()          # monotone growth
        for frontier in frontiers:
            closed = plan.replicas_of(frontier)
            np.testing.assert_array_equal(frontier, closed)   # replica-closed
