"""An in-place edge patch of a resident send schedule costs what the delta touches.

``SendSchedule.patch`` renumbers the rows in one pass, rewrites only the
runs of the destinations that lost or gain an entry, and compacts an index
only once the runs it left behind pass ``REBUILD_FRACTION`` of its live
entries.  These tests pin that cost and that, across a compaction, every
incremental infer still equals a fresh ``prepare()+infer()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.layout import spans
from repro.inference import pregel_adaptor
from repro.inference.delta import apply_delta_to_graph
from tests.test_pregel import TestResidentSendSchedule as Schedules

#: every array of a per-destination index
INDEX_ARRAYS = ("start", "count", "edge", "dst", "own", "hub")


def warm_session(executor="serial", seed=35):
    """A session whose schedules an incremental send has indexed."""
    rng = np.random.default_rng(seed)
    session, graph = Schedules.hub_session(executor=executor, seed=seed)
    fresh, reference = Schedules.hub_session(executor="serial", seed=seed)
    session.prepare(graph)
    session.infer()
    for _ in range(2):                  # arm the cache, then index the schedules
        delta = Schedules.feature_delta(rng, graph)
        session.apply_delta(delta)
        apply_delta_to_graph(reference, delta)
        session.infer(mode="incremental")
    return rng, session, graph, fresh, reference


def residents(session):
    return [(partition, resident)
            for partition in session.plan.state["engine"].partitions
            for resident in partition.block_state["send_schedule"].values()]


def test_a_patch_that_changes_nothing_keeps_every_index_array():
    """A ratchet: a patch that removes and appends nothing leaves every
    index array the same object."""
    _, session, _, fresh, _ = warm_session()
    try:
        for partition, resident in residents(session):
            indexes = resident.by_destination(partition)
            before = [[getattr(index, name) for name in INDEX_ARRAYS] for index in indexes]
            resident.patch(partition, np.ones(partition.num_out_edges, dtype=bool))
            assert resident.by_destination(partition) is indexes
            for index, arrays in zip(indexes, before):
                assert all(getattr(index, name) is array
                           for name, array in zip(INDEX_ARRAYS, arrays))
    finally:
        session.close()
        fresh.close()


def test_a_patch_writes_only_the_entries_its_delta_touches(monkeypatch):
    """A spy on ``_ByDestination.patch``: a patch rewrites only the runs of
    the destinations whose entries it kills or appends — every other run
    keeps its place and its entries — and it writes exactly those runs'
    surviving entries plus the appended edges' entries, which are every
    entry ``gas.scatter`` routed for them."""
    from repro.inference import gas

    rng, session, graph, fresh, reference = warm_session()
    written, appended, routed = [], [], []
    patch, scatter = pregel_adaptor._ByDestination.patch, gas.scatter

    def patch_spy(index, renumber, edge, dst, own, hub):
        start, count, used = index.start.copy(), index.count.copy(), index.used
        fields = [name for name in ("edge", "dst", "own", "hub")
                  if getattr(index, name) is not None]
        before = {name: getattr(index, name)[:used].copy() for name in fields}
        touched = patch(index, renumber, edge, dst, own, hub)
        others = np.ones(count.size, dtype=bool)
        others[touched] = False
        np.testing.assert_array_equal(index.start[others], start[others])
        np.testing.assert_array_equal(index.count[others], count[others])
        runs, _ = spans(start[others], count[others])
        for name in fields:
            expected = before[name][runs]
            if name == "edge" and renumber is not None:
                expected = renumber[expected]
            np.testing.assert_array_equal(getattr(index, name)[runs], expected)
        survivors = int(index.count[touched].sum()) - edge.size
        assert index.used - used == survivors + edge.size
        written.append(index.used - used)
        appended.append(edge.size)
        return touched

    def scatter_spy(strategy, plan, replicas, source_ids, dst_ids):
        out = scatter(strategy, plan, replicas, source_ids, dst_ids)
        routed.append(out.plain_rows.size + out.ref_rows.size)
        return out

    monkeypatch.setattr(pregel_adaptor._ByDestination, "patch", patch_spy)
    monkeypatch.setattr(gas, "scatter", scatter_spy)
    try:
        delta = Schedules.edge_delta(rng, session, graph, added=12, removed=8)
        assert session.apply_delta(delta).in_place
        apply_delta_to_graph(reference, delta)
        scores = session.infer(mode="incremental").scores
        monkeypatch.undo()
        fresh.prepare(reference)
        np.testing.assert_array_equal(scores, fresh.infer().scores)
        Schedules.assert_matches_a_fresh_build(session)
    finally:
        session.close()
        fresh.close()
    assert appended and sum(appended) == sum(routed)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), kind=st.sampled_from(["gcn", "gat"]))
def test_edge_ticks_across_a_rebuild_stay_bit_identical(seed, kind):
    """Consecutive edge ticks, enough for abandoned runs to pass
    ``REBUILD_FRACTION`` and compact some partition's indexes: each
    incremental infer equals a fresh ``prepare()+infer()`` bit for bit, and
    every memo entry a fresh fold of its pair."""
    rng = np.random.default_rng(seed)
    session, graph = Schedules.hub_session(kind, seed=seed % 7 + 30)
    fresh, reference = Schedules.hub_session(kind, seed=seed % 7 + 30)
    compacted = []
    compact = pregel_adaptor._ByDestination.compacted

    def counting(index, *args):
        compacted.append(True)
        return compact(index, *args)

    pregel_adaptor._ByDestination.compacted = counting  # hypothesis runs no fixture per example
    try:
        session.prepare(graph)
        session.infer()
        delta = Schedules.feature_delta(rng, graph)
        session.apply_delta(delta)
        apply_delta_to_graph(reference, delta)
        session.infer(mode="incremental")
        session.apply_delta(delta)
        session.infer(mode="incremental")       # indexes the schedules
        for _ in range(8):
            delta = Schedules.edge_delta(rng, session, graph, added=100, removed=60)
            assert session.apply_delta(delta).in_place
            apply_delta_to_graph(reference, delta)
            scores = session.infer(mode="incremental").scores
            fresh.prepare(reference)
            np.testing.assert_array_equal(scores, fresh.infer().scores)
            Schedules.assert_memo_matches_a_fresh_fold(session)
        assert compacted                        # some index was compacted
        Schedules.assert_matches_a_fresh_build(session)
        assert session.num_replans == 0
    finally:
        pregel_adaptor._ByDestination.compacted = compact
        session.close()
        fresh.close()


@pytest.mark.parametrize("kind", ["gcn", "gat"])
def test_edge_ticks_across_a_rebuild_score_as_serial(kind):
    """The same ticks under the environment's executor (a process worker
    patches its own schedules at ``open``): every incremental infer equals a
    fresh serial ``prepare()+infer()``."""
    rng = np.random.default_rng(5)
    session, graph = Schedules.hub_session(kind, executor=None)
    fresh, reference = Schedules.hub_session(kind)
    try:
        session.prepare(graph)
        session.infer()
        for _ in range(2):
            delta = Schedules.feature_delta(rng, graph)
            session.apply_delta(delta)
            apply_delta_to_graph(reference, delta)
            session.infer(mode="incremental")
        for _ in range(8):
            delta = Schedules.edge_delta(rng, session, graph, added=100, removed=60)
            assert session.apply_delta(delta).in_place
            apply_delta_to_graph(reference, delta)
            scores = session.infer(mode="incremental").scores
            fresh.prepare(reference)
            np.testing.assert_array_equal(scores, fresh.infer().scores)
        assert session.num_replans == 0
    finally:
        session.close()
        fresh.close()
