"""Property tests: columnar routing is byte-identical to a naive reference.

The hot path (``ClusterLayout`` lookups, ``MessageBlock.split_by`` bucketing,
:func:`~repro.pregel.vertex.route` folding in bucket order — from a schedule
it computes or one the caller kept — CSR shadow expansion) changes *how* rows
move, not *what* they say.  These tests keep the
old semantics — one mask per destination partition, the combiner applied to
each piece after the split, per-row loops — as naive reference
implementations and assert the vectorised code produces byte-identical
per-partition mailboxes on random power-law graphs, including
:class:`~repro.inference.strategies.BroadcastMessageBlock` payload-reference
blocks and shadow-expanded destinations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.graph.generators import powerlaw_graph
from repro.graph.partition import HashPartitioner
from repro.inference.shadow import apply_shadow_nodes
from repro.inference.strategies import BroadcastMessageBlock
from repro.pregel.combiners import MaxCombiner, MeanCombiner, SumCombiner
from repro.pregel.engine import PregelEngine
from repro.pregel.vertex import MessageBlock, route, route_schedule

SEEDS = [0, 1, 2]
NUM_WORKERS = 4
PAYLOAD_DIM = 6


# --------------------------------------------------------------------------- #
# naive reference implementations (the pre-refactor semantics)
# --------------------------------------------------------------------------- #
def naive_route_blocks(blocks: List[MessageBlock], partitioner: HashPartitioner,
                       num_workers: int, combiner=None) -> List[List[MessageBlock]]:
    """Split, then fold each piece: one nonzero mask per destination
    partition, the combiner applied to every combinable piece it cuts."""
    outgoing: List[List[MessageBlock]] = [[] for _ in range(num_workers)]
    for block in blocks:
        if block.dst_ids.size == 0:
            continue
        targets = partitioner.assign_many(block.dst_ids)
        for target in np.unique(targets):
            rows = np.nonzero(targets == target)[0]
            piece = block.take(rows)
            if combiner is not None and piece.combinable:
                piece = combiner.combine_block(piece)
            outgoing[int(target)].append(piece)
    return outgoing


def replica_lists(plan) -> Dict[int, np.ndarray]:
    """Naive dict view of the replica CSR: replicated node -> its replica ids."""
    indptr, ids = plan.replica_indptr, plan.replica_ids
    return {int(node): ids[indptr[node]:indptr[node + 1]]
            for node in np.nonzero(np.diff(indptr) > 1)[0]}


def naive_expand(replicas_by_node: Dict[int, np.ndarray], dst_ids: np.ndarray,
                 payload: np.ndarray, counts: Optional[np.ndarray] = None) -> tuple:
    """Old ``expand_destinations``: per-row dict lookups and appends."""
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    if counts is None:
        counts = np.ones(dst_ids.shape[0], dtype=np.int64)
    if not replicas_by_node:
        return dst_ids, payload, counts
    replicated = np.fromiter(replicas_by_node.keys(), dtype=np.int64,
                             count=len(replicas_by_node))
    needs = np.isin(dst_ids, replicated)
    if not needs.any():
        return dst_ids, payload, counts
    keep = np.nonzero(~needs)[0]
    out_dst = [dst_ids[keep]]
    out_payload = [payload[keep]]
    out_counts = [counts[keep]]
    for row in np.nonzero(needs)[0]:
        replicas = replicas_by_node[int(dst_ids[row])]
        out_dst.append(replicas)
        out_payload.append(np.repeat(payload[row][None, :], replicas.size, axis=0))
        out_counts.append(np.full(replicas.size, counts[row], dtype=np.int64))
    return (np.concatenate(out_dst), np.concatenate(out_payload, axis=0),
            np.concatenate(out_counts))


def assert_blocks_equal(actual: MessageBlock, expected: MessageBlock) -> None:
    """Byte-identical block comparison, including broadcast internals."""
    assert type(actual) is type(expected)
    np.testing.assert_array_equal(actual.dst_ids, expected.dst_ids)
    np.testing.assert_array_equal(actual.counts, expected.counts)
    np.testing.assert_array_equal(actual.dense_payload(), expected.dense_payload())
    if isinstance(actual, BroadcastMessageBlock):
        np.testing.assert_array_equal(actual.rows, expected.rows)
        np.testing.assert_array_equal(actual.payload, expected.payload)
    assert actual.nbytes() == expected.nbytes()


def assert_mailboxes_equal(actual: List[List[MessageBlock]],
                           expected: List[List[MessageBlock]]) -> None:
    assert len(actual) == len(expected)
    for actual_bucket, expected_bucket in zip(actual, expected):
        assert len(actual_bucket) == len(expected_bucket)
        for a, e in zip(actual_bucket, expected_bucket):
            assert_blocks_equal(a, e)


def random_graph(seed: int):
    return powerlaw_graph(num_nodes=300, avg_degree=5.0, skew="out",
                          feature_dim=4, num_classes=2, seed=seed)


def edge_blocks(graph, rng, chunks: int = 3) -> List[MessageBlock]:
    """Random payload blocks over the graph's edge destinations."""
    payload = rng.normal(size=(graph.num_edges, PAYLOAD_DIM))
    counts = rng.integers(1, 4, size=graph.num_edges).astype(np.int64)
    pieces = np.array_split(np.arange(graph.num_edges), chunks)
    return [MessageBlock(dst_ids=graph.dst[rows], payload=payload[rows],
                         counts=counts[rows]) for rows in pieces if rows.size]


COMBINERS = {"sum": SumCombiner, "mean": MeanCombiner, "max": MaxCombiner,
             "none": lambda: None}


class TestRouteEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plain_blocks_match_naive_reference(self, seed):
        """No combiner: every sent block is cut on its own, in send order."""
        graph = random_graph(seed)
        rng = np.random.default_rng(seed + 100)
        blocks = edge_blocks(graph, rng)
        engine = PregelEngine(graph, num_workers=NUM_WORKERS)
        expected = naive_route_blocks(blocks, engine.partitioner, NUM_WORKERS)
        assert_mailboxes_equal(route(blocks, None, engine.layout), expected)

    @pytest.mark.parametrize("kind", sorted(COMBINERS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fold_then_bucket_matches_split_then_fold_each_piece(self, seed, kind):
        """One worker's send: an empty block, the plain block, the broadcast
        block.  Folding the plain block once and cutting the result equals —
        ids, payload bits, counts, block order per bucket, ``nbytes()`` —
        cutting first and folding each of the pieces, because a stable cut
        keeps every destination's rows in send order and a folded block lists
        destinations in ascending id order either way."""
        graph = random_graph(seed)
        rng = np.random.default_rng(seed + 200)
        (plain,) = edge_blocks(graph, rng, chunks=1)
        hub_rows = rng.choice(graph.num_edges, size=40, replace=False)
        broadcast = BroadcastMessageBlock(
            dst_ids=graph.dst[hub_rows], rows=rng.integers(0, 3, size=40),
            payload=rng.normal(size=(3, PAYLOAD_DIM)))
        empty = MessageBlock(dst_ids=np.empty(0, dtype=np.int64), payload=np.zeros((0, 0)))
        blocks = [empty, plain, broadcast]
        engine = PregelEngine(graph, num_workers=NUM_WORKERS)
        expected = naive_route_blocks(blocks, engine.partitioner, NUM_WORKERS,
                                      COMBINERS[kind]())
        actual = route(blocks, COMBINERS[kind](), engine.layout)
        assert_mailboxes_equal(actual, expected)
        for bucket in actual:
            assert [type(block) for block in bucket] == [MessageBlock, BroadcastMessageBlock]
        if kind != "none":      # each destination once per bucket: really folded
            assert all(np.unique(bucket[0].dst_ids).size == bucket[0].num_records()
                       for bucket in actual)
            assert sum(bucket[0].num_records() for bucket in actual) < plain.num_records()

    def test_a_bucket_that_receives_nothing_stays_empty(self):
        layout = PregelEngine(random_graph(0), num_workers=NUM_WORKERS).layout
        dst = np.array([4, 9, 4, 1, 8])                  # owners 0 and 1 only
        block = MessageBlock(dst_ids=dst, payload=np.arange(10.0).reshape(5, 2))
        expected = naive_route_blocks([block], HashPartitioner(NUM_WORKERS), NUM_WORKERS,
                                      SumCombiner())
        actual = route([block], SumCombiner(), layout)
        assert_mailboxes_equal(actual, expected)
        assert [len(bucket) for bucket in actual] == [1, 1, 0, 0]
        np.testing.assert_array_equal(actual[0][0].dst_ids, [4, 8])
        np.testing.assert_array_equal(actual[0][0].payload, [[4.0, 6.0], [8.0, 9.0]])
        np.testing.assert_array_equal(actual[0][0].counts, [2, 1])

    def test_several_plain_blocks_fold_into_the_place_of_the_first(self):
        """What split-then-fold never did: with a combiner, every combinable
        block of the send folds into one, which stands where the first was."""
        layout = PregelEngine(random_graph(0), num_workers=NUM_WORKERS).layout
        broadcast = BroadcastMessageBlock(dst_ids=np.array([8]), rows=np.array([0]),
                                          payload=np.ones((1, 2)))
        first = MessageBlock(dst_ids=np.array([4, 8]), payload=np.ones((2, 2)))
        second = MessageBlock(dst_ids=np.array([8, 8]), payload=np.full((2, 2), 2.0),
                              counts=np.array([3, 1]))
        (bucket, *others) = route([broadcast, first, second], SumCombiner(), layout)
        assert not any(others)
        assert [type(block) for block in bucket] == [BroadcastMessageBlock, MessageBlock]
        np.testing.assert_array_equal(bucket[1].dst_ids, [4, 8])
        np.testing.assert_array_equal(bucket[1].payload, [[1.0, 1.0], [5.0, 5.0]])
        np.testing.assert_array_equal(bucket[1].counts, [1, 5])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_broadcast_blocks_match_naive_reference(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(seed + 300)
        num_rows = graph.num_edges
        unique_payloads = rng.normal(size=(3, PAYLOAD_DIM))
        block = BroadcastMessageBlock(
            dst_ids=graph.dst,
            rows=rng.integers(0, 3, size=num_rows),
            payload=unique_payloads,
            counts=rng.integers(1, 3, size=num_rows).astype(np.int64),
        )
        engine = PregelEngine(graph, num_workers=NUM_WORKERS)
        # Broadcast blocks are not combinable; the combiner must pass through.
        expected = naive_route_blocks([block], engine.partitioner, NUM_WORKERS,
                                      SumCombiner())
        assert_mailboxes_equal(route([block], SumCombiner(), engine.layout), expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shadow_expanded_destinations_match_naive_reference(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(seed + 400)
        plan = apply_shadow_nodes(graph, threshold=8, num_workers=NUM_WORKERS)
        if not plan.has_mirrors:
            pytest.skip("graph produced no mirrors at this threshold")
        payload = rng.normal(size=(graph.num_edges, PAYLOAD_DIM))
        counts = rng.integers(1, 4, size=graph.num_edges).astype(np.int64)

        expected = naive_expand(replica_lists(plan), graph.dst, payload, counts)
        actual = plan.expand_destinations(graph.dst, payload, counts)
        for a, e in zip(actual, expected):
            np.testing.assert_array_equal(a, e)

        # ... and the expanded rows route identically through the engine
        # built over the shadow-expanded graph.
        block = MessageBlock(dst_ids=actual[0], payload=actual[1], counts=actual[2])
        engine = PregelEngine(plan.graph, num_workers=NUM_WORKERS)
        reference = naive_route_blocks([block], engine.partitioner, NUM_WORKERS)
        assert_mailboxes_equal(route([block], None, engine.layout), reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_expand_rows_inline_ordering(self, seed):
        """The record-oriented expansion keeps every row at its position."""
        graph = random_graph(seed)
        plan = apply_shadow_nodes(graph, threshold=8, num_workers=NUM_WORKERS)
        if not plan.has_mirrors:
            pytest.skip("graph produced no mirrors at this threshold")
        replicas_by_node = replica_lists(plan)
        row_index, expanded = plan.expand_rows(graph.dst)
        # Naive inline expansion.
        naive_rows, naive_dst = [], []
        for row, dst in enumerate(graph.dst):
            replicas = replicas_by_node.get(int(dst), np.array([dst], dtype=np.int64))
            naive_rows.extend([row] * replicas.size)
            naive_dst.extend(replicas.tolist())
        np.testing.assert_array_equal(row_index, naive_rows)
        np.testing.assert_array_equal(expanded, naive_dst)


# --------------------------------------------------------------------------- #
# the resident send schedule: index-only half kept, value-only half re-run
# --------------------------------------------------------------------------- #
def mask_and_fold(blocks: List[MessageBlock], layout, op: Optional[str]) -> List[List[MessageBlock]]:
    """``route`` with no index tricks at all: one mask per owner, one mask per
    destination, rows accumulated one at a time from the op's identity in the
    order they were sent.  With ``op`` the combinable blocks fold together and
    the result stands where the first of them stood."""
    blocks = [block for block in blocks if block.num_records()]
    if op is not None and any(block.combinable for block in blocks):
        foldable = [block for block in blocks if block.combinable]
        first = next(i for i, block in enumerate(blocks) if block.combinable)
        joined = MessageBlock(np.concatenate([b.dst_ids for b in foldable]),
                              np.concatenate([b.payload for b in foldable]),
                              np.concatenate([b.counts for b in foldable]))
        blocks = blocks[:first] + [joined] + [b for b in blocks[first:] if not b.combinable]
    else:
        first = -1
    mailboxes: List[List[MessageBlock]] = [[] for _ in range(layout.num_partitions)]
    for position, block in enumerate(blocks):
        owners = layout.owner_of[block.dst_ids]
        for owner in range(layout.num_partitions):
            rows = np.nonzero(owners == owner)[0]
            if rows.size == 0:
                continue
            piece = block.take(rows)
            if position == first:
                ids = sorted(set(piece.dst_ids.tolist()))
                payload, counts = [], []
                for node in ids:
                    acc = np.full(piece.payload.shape[1], 0.0 if op == "sum" else -np.inf)
                    for row in np.nonzero(piece.dst_ids == node)[0]:
                        acc = acc + piece.payload[row] if op == "sum" else np.maximum(
                            acc, piece.payload[row])
                    payload.append(acc)
                    counts.append(int(piece.counts[piece.dst_ids == node].sum()))
                piece = MessageBlock(np.array(ids), np.array(payload), np.array(counts))
            mailboxes[owner].append(piece)
    return mailboxes


OPS = {"sum": "sum", "mean": "sum", "max": "max", "none": None}


class TestResidentSchedule:
    @staticmethod
    def send(case: str, seed: int):
        """``(layout, destination ids)`` of one worker's send."""
        graph = random_graph(seed)
        if case == "shadow":                 # destinations fanned out to mirrors
            plan = apply_shadow_nodes(graph, threshold=8, num_workers=NUM_WORKERS)
            assert plan.has_mirrors
            dst = plan.expand_destinations(graph.dst, np.zeros((graph.num_edges, 0)))[0]
            assert dst.size > graph.num_edges
            return PregelEngine(plan.graph, num_workers=NUM_WORKERS).layout, dst
        layout = PregelEngine(graph, num_workers=NUM_WORKERS).layout
        owners = layout.owner_of[graph.dst]
        keep = owners == 1 if case == "one_owner" else owners != 2   # "skips_a_bucket"
        return layout, graph.dst[keep]

    @staticmethod
    def blocks(dst: np.ndarray, broadcast: bool, rng) -> List[MessageBlock]:
        """Same ids every call, fresh values: an empty block, the plain block
        and (``broadcast``) a payload-reference block over every fifth row."""
        empty = MessageBlock(dst_ids=np.empty(0, dtype=np.int64), payload=np.zeros((0, 0)))
        plain = MessageBlock(dst, rng.normal(size=(dst.size, PAYLOAD_DIM)),
                             counts=(np.arange(dst.size) % 3 + 1))
        if not broadcast:
            return [empty, plain]
        hub_dst = dst[::5]
        return [empty, plain, BroadcastMessageBlock(
            hub_dst, rows=np.arange(hub_dst.size) % 4, payload=rng.normal(size=(4, PAYLOAD_DIM)))]

    @pytest.mark.parametrize("case", ["shadow", "one_owner", "skips_a_bucket"])
    @pytest.mark.parametrize("broadcast", [False, True], ids=["plain", "broadcast"])
    @pytest.mark.parametrize("kind", sorted(COMBINERS))
    def test_kept_schedule_equals_recomputed_equals_mask_and_fold(self, kind, broadcast, case):
        """A schedule computed from one send's ids routes every later send of
        the same ids — byte for byte what recomputing it gives, and what the
        naive reference gives — because it never read a payload."""
        layout, dst = self.send(case, seed=1)
        rng = np.random.default_rng(500)
        combiner = COMBINERS[kind]()
        first = [b for b in self.blocks(dst, broadcast, rng) if b.num_records()]
        schedule = route_schedule(first, combiner is not None, layout)
        for _ in range(2):
            blocks = self.blocks(dst, broadcast, rng)            # new values, same ids
            kept = route(blocks, combiner, layout, schedule)
            assert_mailboxes_equal(kept, route(blocks, combiner, layout))
            assert_mailboxes_equal(kept, mask_and_fold(blocks, layout, OPS[kind]))
        if case == "one_owner":
            assert [bool(bucket) for bucket in kept] == [False, True, False, False]
        if case == "skips_a_bucket":
            assert kept[2] == [] and all(kept[b] for b in (0, 1, 3))
        if combiner is not None:     # bucket pieces are views of the one folded array
            bases = [bucket[0].payload.base for bucket in kept if bucket]
            assert all(base is not None and base is bases[0] for base in bases)

    def test_a_schedule_for_a_different_send_is_refused(self):
        layout, dst = self.send("skips_a_bucket", seed=0)
        rng = np.random.default_rng(501)
        blocks = self.blocks(dst, True, rng)
        schedule = route_schedule([b for b in blocks if b.num_records()], True, layout)
        with pytest.raises(ValueError, match="different send"):
            route(blocks[:2], SumCombiner(), layout, schedule)


class TestSplitBy:
    def test_split_by_matches_masks(self):
        rng = np.random.default_rng(7)
        block = MessageBlock(dst_ids=rng.integers(0, 50, size=200),
                             payload=rng.normal(size=(200, 3)),
                             counts=rng.integers(1, 5, size=200).astype(np.int64))
        targets = rng.integers(0, 8, size=200)
        pieces = dict(block.split_by(targets, 8))
        for bucket in range(8):
            rows = np.nonzero(targets == bucket)[0]
            if rows.size == 0:
                assert bucket not in pieces
            else:
                assert_blocks_equal(pieces[bucket], block.take(rows))

    def test_split_by_empty_block(self):
        block = MessageBlock(dst_ids=np.empty(0, dtype=np.int64),
                             payload=np.zeros((0, 2)))
        assert block.split_by(np.empty(0, dtype=np.int64), 4) == []

    def test_split_by_single_bucket(self):
        block = MessageBlock(dst_ids=np.array([1, 2, 3]), payload=np.zeros((3, 2)))
        pieces = block.split_by(np.array([2, 2, 2]), 4)
        assert len(pieces) == 1 and pieces[0][0] == 2
        np.testing.assert_array_equal(pieces[0][1].dst_ids, [1, 2, 3])

    def test_split_by_validates_lengths_and_range(self):
        block = MessageBlock(dst_ids=np.array([1, 2]), payload=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            block.split_by(np.array([0]), 4)
        with pytest.raises(ValueError):
            block.split_by(np.array([0, 4]), 4)


class TestLocalIndices:
    def test_matches_naive_dict(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=NUM_WORKERS)
        for partition in engine.partitions:
            naive = {int(node): i for i, node in enumerate(partition.node_ids)}
            ids = partition.out_src
            expected = np.array([naive[int(v)] for v in ids], dtype=np.int64)
            np.testing.assert_array_equal(partition.local_indices(ids), expected)

    def test_non_owned_vertex_raises_value_error(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=NUM_WORKERS)
        partition = engine.partitions[0]
        foreign = int(engine.partitions[1].node_ids[0])
        with pytest.raises(ValueError, match=rf"partition 0 does not own vertex {foreign}"):
            partition.local_indices(np.array([int(partition.node_ids[0]), foreign]))

    def test_out_of_range_vertex_raises_value_error(self, small_graph):
        engine = PregelEngine(small_graph, num_workers=NUM_WORKERS)
        partition = engine.partitions[0]
        with pytest.raises(ValueError, match="does not own vertex"):
            partition.local_indices(np.array([small_graph.num_nodes + 5]))
        with pytest.raises(ValueError, match="does not own vertex -1"):
            partition.local_indices(np.array([-1]))
