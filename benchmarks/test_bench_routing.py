"""Benchmark: columnar ClusterLayout routing vs the dict-based baseline.

The superstep routing path used to resolve every message destination through
Python — a dict comprehension per row for global→local translation and one
``nonzero`` mask per destination partition for block bucketing.  The
:class:`~repro.cluster.layout.ClusterLayout` refactor replaces both with
dense ``int64`` gathers and one stable argsort
(:meth:`~repro.pregel.vertex.MessageBlock.split_by`).

This micro-benchmark times one routing round — global→local translation of
every destination plus bucketing of a 100k-row message block across 8
workers — through both implementations, asserts the mailboxes are
byte-identical and prints the ratio (4-6x on a 2-core box; nothing is
asserted on wall clock — ``bench/`` is where time is judged).
"""

import time

import numpy as np
import pytest

from repro.cluster.layout import ClusterLayout
from repro.graph.partition import HashPartitioner
from repro.pregel.vertex import MessageBlock

NUM_EDGES = 100_000
NUM_NODES = 20_000
NUM_WORKERS = 8
PAYLOAD_DIM = 16
TIMING_ROUNDS = 3   # best-of to damp scheduler noise on shared CI runners


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(23)
    dst_ids = rng.integers(0, NUM_NODES, size=NUM_EDGES).astype(np.int64)
    payload = rng.normal(size=(NUM_EDGES, PAYLOAD_DIM))
    partitioner = HashPartitioner(NUM_WORKERS)
    layout = ClusterLayout.build(NUM_NODES, partitioner)
    block = MessageBlock(dst_ids=dst_ids, payload=payload)
    return dst_ids, block, partitioner, layout


def dict_baseline_round(dst_ids, block, partitioner, local_dicts):
    """The pre-refactor path: per-row dict translation + per-target masks."""
    targets = partitioner.assign_many(dst_ids)
    buckets = {}
    for target in np.unique(targets):
        rows = np.nonzero(targets == target)[0]
        piece = block.take(rows)
        # Receiver-side global→local translation, one dict lookup per row.
        local = np.asarray([local_dicts[int(target)][int(v)] for v in piece.dst_ids],
                           dtype=np.int64)
        buckets[int(target)] = (piece, local)
    return buckets


def columnar_round(dst_ids, block, layout):
    """The refactored path: owner gather + argsort split + local gather."""
    targets = layout.owners(dst_ids)
    buckets = {}
    for target, piece in block.split_by(targets, NUM_WORKERS):
        buckets[target] = (piece, layout.local_indices(piece.dst_ids))
    return buckets


def _best_of(fn) -> tuple:
    best = float("inf")
    value = None
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


@pytest.mark.paper_artifact("routing_microbench")
def test_bench_routing(benchmark, workload):
    dst_ids, block, partitioner, layout = workload
    # Per-partition global→local dicts, exactly what PregelPartition kept.
    local_dicts = {pid: {int(node): i for i, node in enumerate(layout.nodes_of(pid))}
                   for pid in range(NUM_WORKERS)}

    # Warm both paths (allocator, caches) before timing.
    dict_baseline_round(dst_ids, block, partitioner, local_dicts)
    columnar_round(dst_ids, block, layout)

    baseline_seconds, baseline_buckets = _best_of(
        lambda: dict_baseline_round(dst_ids, block, partitioner, local_dicts))
    benchmark.pedantic(lambda: columnar_round(dst_ids, block, layout),
                       rounds=1, iterations=1)
    columnar_seconds, columnar_buckets = _best_of(
        lambda: columnar_round(dst_ids, block, layout))

    # Same mailboxes, byte for byte.
    assert set(baseline_buckets) == set(columnar_buckets)
    for target in baseline_buckets:
        base_piece, base_local = baseline_buckets[target]
        col_piece, col_local = columnar_buckets[target]
        np.testing.assert_array_equal(base_piece.dst_ids, col_piece.dst_ids)
        np.testing.assert_array_equal(base_piece.payload, col_piece.payload)
        np.testing.assert_array_equal(base_local, col_local)

    speedup = baseline_seconds / columnar_seconds
    print()
    print(f"dict + mask routing ({NUM_EDGES} rows, {NUM_WORKERS} workers): "
          f"{baseline_seconds * 1e3:.2f} ms")
    print(f"ClusterLayout + split_by routing:               "
          f"{columnar_seconds * 1e3:.2f} ms")
    print(f"columnar routing speedup:                       {speedup:.1f}x")
