"""Benchmark: process-per-partition execution vs the serial in-process loop.

The first benchmark in this repository whose speedup comes from real parallel
hardware rather than an algorithmic win: the same ~100k-edge power-law
serving workload runs through ``InferenceConfig(executor="serial")`` (the
historical sequential partition loop) and ``executor="process"`` (one OS
process per partition; partitions/features/layout shipped once via shared
memory, per-superstep message blocks exchanged as pickled numpy bundles, see
``src/repro/cluster/executor.py``).

Scores must be **bit-identical** — the executor is a speed substrate, never a
semantics change — and with 8 workers on a machine with at least
``REQUIRED_CORES`` usable cores the wall-clock ratio is measured and printed
(~2x and up is typical; nothing is asserted on it).  On smaller machines the
identity check still runs and the timing is skipped: a single-core runner
physically cannot demonstrate a parallel speedup.

Timing covers the steady serving state (plan prepared, workers started,
arrays shipped): that is the state a long-lived session or pool serves
traffic from, and exactly what the cost model's measured-wall-clock
validation path (``CostSummary.validation``) prices.
"""

import os
import time

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig

NUM_NODES = 25_000
AVG_DEGREE = 4.0          # ~100k edges
FEATURE_DIM = 128         # paper-realistic feature width (datasets: 100-768)
HIDDEN_DIM = 96
NUM_CLASSES = 8
NUM_LAYERS = 2
NUM_WORKERS = 8
HUB_THRESHOLD = 100       # broadcast dedupes hub payloads (shrinks IPC volume)
TIMING_ROUNDS = 3         # best-of to damp scheduler noise on shared runners
REQUIRED_CORES = 4        # below this, assert identity but skip the timing


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def make_config(executor: str) -> InferenceConfig:
    return InferenceConfig(
        backend="pregel", num_workers=NUM_WORKERS, executor=executor,
        strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                  hub_threshold_override=HUB_THRESHOLD))


@pytest.fixture(scope="module")
def workload():
    graph = powerlaw_graph(num_nodes=NUM_NODES, avg_degree=AVG_DEGREE,
                           skew="out", feature_dim=FEATURE_DIM,
                           num_classes=NUM_CLASSES, seed=29)
    model = build_model("gcn", FEATURE_DIM, HIDDEN_DIM, NUM_CLASSES,
                        num_layers=NUM_LAYERS, seed=0)
    return graph, model


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.paper_artifact("process_executor_microbench")
def test_bench_process_executor(benchmark, workload):
    graph, model = workload
    assert graph.num_edges >= 100_000, "benchmark must cover a >=100k-edge graph"

    serial = InferenceSession(model, make_config("serial"))
    serial.prepare(graph)
    process = InferenceSession(model, make_config("process"))
    process.prepare(graph)
    try:
        # Warm both paths: first process infer starts the workers and ships
        # the partition/feature/layout arrays into shared memory once.
        serial_scores = serial.infer().scores
        process_result = process.infer()

        # The contract before the clock: bit-identical scores.
        np.testing.assert_array_equal(process_result.scores, serial_scores)
        # The run carried real per-process wall measurements for the cost
        # model's validation path.
        assert process_result.cost.validation is not None
        assert process_result.cost.validation.measured_total_seconds > 0

        cores = usable_cores()
        if cores < REQUIRED_CORES:
            pytest.skip(
                f"only {cores} usable core(s); a parallel speedup cannot be "
                f"demonstrated below {REQUIRED_CORES} (identity checks passed)")
        serial_seconds = _best_of(lambda: serial.infer())
        benchmark.pedantic(lambda: process.infer(), rounds=1, iterations=1)
        process_seconds = _best_of(lambda: process.infer())

        speedup = serial_seconds / process_seconds
        print()
        print(f"serial executor,  {NUM_WORKERS} simulated workers: "
              f"{serial_seconds * 1e3:.0f} ms / infer")
        print(f"process executor, {NUM_WORKERS} OS processes:      "
              f"{process_seconds * 1e3:.0f} ms / infer")
        print(f"wall-clock speedup ({cores} usable cores):        "
              f"{speedup:.2f}x")
    finally:
        serial.close()
        process.close()
