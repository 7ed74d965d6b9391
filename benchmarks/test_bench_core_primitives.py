"""Micro-benchmarks of the core primitives (real wall-clock, multiple rounds).

These are not paper artefacts; they track the reproduction's own performance:
segment reductions (the numerical core of gather), one full-graph inference
pass per backend, and one traditional-pipeline batch — useful for catching
performance regressions in the simulator itself.
"""

import numpy as np
import pytest

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.tensor import ops
from repro.tensor.tensor import Tensor


@pytest.fixture(scope="module")
def bench_graph():
    return powerlaw_graph(num_nodes=5_000, avg_degree=10.0, skew="both", feature_dim=32,
                          num_classes=4, seed=0)


@pytest.fixture(scope="module")
def bench_model(bench_graph):
    return build_model("sage", bench_graph.feature_dim, 64, 4, num_layers=2, seed=0)


def test_bench_segment_sum(benchmark):
    rng = np.random.default_rng(0)
    values = Tensor(rng.normal(size=(200_000, 64)))
    ids = rng.integers(0, 10_000, size=200_000)
    benchmark(lambda: ops.segment_sum(values, ids, 10_000))


def test_bench_segment_softmax(benchmark):
    rng = np.random.default_rng(1)
    values = Tensor(rng.normal(size=(100_000, 4)))
    ids = rng.integers(0, 5_000, size=100_000)
    benchmark(lambda: ops.segment_softmax(values, ids, 5_000))


def test_bench_pregel_inference(benchmark, bench_graph, bench_model):
    config = InferenceConfig(backend="pregel", num_workers=8,
                             strategies=StrategyConfig(partial_gather=True))
    result = benchmark.pedantic(
        lambda: InferenceSession(bench_model, config).infer(bench_graph),
        rounds=3, iterations=1)
    assert result.scores.shape == (bench_graph.num_nodes, 4)


def test_bench_mapreduce_inference(benchmark, bench_graph, bench_model):
    config = InferenceConfig(backend="mapreduce", num_workers=8,
                             strategies=StrategyConfig(partial_gather=True))
    result = benchmark.pedantic(
        lambda: InferenceSession(bench_model, config).infer(bench_graph),
        rounds=2, iterations=1)
    assert result.scores.shape == (bench_graph.num_nodes, 4)


def test_bench_traditional_batch(benchmark, bench_graph, bench_model):
    pipeline = TraditionalPipeline(bench_model, TraditionalConfig(num_workers=4, fanout=10))
    targets = np.arange(256)
    result = benchmark.pedantic(
        lambda: pipeline.run(bench_graph, targets=targets, compute_scores=True),
        rounds=3, iterations=1)
    assert result.scores is not None
