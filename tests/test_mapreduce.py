"""Tests for the MapReduce engine, its byte accounting and the cluster cost model."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

import repro.batch.mapreduce as mapreduce_module
from repro.batch.mapreduce import MapReduceEngine, MapReduceJob, _run_map_task
from repro.cluster.cost_model import CostModel, gnn_layer_compute_units
from repro.cluster.executor import available_executors, build_executor
from repro.cluster.metrics import (
    InstanceMetrics,
    MetricsCollector,
    estimate_payload_bytes,
    message_bytes,
    tensor_bytes,
)
from repro.cluster.resources import ClusterSpec, OutOfMemoryError, WorkerSpec
from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig


# Jobs and partition functions are module-level: every task ships to the
# process executor's workers by pickle.
class WordCountJob(MapReduceJob):
    def map_partition(self, records, context):
        return [(word, 1) for _, text in records for word in text.split()]

    def reduce_partition(self, groups, context):
        return [(key, sum(values)) for key, values in groups]


class CombiningWordCountJob(WordCountJob):
    has_combiner = True

    def combine(self, key, values, context):
        return [(key, sum(values))]


class PartitionSumJob(MapReduceJob):
    def map_partition(self, records, context):
        return [(key % 3, value) for key, value in records]

    def reduce_partition(self, groups, context):
        for key, values in groups:
            context.add_compute(len(values))
            yield key, sum(values)


def by_crc(key, num_reducers):
    """Process-stable placement for string and integer keys alike."""
    return zlib.crc32(str(key).encode()) % num_reducers


def all_to_zero(key, num_reducers):
    return 0


DOCUMENTS = [
    (0, "the quick brown fox"),
    (1, "the lazy dog"),
    (2, "the quick dog jumps"),
    (3, "brown dog brown fox"),
]


@pytest.fixture(params=sorted(available_executors()))
def executor(request):
    built = build_executor(request.param, 4)
    yield built
    built.shutdown()


def make_engine(executor, num_mappers=2, num_reducers=2, partition_fn=by_crc):
    return MapReduceEngine(num_mappers, num_reducers, MetricsCollector(),
                           partition_fn, executor)


class TestMapReduceEngine:
    def test_wordcount_correct(self, executor):
        engine = make_engine(executor)
        counts = dict(engine.run(WordCountJob(), DOCUMENTS, phase="wc"))
        assert counts["the"] == 3
        assert counts["brown"] == 3
        assert counts["jumps"] == 1
        assert engine.metrics.total("records_out", "wc/map") == 15

    def test_results_independent_of_worker_count(self, executor):
        small = dict(make_engine(executor, 1, 1).run(WordCountJob(), DOCUMENTS, "wc"))
        large = dict(make_engine(executor, 4, 7).run(WordCountJob(), DOCUMENTS, "wc"))
        assert small == large

    def test_combiner_reduces_shuffle_records_but_not_results(self, executor):
        plain_engine = make_engine(executor)
        plain = plain_engine.run(WordCountJob(), DOCUMENTS, "wc")
        combined_engine = make_engine(executor)
        combined = combined_engine.run(CombiningWordCountJob(), DOCUMENTS, "wc")
        assert dict(plain) == dict(combined)
        assert (combined_engine.metrics.total("records_out", "wc/map")
                < plain_engine.metrics.total("records_out", "wc/map"))

    def test_partition_reduce(self, executor):
        records = [(i, i) for i in range(30)]
        engine = make_engine(executor, 3, 3)
        totals = dict(engine.run(PartitionSumJob(), records, "sum"))
        assert sum(totals.values()) == sum(range(30))
        assert engine.metrics.total("compute_units", "sum/reduce") == 30

    def test_metrics_recorded_for_both_phases(self, executor):
        engine = make_engine(executor, 2, 3)
        engine.run(WordCountJob(), DOCUMENTS, phase="job")
        metrics = engine.metrics
        assert metrics.phases() == ["job/map", "job/reduce"]
        assert metrics.total("records_out", "job/map") == 15
        assert metrics.total("records_in", "job/reduce") == 15
        for instance in metrics.instances():
            assert instance.disk_bytes == instance.bytes_in + instance.bytes_out
            assert instance.measured_seconds > 0

    def test_custom_partition_fn(self, executor):
        engine = make_engine(executor, 1, 4, partition_fn=all_to_zero)
        engine.run(WordCountJob(), DOCUMENTS, phase="p")
        # Everything lands on reducer 0.
        busy = [m for m in engine.metrics.instances("p/reduce") if m.records_in > 0]
        assert len(busy) == 1 and busy[0].instance_id == 0

    def test_empty_input(self, executor):
        engine = make_engine(executor)
        assert engine.run(WordCountJob(), [], "wc") == []
        assert engine.metrics.total("records_out", "wc/map") == 0

    def test_invalid_worker_counts(self, executor):
        with pytest.raises(ValueError):
            make_engine(executor, 0, 2)
        with pytest.raises(ValueError):
            make_engine(executor, 2, 0)


class TestAccountingFollowsTheData:
    """Whoever emits a record sizes it once; ``bytes_in`` is summed, not re-derived."""

    def test_reducer_bytes_in_is_the_sum_of_the_bucket_totals_sent_to_it(self, executor):
        engine = make_engine(executor, 3, 4)
        engine.run(WordCountJob(), DOCUMENTS, phase="wc")
        mapped = [_run_map_task(WordCountJob(), split, mapper_id, "wc/map", 4, by_crc)
                  for mapper_id, split in enumerate(engine._split_input(DOCUMENTS))]
        for mapper_id, result in enumerate(mapped):
            assert result.bucket_bytes == [
                sum(estimate_payload_bytes(record) for record in bucket)
                for bucket in result.outputs]
            assert engine.metrics.get("wc/map", mapper_id).bytes_out == sum(result.bucket_bytes)
        for reducer_id in range(4):
            assert engine.metrics.get("wc/reduce", reducer_id).bytes_in == sum(
                result.bucket_bytes[reducer_id] for result in mapped)

    def test_full_infer_sizes_each_record_once_per_emitter(self, monkeypatch):
        graph = powerlaw_graph(300, avg_degree=4.0, skew="both", feature_dim=6,
                               num_classes=3, seed=1)
        model = build_model("gcn", graph.feature_dim, 8, 3, num_layers=2, seed=0)
        config = InferenceConfig(
            backend="mapreduce", num_workers=4, executor="serial",
            strategies=StrategyConfig(partial_gather=True, broadcast=True,
                                      shadow_nodes=True))
        # The engine's name for the (recursive) estimator sees top-level calls only.
        calls = []
        monkeypatch.setattr(
            mapreduce_module, "estimate_payload_bytes",
            lambda payload: calls.append(1) or estimate_payload_bytes(payload))
        metrics = InferenceSession(model, config).infer(graph).metrics

        map_phases = [phase for phase in metrics.phases() if phase.endswith("/map")]
        assert len(map_phases) == model.num_layers
        budget = (sum(metrics.total("records_in", phase) for phase in map_phases)
                  + metrics.total("records_out"))
        assert 0 < len(calls) <= budget
        for map_phase in map_phases:
            reduce_phase = map_phase[:-len("map")] + "reduce"
            assert (metrics.total("bytes_out", map_phase)
                    == metrics.total("bytes_in", reduce_phase) > 0)
            assert (metrics.total("records_out", map_phase)
                    == metrics.total("records_in", reduce_phase))


class TestMetricsCollector:
    def test_record_and_totals(self):
        collector = MetricsCollector()
        collector.record("phase_a", 0, compute_units=10, bytes_in=100)
        collector.record("phase_a", 0, compute_units=5, bytes_in=50)
        collector.record("phase_a", 1, compute_units=1)
        assert collector.total("compute_units", "phase_a") == 16
        assert collector.get("phase_a", 0).bytes_in == 150

    def test_peak_memory_takes_max(self):
        collector = MetricsCollector()
        collector.record("p", 0, peak_memory_bytes=100)
        collector.record("p", 0, peak_memory_bytes=40)
        assert collector.get("p", 0).peak_memory_bytes == 100

    def test_per_instance_accumulates_across_phases(self):
        collector = MetricsCollector()
        collector.record("a", 0, bytes_in=10)
        collector.record("b", 0, bytes_in=15)
        collector.record("b", 1, bytes_in=3)
        per_instance = collector.per_instance("bytes_in")
        assert per_instance[0] == 25
        assert per_instance[1] == 3

    def test_phase_order_preserved(self):
        collector = MetricsCollector()
        collector.record("z_first", 0)
        collector.record("a_second", 0)
        assert collector.phases() == ["z_first", "a_second"]

    def test_merge_from(self):
        a = MetricsCollector()
        a.record("p", 0, bytes_in=5)
        b = MetricsCollector()
        b.record("p", 0, bytes_in=7)
        b.record("q", 1, records_in=2)
        a.merge_from(b)
        assert a.get("p", 0).bytes_in == 12
        assert a.get("q", 1).records_in == 2

    def test_size_estimators(self):
        assert estimate_payload_bytes(np.zeros((4, 4))) == 128
        assert estimate_payload_bytes({"a": 1.0, "b": np.zeros(2)}) > 16
        assert estimate_payload_bytes(None) == 0.0
        assert tensor_bytes((10, 10)) == 800
        assert message_bytes(10, 4) == 10 * (4 * 8 + 8 + 16)


class TestCostModel:
    def test_instance_seconds_composition(self):
        worker = WorkerSpec(cpu_cores=2, compute_units_per_second=100,
                            network_bandwidth_bytes_per_second=1000,
                            disk_bandwidth_bytes_per_second=500)
        model = CostModel(ClusterSpec(num_workers=1, worker=worker))
        metric = InstanceMetrics(phase="p", instance_id=0, compute_units=400,
                                 bytes_in=2000, bytes_out=1000, disk_bytes=250)
        # 400/(2*100) + 2000/1000 + 250/500 = 2 + 2 + 0.5
        assert model.instance_seconds(metric) == pytest.approx(4.5)

    def test_wall_clock_is_straggler_sum_over_phases(self):
        collector = MetricsCollector()
        collector.record("s0", 0, compute_units=100)
        collector.record("s0", 1, compute_units=400)
        collector.record("s1", 0, compute_units=200)
        worker = WorkerSpec(cpu_cores=1, compute_units_per_second=100)
        summary = CostModel(ClusterSpec(2, worker)).summarize(collector)
        assert summary.wall_clock_seconds == pytest.approx(4.0 + 2.0)
        assert summary.phases[0].straggler_instance == 1

    def test_cpu_minutes_counts_all_instances(self):
        collector = MetricsCollector()
        collector.record("s0", 0, compute_units=600)
        collector.record("s0", 1, compute_units=600)
        worker = WorkerSpec(cpu_cores=2, compute_units_per_second=10)
        summary = CostModel(ClusterSpec(2, worker)).summarize(collector)
        # each instance busy 30 s, 2 cores each -> 120 core-seconds = 2 cpu-minutes
        assert summary.cpu_minutes == pytest.approx(2.0)

    def test_oom_reported(self):
        collector = MetricsCollector()
        collector.record("s0", 0, peak_memory_bytes=100e9)
        summary = CostModel(ClusterSpec(1, WorkerSpec(memory_bytes=1e9))).summarize(collector)
        assert summary.oom
        assert summary.oom_instances

    def test_oom_raises_when_checked(self):
        collector = MetricsCollector()
        collector.record("s0", 3, peak_memory_bytes=100e9)
        model = CostModel(ClusterSpec(4, WorkerSpec(memory_bytes=1e9)))
        with pytest.raises(OutOfMemoryError):
            model.summarize(collector, check_memory=True)

    def test_instance_times_helper(self):
        collector = MetricsCollector()
        collector.record("a", 0, compute_units=100)
        collector.record("b", 0, compute_units=100)
        worker = WorkerSpec(cpu_cores=1, compute_units_per_second=100)
        summary = CostModel(ClusterSpec(1, worker)).summarize(collector)
        assert summary.instance_times()[0] == pytest.approx(2.0)
        assert summary.instance_times("a")[0] == pytest.approx(1.0)

    def test_gnn_layer_compute_units(self):
        cost = gnn_layer_compute_units(num_messages=10, message_dim=4, num_nodes=5,
                                       in_dim=3, out_dim=2)
        assert cost == 10 * 4 + 5 * 3 * 2

    def test_cluster_presets(self):
        assert ClusterSpec.pregel_default(10).total_cores == 20
        assert ClusterSpec.mapreduce_default(5).worker.memory_bytes == pytest.approx(2e9)
        assert ClusterSpec.traditional_default(3).worker.cpu_cores == 10
