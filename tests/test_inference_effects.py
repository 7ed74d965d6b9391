"""Tests that the hub-node strategies actually change the system behaviour the
paper claims they change: less IO, fewer records, better balance — while the
equivalence tests (test_inference_equivalence.py) pin down that results never
change."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn.model import build_model
from repro.graph.generators import powerlaw_graph, star_graph
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig


def run_with(graph, arch="sage", backend="pregel", num_workers=8, **strategy_kwargs):
    model = build_model(arch, graph.feature_dim, 16, 2, num_layers=2, seed=0)
    config = InferenceConfig(backend=backend, num_workers=num_workers,
                             strategies=StrategyConfig(**strategy_kwargs))
    return InferenceSession(model, config).infer(graph)


@pytest.fixture(scope="module")
def in_skewed():
    return powerlaw_graph(num_nodes=2000, avg_degree=8.0, skew="in", feature_dim=8,
                          num_classes=2, seed=3)


@pytest.fixture(scope="module")
def out_skewed():
    return powerlaw_graph(num_nodes=2000, avg_degree=8.0, skew="out", feature_dim=8,
                          num_classes=2, seed=4)


class TestPartialGatherEffects:
    def test_reduces_received_records(self, in_skewed):
        base = run_with(in_skewed, partial_gather=False)
        partial = run_with(in_skewed, partial_gather=True)
        assert (partial.metrics.total("records_in")
                < base.metrics.total("records_in"))

    def test_reduces_received_bytes(self, in_skewed):
        base = run_with(in_skewed, partial_gather=False)
        partial = run_with(in_skewed, partial_gather=True)
        assert partial.metrics.total("bytes_in") < base.metrics.total("bytes_in")

    def test_caps_messages_per_node_at_worker_count(self):
        """A huge in-degree hub receives at most one message per worker and layer."""
        star = star_graph(500, direction="in", seed=0)
        num_workers = 4
        partial = run_with(star, num_workers=num_workers, partial_gather=True)
        # Hub (node 0) lives on instance 0; count its received records in the
        # superstep that gathers layer-0 messages.
        records = partial.metrics.get("superstep_1", 0).records_in
        assert records <= num_workers * 2  # one per worker (+ slack for mirror-free setup)

    def test_flattens_straggler_time(self, in_skewed):
        base = run_with(in_skewed, partial_gather=False)
        partial = run_with(in_skewed, partial_gather=True)
        base_times = np.fromiter(base.cost.instance_times().values(), dtype=np.float64)
        partial_times = np.fromiter(partial.cost.instance_times().values(), dtype=np.float64)
        assert partial_times.var() < base_times.var()

    def test_no_effect_for_gat(self, in_skewed):
        """GAT's union aggregate cannot be partially gathered: plan must disable it."""
        result = run_with(in_skewed, arch="gat", partial_gather=True)
        assert not any(layer.partial_gather for layer in result.plan.layer_strategies)


class TestBroadcastEffects:
    def test_reduces_bytes_out_on_out_skewed_graph(self, out_skewed):
        base = run_with(out_skewed, broadcast=False, partial_gather=False)
        broadcast = run_with(out_skewed, broadcast=True, partial_gather=False)
        assert broadcast.metrics.total("bytes_out") < base.metrics.total("bytes_out")

    def test_reduces_hub_owner_bytes_out(self):
        star = star_graph(1000, direction="out", seed=1)
        base = run_with(star, num_workers=4, broadcast=False, partial_gather=False,
                        hub_threshold_override=50)
        broadcast = run_with(star, num_workers=4, broadcast=True, partial_gather=False,
                             hub_threshold_override=50)
        # The hub lives on instance 0; its output bytes must shrink sharply.
        base_out = base.metrics.per_instance("bytes_out")[0]
        broadcast_out = broadcast.metrics.per_instance("bytes_out")[0]
        assert broadcast_out < 0.6 * base_out

    def test_threshold_controls_applicability(self, out_skewed):
        """With an absurdly high threshold no node is a hub and broadcast is a no-op."""
        base = run_with(out_skewed, broadcast=False, partial_gather=False)
        no_hubs = run_with(out_skewed, broadcast=True, partial_gather=False,
                           hub_threshold_override=10**9)
        assert no_hubs.metrics.total("bytes_out") == pytest.approx(
            base.metrics.total("bytes_out"))

    def test_broadcast_applies_to_gat_messages(self, out_skewed):
        """GAT messages depend only on the source, so broadcast still applies."""
        base = run_with(out_skewed, arch="gat", broadcast=False, partial_gather=False)
        broadcast = run_with(out_skewed, arch="gat", broadcast=True, partial_gather=False)
        assert broadcast.metrics.total("bytes_out") < base.metrics.total("bytes_out")


class TestShadowNodeEffects:
    def test_balances_bytes_out(self, out_skewed):
        base = run_with(out_skewed, shadow_nodes=False, partial_gather=False)
        shadow = run_with(out_skewed, shadow_nodes=True, partial_gather=False)
        base_out = np.fromiter(base.metrics.per_instance("bytes_out").values(), dtype=np.float64)
        shadow_out = np.fromiter(shadow.metrics.per_instance("bytes_out").values(), dtype=np.float64)
        assert shadow_out.max() < base_out.max()

    def test_increases_total_bytes_in(self, out_skewed):
        """The documented overhead: mirrors duplicate in-edge messages."""
        base = run_with(out_skewed, shadow_nodes=False, partial_gather=False)
        shadow = run_with(out_skewed, shadow_nodes=True, partial_gather=False,
                          hub_threshold_override=50)
        assert shadow.metrics.total("bytes_in") >= base.metrics.total("bytes_in")

    def test_scores_exclude_mirrors(self, out_skewed):
        shadow = run_with(out_skewed, shadow_nodes=True, partial_gather=False)
        assert shadow.scores.shape[0] == out_skewed.num_nodes


class TestBackendTradeoff:
    def test_mapreduce_moves_more_bytes_than_pregel(self, out_skewed):
        """The MR backend re-shuffles node state every round; Pregel keeps it local."""
        pregel = run_with(out_skewed, backend="pregel", partial_gather=True)
        mapreduce = run_with(out_skewed, backend="mapreduce", partial_gather=True)
        assert (mapreduce.metrics.total("bytes_out")
                > pregel.metrics.total("bytes_out"))

    def test_mapreduce_bounded_peak_memory(self, out_skewed):
        """Peak reducer memory must stay well below holding the entire graph state."""
        mapreduce = run_with(out_skewed, backend="mapreduce", partial_gather=True)
        peak = max(m.peak_memory_bytes for m in mapreduce.metrics.instances())
        total_feature_bytes = out_skewed.node_features.nbytes
        total_message_bytes = out_skewed.num_edges * 16 * 8
        assert peak < total_feature_bytes + total_message_bytes

    def test_pregel_uses_fewer_supersteps_worth_of_phases(self, out_skewed):
        pregel = run_with(out_skewed, backend="pregel")
        mapreduce = run_with(out_skewed, backend="mapreduce")
        assert len(pregel.metrics.phases()) == 3          # L+1 supersteps
        assert len(mapreduce.metrics.phases()) == 4       # L rounds x (map + reduce)

    def test_cost_summary_populated(self, out_skewed):
        result = run_with(out_skewed, backend="pregel")
        assert result.cost.wall_clock_seconds > 0
        assert result.cost.cpu_minutes > 0
        assert result.cost.total_bytes > 0
        assert len(result.cost.phases) == 3
