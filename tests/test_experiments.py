"""Smoke + shape tests for the experiment harnesses (tiny configurations).

Each test asserts the *qualitative* property the corresponding paper artefact
claims — parity, speed-up direction, linearity, consistency, IO reduction —
not absolute values, which the full-size benchmarks report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.experiments import (
    fig7_consistency,
    fig8_scalability,
    fig9_partial_gather,
    fig10_outdegree,
    fig11_io_partial,
    fig12_io_broadcast,
    fig13_io_shadow,
    reporting,
    table1_datasets,
    table2_performance,
    table3_efficiency,
    table4_hops,
)


class TestReporting:
    def test_format_table_alignment(self):
        text = reporting.format_table(["a", "bb"], [[1, 2.5], ["x", 0.0001]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestTable1:
    def test_rows_cover_all_datasets(self):
        result = table1_datasets.run(size="tiny")
        assert [row["dataset"] for row in result.rows] == ["ppi", "products", "mag240m", "powerlaw"]
        text = table1_datasets.format_result(result)
        assert "Table I" in text

    def test_paper_stats_reported_verbatim(self):
        result = table1_datasets.run(size="tiny")
        ppi = result.rows[0]
        assert ppi["paper_nodes"] == 56_944
        assert ppi["paper_classes"] == 121


class TestTable2:
    def test_metric_parity_across_pipelines(self):
        result = table2_performance.run(datasets=["products"], archs=["sage"], size="tiny",
                                        num_epochs=2, hidden_dim=16, max_eval_nodes=128)
        assert len(result.rows) == 1
        # Full-graph inference is exact, so all three pipelines agree (near) exactly.
        assert result.max_gap() < 1e-6
        assert "Table II" in table2_performance.format_result(result)

    def test_multilabel_dataset_runs(self):
        result = table2_performance.run(datasets=["ppi"], archs=["sage"], size="tiny",
                                        num_epochs=1, hidden_dim=16, max_eval_nodes=64)
        assert 0.0 <= result.rows[0].pregel_metric <= 1.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3_efficiency.run(size="tiny", num_workers=16, archs=["sage"],
                                     cost_sample_size=64)

    def test_inferturbo_faster_than_traditional(self, result):
        assert result.speedup("sage", "pregel") > 5.0
        assert result.speedup("sage", "mapreduce") > 2.0

    def test_inferturbo_cheaper_than_traditional(self, result):
        assert result.resource_saving("sage", "pregel") > 5.0
        assert result.resource_saving("sage", "mapreduce") > 2.0

    def test_pregel_faster_than_mapreduce(self, result):
        assert (result.by("sage", "pregel").wall_clock_minutes
                < result.by("sage", "mapreduce").wall_clock_minutes)

    def test_all_columns_present(self, result):
        pipelines = {row.pipeline for row in result.rows}
        assert pipelines == {"pyg_like", "dgl_like", "pregel", "mapreduce"}
        assert "Table III" in table3_efficiency.format_result(result)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=5.0, skew="both", seed=1)
        return table4_hops.run(dataset=dataset, hops=(1, 2), num_workers=4,
                               traditional_memory_bytes=1.5e6, cost_sample_size=48)

    def test_traditional_grows_faster_than_ours(self, result):
        traditional_growth = result.growth_ratio("nbr10000", 1, 2)
        ours_growth = result.growth_ratio("ours", 1, 2)
        assert traditional_growth > ours_growth

    def test_ours_growth_is_roughly_linear(self, result):
        # Going from 1 to 2 layers adds one superstep: cost grows well below 2x ideal-exponential.
        assert result.growth_ratio("ours", 1, 2) < 2.5

    def test_large_fanout_oom_at_deeper_hops(self, result):
        assert result.by("nbr10000", 2).oom
        assert not result.by("ours", 2).oom
        assert "OOM" in table4_hops.format_result(result)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7_consistency.run(fanouts=(2, 8), num_runs=4, num_targets=96,
                                    num_epochs=2, hidden_dim=16, size="tiny")

    def test_sampling_is_unstable(self, result):
        assert result.unstable_fraction(2) > 0.05

    def test_more_sampling_is_more_stable(self, result):
        assert result.unstable_fraction(8) <= result.unstable_fraction(2)

    def test_inferturbo_fully_stable(self, result):
        assert result.inferturbo_unstable_fraction() == 0.0
        assert "InferTurbo" in fig7_consistency.format_result(result)


class TestFig8:
    def test_near_linear_scaling(self):
        result = fig8_scalability.run(scales=(1000, 4000), backend="pregel", num_workers=4)
        slope = result.loglog_slope("cpu_minutes")
        assert 0.7 < slope < 1.3
        assert "slope" in fig8_scalability.format_result(result)


class TestHubFigures:
    def test_fig9_partial_gather_flattens_latency(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="in", seed=2)
        result = fig9_partial_gather.run(dataset=dataset, num_workers=8, hidden_dim=16)
        assert result.partial_gather.variance_of_time() < result.base.variance_of_time()
        assert "Fig. 9" in fig9_partial_gather.format_result(result)

    def test_fig10_strategies_reduce_variance(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=3)
        result = fig10_outdegree.run(dataset=dataset, num_workers=8, hidden_dim=16)
        variances = result.variances()
        assert variances["SN"] < variances["base"]
        assert variances["BC"] < variances["base"]
        assert variances["SN+BC"] < variances["base"]
        assert "Fig. 10" in fig10_outdegree.format_result(result)

    def test_fig11_io_reduced(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="in", seed=4)
        result = fig11_io_partial.run(dataset=dataset, num_workers=8, hidden_dim=16)
        assert result.total_reduction() > 0.1
        assert result.tail_reduction() > 0.1
        assert "Fig. 11" in fig11_io_partial.format_result(result)

    def test_fig12_broadcast_reduces_tail_io(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=5)
        result = fig12_io_broadcast.run(dataset=dataset, num_workers=8, hidden_dim=16)
        names = [name for name in result.series if name != "base"]
        assert any(result.tail_reduction(name) > 0.1 for name in names)
        assert "Fig. 12" in fig12_io_broadcast.format_result(result)

    def test_fig13_shadow_reduces_tail_io(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=6)
        result = fig13_io_shadow.run(dataset=dataset, num_workers=8, hidden_dim=16)
        names = [name for name in result.series if name != "base"]
        assert any(result.tail_reduction(name) > 0.05 for name in names)
        assert "Fig. 13" in fig13_io_shadow.format_result(result)
