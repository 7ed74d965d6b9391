"""Smoke + shape tests for the paper's artifacts (tiny configurations).

Each test asserts, on the artifact's records, the *qualitative* property the
corresponding paper artifact claims — parity, speed-up direction, linearity,
consistency, IO reduction — not absolute values, which the full-size
benchmarks report.
"""

from __future__ import annotations

import pytest

from repro.datasets.registry import load_dataset
from repro.experiments import figures, records, tables
from repro.experiments.records import Record, Series, values


class TestRecords:
    def test_markdown_renders_records_then_series(self):
        items = [Record("t", "a", "~1", 2.5, host=0.0001, unit="s"),
                 Record("t", "b", 3, 0.0, setting="x"),
                 Series("t", "instance", {"base": {0: 1.0, 1: 1500.0}, "other": {1: 2.0}})]
        lines = records.markdown("T", items).splitlines()
        assert lines[0] == "## T"
        assert lines[2] == "| metric | paper | simulated | host | unit | setting |"
        assert lines[4] == "| a | ~1 | 2.500 | 1.000e-04 | s |  |"
        assert lines[5] == "| b | 3 | 0 |  |  | x |"
        assert lines[7:] == ["| instance | base | other |", "| --- | --- | --- |",
                             "| 0 | 1.000 | 0 |", "| 1 | 1.500e+03 | 2.000 |"]

    def test_values_reads_simulated_by_metric(self):
        items = [Record("t", "a", "", 1.0, host=9.0), Series("t", "i", {})]
        assert values(items) == {"a": 1.0}


class TestTable1:
    def test_rows_cover_all_datasets(self):
        v = values(tables.table1(size="tiny"))
        assert [metric.split()[0] for metric in v if metric.endswith("#node")] == [
            "ppi", "products", "mag240m", "powerlaw"]

    def test_paper_stats_reported_verbatim(self):
        paper = {item.metric: item.paper for item in tables.table1(size="tiny")}
        assert paper["ppi #node"] == 56_944
        assert paper["ppi #class"] == 121


class TestTable2:
    def test_metric_parity_across_pipelines(self):
        v = values(tables.table2(datasets=["products"], archs=["sage"], size="tiny",
                                 num_epochs=2, hidden_dim=16, max_eval_nodes=128))
        assert [metric for metric in v if metric.startswith("sage products")] == [
            "sage products traditional", "sage products pregel", "sage products mapreduce"]
        # Full-graph inference is exact, so all three pipelines agree (near) exactly.
        assert v["max metric gap between pipelines"] < 1e-6

    def test_multilabel_dataset_runs(self):
        v = values(tables.table2(datasets=["ppi"], archs=["sage"], size="tiny",
                                 num_epochs=1, hidden_dim=16, max_eval_nodes=64))
        assert 0.0 <= v["sage ppi pregel"] <= 1.0


class TestTable3:
    @pytest.fixture(scope="class")
    def v(self):
        return values(tables.table3(size="tiny", num_workers=16, archs=["sage"],
                                    cost_sample_size=64))

    def test_inferturbo_faster_than_traditional(self, v):
        assert v["sage pregel speedup over pyg_like"] > 5.0
        assert v["sage mapreduce speedup over pyg_like"] > 2.0

    def test_inferturbo_cheaper_than_traditional(self, v):
        assert v["sage pregel resource saving over pyg_like"] > 5.0
        assert v["sage mapreduce resource saving over pyg_like"] > 2.0

    def test_pregel_faster_than_mapreduce(self, v):
        assert v["sage pregel time"] < v["sage mapreduce time"]

    def test_all_columns_present(self, v):
        pipelines = {metric.split()[1] for metric in v if metric.endswith(" time")}
        assert pipelines == {"pyg_like", "dgl_like", "pregel", "mapreduce"}


class TestTable4:
    @pytest.fixture(scope="class")
    def v(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=5.0, skew="both", seed=1)
        return values(tables.table4(dataset=dataset, hops=(1, 2), num_workers=4,
                                    traditional_memory_bytes=1.5e6, cost_sample_size=48))

    def test_traditional_grows_faster_than_ours(self, v):
        assert v["nbr10000 time growth 1→2 hops"] > v["ours time growth 1→2 hops"]

    def test_ours_growth_is_roughly_linear(self, v):
        # Going from 1 to 2 layers adds one superstep: cost grows well below 2x ideal-exponential.
        assert v["ours time growth 1→2 hops"] < 2.5

    def test_large_fanout_oom_at_deeper_hops(self, v):
        assert v["nbr10000 2-hop OOM"]
        assert not v["ours 2-hop OOM"]


class TestFig7:
    @pytest.fixture(scope="class")
    def items(self):
        return figures.fig7(fanouts=(2, 8), num_runs=4, num_targets=96, num_epochs=2,
                            hidden_dim=16, size="tiny")

    def test_sampling_is_unstable(self, items):
        assert values(items)["sampling fanout=2 unstable nodes"] > 5.0

    def test_more_sampling_is_more_stable(self, items):
        v = values(items)
        assert v["sampling fanout=8 unstable nodes"] <= v["sampling fanout=2 unstable nodes"]

    def test_inferturbo_fully_stable(self, items):
        assert values(items)["InferTurbo (full graph) unstable nodes"] == 0.0
        (histogram,) = [item for item in items if isinstance(item, Series)]
        assert histogram.columns["InferTurbo (full graph)"][1] == 96


class TestFig8:
    def test_near_linear_scaling(self):
        v = values(figures.fig8(scales=(1000, 4000), backend="pregel", num_workers=4))
        assert 0.7 < v["log-log slope of resource vs. edges"] < 1.3


class TestHubFigures:
    def test_fig9_partial_gather_flattens_latency(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="in", seed=2)
        items = figures.fig9(dataset=dataset, num_workers=8, hidden_dim=16)
        v = values(items)
        assert v["partial-gather variance of instance time"] < v["base variance of instance time"]
        assert all(item.host is not None for item in items if isinstance(item, Record))

    def test_fig10_strategies_reduce_variance(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=3)
        v = values(figures.fig10(dataset=dataset, num_workers=8, hidden_dim=16))
        assert v["SN variance of instance time"] < v["base variance of instance time"]
        assert v["BC variance of instance time"] < v["base variance of instance time"]
        assert v["SN+BC variance of instance time"] < v["base variance of instance time"]

    def test_fig11_io_reduced(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="in", seed=4)
        v = values(figures.fig11(dataset=dataset, num_workers=8, hidden_dim=16))
        assert v["total input IO reduction"] > 10
        assert v["tail (10 % most loaded) input IO reduction"] > 10

    def test_fig12_broadcast_reduces_tail_io(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=5)
        v = values(figures.fig12(dataset=dataset, num_workers=8, hidden_dim=16))
        assert any(value > 10 for metric, value in v.items()
                   if metric.startswith("tail IO reduction"))

    def test_fig13_shadow_reduces_tail_io(self):
        dataset = load_dataset("powerlaw", num_nodes=4000, avg_degree=8.0, skew="out", seed=6)
        v = values(figures.fig13(dataset=dataset, num_workers=8, hidden_dim=16))
        assert any(value > 5 for metric, value in v.items()
                   if metric.startswith("tail IO reduction"))

