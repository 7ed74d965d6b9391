"""Figs. 7–13 of the paper, each a function that returns its records.

Figs. 9–13 are one sweep over a degree-skewed power-law graph: one
untrained SAGE, one Pregel run per named :class:`StrategyConfig`, and — for
the IO figures — one tail helper.  Each figure also returns the per-instance
points it plots as a :class:`~repro.experiments.records.Series`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster.executor import usable_cpus
from repro.datasets.registry import Dataset, load_dataset
from repro.experiments.common import run_inference, train_model, untrained_model
from repro.experiments.records import Item, Record, Series
from repro.inference import StrategyConfig
from repro.inference.session import InferenceResult
from repro.inference.strategies import hub_threshold

#: The paper's unstable fractions, beside the stand-in fanout that plays
#: the paper's fanout (the stand-in graph is far denser relative to fanout).
_PAPER_UNSTABLE = {2: "~30 % (fanout 10)", 25: "~0.1 % (fanout 1000)"}


def fig7(fanouts: Sequence[int] = (2, 5, 10, 25), num_runs: int = 10, num_targets: int = 256,
         num_epochs: int = 3, hidden_dim: int = 32, size: str = "tiny") -> List[Item]:
    """Fig. 7 — prediction consistency under neighbour sampling.

    The traditional pipeline with a sampling fanout predicts differently
    from run to run; the paper counts, over 10 runs, how many distinct
    classes each node was assigned, for fanouts 10/50/100/1000 (~30 % of
    nodes flip at fanout 10, ~0.1 % still flip at 1000).  InferTurbo infers
    over the full graph without sampling, so its predictions never change.
    The fanouts here (2/5/10/25) are scaled down to the stand-in graph.
    """
    dataset = load_dataset("mag240m", size=size)
    model, _ = train_model(dataset, "sage", hidden_dim=hidden_dim, num_epochs=num_epochs)
    graph = dataset.graph
    targets = np.random.default_rng(0).choice(graph.num_nodes, size=min(num_targets, graph.num_nodes),
                                              replace=False)

    def sampled(fanout: int, run: int) -> np.ndarray:
        pipeline = TraditionalPipeline(model, TraditionalConfig(num_workers=4, fanout=fanout,
                                                                seed=run))
        return pipeline.run(graph, targets=targets, seed=run).scores[targets].argmax(axis=-1)

    predictions = {f"sampling fanout={fanout}": np.stack([sampled(fanout, run)
                                                           for run in range(num_runs)])
                   for fanout in fanouts}
    # Two full-graph runs would show identical output; the same run count
    # gives a like-for-like histogram.
    predictions["InferTurbo (full graph)"] = np.stack([
        run_inference(model, dataset, "pregel", 4).scores[targets].argmax(axis=-1)
        for _ in range(num_runs)])
    distinct = {name: (np.diff(np.sort(runs, axis=0), axis=0) != 0).sum(axis=0) + 1
                for name, runs in predictions.items()}
    most = max(int(classes.max()) for classes in distinct.values())

    setting = f"{num_runs} runs over {targets.size} nodes of the {size} MAG240M stand-in"
    papers = [_PAPER_UNSTABLE.get(fanout, "") for fanout in fanouts] + ["0 %"]
    records: List[Item] = [
        Record("fig7", f"{name} unstable nodes", paper, 100.0 * float(np.mean(classes >= 2)),
               unit="%", setting=setting if paper else "")
        for (name, classes), paper in zip(distinct.items(), papers)]
    histogram = {name: dict(enumerate(np.bincount(classes, minlength=most + 1).tolist()[1:],
                                      start=1))
                 for name, classes in distinct.items()}
    return records + [Series("fig7", f"#classes predicted over {num_runs} runs", histogram)]


def fig8(scales: Sequence[int] = (2_000, 8_000, 32_000), backend: str = "mapreduce",
         num_workers: int = 8) -> List[Item]:
    """Fig. 8 — resource and time cost vs. data scale (scalability).

    The paper runs a 2-layer GAT (embedding 64) over Power-Law graphs
    spanning three orders of magnitude (10^8 → 10^10 nodes) on MapReduce and
    finds time and cpu·min both grow nearly linearly with the data scale.
    The log–log slope of cost against edges is ≈ 1 for linear scalability.
    """
    records: List[Item] = []
    edges, costs = [], []
    for num_nodes in scales:
        dataset = load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=10.0, skew="both")
        model = untrained_model(dataset, "gat")
        cost = run_inference(model, dataset, backend, num_workers,
                             StrategyConfig(partial_gather=True)).cost
        label = f"{dataset.graph.num_nodes} nodes"
        records += [Record("fig8", f"{label} edges", "", dataset.graph.num_edges),
                    Record("fig8", f"{label} time", "", cost.wall_clock_minutes,
                           unit="simulated min"),
                    Record("fig8", f"{label} resource", "", cost.cpu_minutes,
                           unit="simulated cpu·min")]
        edges.append(dataset.graph.num_edges)
        costs.append((cost.wall_clock_minutes, cost.cpu_minutes))

    setting = (f"{backend}, {num_workers} workers, 2-layer GAT; "
               f"{scales[-1] // scales[0]}× range (paper 10^8 → 10^10 nodes)")
    for column, name in enumerate(("time", "resource")):
        cost_column = [max(cost[column], 1e-12) for cost in costs]
        slope = float(np.polyfit(np.log(edges), np.log(cost_column), 1)[0])
        records.append(Record("fig8", f"log-log slope of {name} vs. edges", "≈ 1 (linear)", slope,
                              setting=setting))
    return records


_PARTIAL_GATHER = {"base": StrategyConfig(partial_gather=False),
                   "partial-gather": StrategyConfig(partial_gather=True)}


def _powerlaw(skew: str, num_nodes: int, avg_degree: float) -> Dataset:
    return load_dataset("powerlaw", num_nodes=num_nodes, avg_degree=avg_degree, skew=skew)


def _hub_sweep(dataset: Dataset, configs: Dict[str, StrategyConfig], num_workers: int,
               hidden_dim: int) -> Dict[str, InferenceResult]:
    """One Pregel run of one untrained 2-layer SAGE per named strategy set."""
    model = untrained_model(dataset, "sage", hidden_dim=hidden_dim)
    return {name: run_inference(model, dataset, "pregel", num_workers, config)
            for name, config in configs.items()}


def _setting(dataset: Dataset, skew: str, num_workers: int) -> str:
    graph = dataset.graph
    return (f"{skew}-degree power law, {graph.num_nodes} nodes, "
            f"avg degree {graph.num_edges / graph.num_nodes:.1f}, {num_workers} workers")


#: How the host column's instance times of Figs. 9 and 10 were taken.
_HOST_TIMES = "host: concurrently stepped slots"


def _slots_at_once(artifact: str, num_workers: int) -> Record:
    """How many instances run at once: all of them on the simulated cluster;
    on the host, the slots the in-process executor steps side by side, whose
    host times overlap and include waits for the GIL."""
    return Record(artifact, "instances stepped at once", "", num_workers,
                  float(min(usable_cpus(), num_workers)), "slots",
                  f"{_HOST_TIMES}, min(usable CPUs, workers) at once")


def _tail_reduction(series: Dict[str, Dict[int, float]], name: str,
                    fraction: float = 0.1) -> float:
    """% less load in ``series[name]`` than in ``series["base"]`` on the tail:
    the ``fraction`` of instances that load most in base.

    A figure whose x-axis is sorted workers keys each series by sorted rank,
    so there the tail is each series' own largest values.
    """
    base = series["base"]
    tail = sorted(base, key=base.get, reverse=True)[:max(1, int(np.ceil(len(base) * fraction)))]
    base_load = sum(base[i] for i in tail)
    if base_load == 0:
        return 0.0
    return 100.0 * (1.0 - sum(series[name].get(i, 0.0) for i in tail) / base_load)


def _times(seconds: Dict[int, float]) -> Tuple[float, float, float]:
    """Variance, max/mean and max of per-instance times."""
    values = np.fromiter(seconds.values(), dtype=np.float64)
    if values.size == 0:
        return 0.0, 0.0, 0.0
    mean = values.mean()
    return float(values.var()), float(values.max() / mean) if mean else 0.0, float(values.max())


def fig9(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
         num_workers: int = 16, hidden_dim: int = 32) -> List[Item]:
    """Fig. 9 — per-instance latency vs. in-degree skew, with and without partial-gather.

    On a graph whose in-degree follows a power law, the worker owning a
    large in-degree hub receives (and reduces) far more messages than its
    peers, so its latency sits in the long tail.  Partial-gather
    pre-aggregates the hub's messages on every sender, flattening both.  The
    figure plots each instance's latency against the number of input records
    it would receive without partial-gather.  Host time is each instance's
    ``measured_seconds``, taken with the partitions stepped side by side
    (:func:`_slots_at_once`).
    """
    dataset = dataset or _powerlaw("in", num_nodes, avg_degree)
    runs = _hub_sweep(dataset, _PARTIAL_GATHER, num_workers, hidden_dim)
    simulated = {name: run.cost.instance_times() for name, run in runs.items()}
    host = {name: _times(run.metrics.per_instance("measured_seconds"))
            for name, run in runs.items()}
    setting = f"{_setting(dataset, 'in', num_workers)}; {_HOST_TIMES}"
    records: List[Item] = [_slots_at_once("fig9", num_workers)]
    for name, paper in (("base", "long tail"), ("partial-gather", "flat")):
        stats = _times(simulated[name])
        records += [Record("fig9", f"{name} variance of instance time", "", stats[0],
                           host[name][0], "s²"),
                    Record("fig9", f"{name} max/mean instance time", paper, stats[1],
                           host[name][1], "×", setting)]
    slowest = {name: _times(seconds)[2] for name, seconds in simulated.items()}
    records.append(Record(
        "fig9", "straggler latency reduction", "",
        100.0 * (1.0 - slowest["partial-gather"] / slowest["base"]) if slowest["base"] else 0.0,
        100.0 * (1.0 - host["partial-gather"][2] / host["base"][2]) if host["base"][2] else 0.0,
        "%"))
    return records + [Series("fig9", "instance", {
        "original input records": runs["base"].metrics.per_instance("records_in"),
        "base time (s)": simulated["base"],
        "partial-gather time (s)": simulated["partial-gather"]})]


def fig10(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
          num_workers: int = 16, hidden_dim: int = 32) -> List[Item]:
    """Fig. 10 — variance of per-instance time for the large out-degree strategies.

    On a graph whose out-degree follows a power law, the worker owning a hub
    builds and sends one message per out-edge, so its send time dominates.
    The paper compares Base, Shadow-Nodes (SN), Broadcast (BC) and SN+BC:
    both strategies shrink the variance, BC slightly more than SN (which
    pays for duplicated in-edges), and SN+BC is best for GraphSAGE, whose
    messages are identical across out-edges.  Host time is each instance's
    ``measured_seconds``, taken as in Fig. 9.
    """
    dataset = dataset or _powerlaw("out", num_nodes, avg_degree)
    runs = _hub_sweep(dataset, {
        name: StrategyConfig(partial_gather=False, shadow_nodes=shadow, broadcast=broadcast)
        for name, shadow, broadcast in (("base", False, False), ("SN", True, False),
                                        ("BC", False, True), ("SN+BC", True, True))},
        num_workers, hidden_dim)
    papers = {"base": "", "SN": "< base", "BC": "< SN", "SN+BC": "lowest"}
    setting = f"{_setting(dataset, 'out', num_workers)}; {_HOST_TIMES}"
    return [_slots_at_once("fig10", num_workers)] + [Record("fig10", f"{name} variance of instance time", papers[name],
                   _times(run.cost.instance_times())[0],
                   _times(run.metrics.per_instance("measured_seconds"))[0], "s²",
                   setting if papers[name] else "")
            for name, run in runs.items()]


def fig11(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
          num_workers: int = 16, hidden_dim: int = 32) -> List[Item]:
    """Fig. 11 — input IO per instance with and without partial-gather.

    Partial-gather caps the messages a node can receive at one per sending
    worker, so an instance's input bytes stop growing with its nodes'
    in-degrees.  The paper reports a ~25 % reduction of total communication
    and up to ~73 % for the 10 % most loaded (tail) workers.  The total here
    saves far more than the paper's; the gap is open, not tuned away.
    """
    dataset = dataset or _powerlaw("in", num_nodes, avg_degree)
    runs = _hub_sweep(dataset, _PARTIAL_GATHER, num_workers, hidden_dim)
    series = {name: run.metrics.per_instance("bytes_in") for name, run in runs.items()}
    setting = _setting(dataset, "in", num_workers)
    return [Record("fig11", "total input IO reduction", "~25 %",
                   _tail_reduction(series, "partial-gather", fraction=1.0), unit="%",
                   setting=f"{setting}; gap to the paper open"),
            Record("fig11", "tail (10 % most loaded) input IO reduction", "up to ~73 %",
                   _tail_reduction(series, "partial-gather"), unit="%", setting=setting),
            Series("fig11", "instance", {
                "original input records": runs["base"].metrics.per_instance("records_in"),
                "base input bytes": series["base"],
                "partial-gather input bytes": series["partial-gather"]})]


def _threshold_sweep(artifact: str, strategy: StrategyConfig, dataset: Dataset,
                     num_workers: int, hidden_dim: int, papers: Tuple[str, str],
                     by_rank: bool, gap: str = "") -> List[Item]:
    """Output bytes per instance for ``strategy`` at the heuristic hub
    threshold λ·E/W and at 1/2, 1/4 and 1/8 of it, against base."""
    heuristic = hub_threshold(dataset.graph.num_edges, num_workers)
    thresholds = sorted({max(heuristic // part, 1) for part in (1, 2, 4, 8)}, reverse=True)
    runs = _hub_sweep(dataset, {"base": StrategyConfig(partial_gather=False), **{
        f"threshold={threshold}": replace(strategy, hub_threshold_override=threshold)
        for threshold in thresholds}}, num_workers, hidden_dim)
    series = {name: run.metrics.per_instance("bytes_out") for name, run in runs.items()}
    if by_rank:
        series = {name: dict(enumerate(sorted(load.values()))) for name, load in series.items()}
    setting = (f"{_setting(dataset, 'out', num_workers)}, "
               f"thresholds {'/'.join(map(str, thresholds))}{gap}")
    records: List[Item] = [Record(artifact, "heuristic threshold λ·E/W", "", heuristic,
                                  unit="out-edges")]
    records += [Record(artifact, f"tail IO reduction, threshold={threshold}",
                       papers[threshold != heuristic],
                       _tail_reduction(series, f"threshold={threshold}"), unit="%",
                       setting=setting)
                for threshold in thresholds]
    return records + [Series(artifact, "sorted worker rank" if by_rank else "instance",
                             {f"{name} out bytes": load for name, load in series.items()})]


def fig12(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
          num_workers: int = 16, hidden_dim: int = 32) -> List[Item]:
    """Fig. 12 — output IO per instance for the broadcast strategy at several thresholds.

    Hubs with huge out-degrees dominate their worker's output bytes.
    Broadcast publishes each hub payload once per destination worker and
    sends only id references per edge, so the hub-owning workers' output
    shrinks: the paper reports ~42 % for the 10 % most loaded workers at the
    heuristic threshold, and under 5 % more below it.
    """
    return _threshold_sweep("fig12", StrategyConfig(partial_gather=False, broadcast=True),
                            dataset or _powerlaw("out", num_nodes, avg_degree), num_workers,
                            hidden_dim, ("~42 %", "< 5 % above the heuristic's"), by_rank=False)


def fig13(dataset: Optional[Dataset] = None, num_nodes: int = 20_000, avg_degree: float = 12.0,
          num_workers: int = 16, hidden_dim: int = 32) -> List[Item]:
    """Fig. 13 — output IO per instance for the shadow-nodes strategy.

    Shadow-nodes splits a hub's out-edges across mirrors on different
    workers, so the hub's sending load is spread instead of compressed.  The
    paper plots output bytes against the worker index sorted by output bytes
    and reports ~53 % IO reduction for the tail workers at the heuristic
    threshold; lowering the threshold changes little while roughly doubling
    the memory overhead (every mirror keeps a copy of the in-edges).  The
    saving here is about half the paper's; the gap is open, not tuned away.
    """
    return _threshold_sweep("fig13", StrategyConfig(partial_gather=False, shadow_nodes=True),
                            dataset or _powerlaw("out", num_nodes, avg_degree), num_workers,
                            hidden_dim, ("~53 %", "≈ the heuristic's"), by_rank=True,
                            gap="; gap to the paper open")
