"""Tables I–IV of the paper, each a function that returns its records."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.cluster.cost_model import CostSummary
from repro.cluster.resources import ClusterSpec, WorkerSpec
from repro.datasets.registry import PAPER_STATS, Dataset, list_datasets, load_dataset
from repro.experiments.common import evaluate_scores, run_inference, train_model, untrained_model
from repro.experiments.records import Item, Record
from repro.gnn.model import build_model
from repro.graph.generators import labeled_community_graph
from repro.inference import StrategyConfig


def table1(size: str = "tiny") -> List[Item]:
    """Table I — each synthetic stand-in's statistics beside the paper's dataset."""
    records: List[Item] = []
    for name in list_datasets():
        stats = load_dataset(name, size=size).summary()
        for key, label in (("num_nodes", "#node"), ("num_edges", "#edge"),
                           ("node_feature_dim", "#feat"), ("num_classes", "#class")):
            records.append(Record("table1", f"{name} {label}", PAPER_STATS[name][key],
                                  stats[key], setting=f"synthetic stand-in, size={size}"))
    return records


def table2(datasets: Sequence[str] = ("ppi", "products", "mag240m"),
           archs: Sequence[str] = ("sage", "gat"), size: str = "tiny", num_epochs: int = 4,
           hidden_dim: int = 32, num_workers: int = 4, max_eval_nodes: int = 512) -> List[Item]:
    """Table II — prediction performance parity.

    The paper's claim is not an absolute accuracy but *parity*: InferTurbo
    changes how inference is executed, not the GNN formula, so its metrics
    match the traditional pipeline's (PyG / DGL) on every dataset and
    architecture.  Each model is trained once and its test split scored
    three ways — the traditional pipeline over full neighbourhoods, Pregel
    and MapReduce.  All three are exact, so any gap is floating-point noise.
    A metric can hide a gap (every pipeline may score 0 micro-F1 when no
    logit crosses the threshold), so each dataset also records the largest
    absolute gap between any two pipelines' scores on its eval nodes.
    """
    records: List[Item] = []
    gaps = []
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, size=size)
        eval_nodes = dataset.test_nodes[:max_eval_nodes]
        unit = "micro-F1" if dataset.multilabel else "accuracy"
        score_gap = 0.0
        for arch in archs:
            model, _ = train_model(dataset, arch, hidden_dim=hidden_dim, num_epochs=num_epochs)
            traditional = TraditionalPipeline(model, TraditionalConfig(
                num_workers=num_workers, fanout=None, seed=0)).run(dataset.graph, targets=eval_nodes)
            scores = {"traditional": traditional.scores,
                      "pregel": run_inference(model, dataset, "pregel", num_workers).scores,
                      "mapreduce": run_inference(model, dataset, "mapreduce", num_workers).scores}
            metrics = {pipeline: evaluate_scores(dataset, each, eval_nodes)
                       for pipeline, each in scores.items()}
            records += [Record("table2", f"{arch} {dataset_name} {pipeline}",
                               "" if pipeline == "traditional" else "= traditional", metric, unit=unit)
                        for pipeline, metric in metrics.items()]
            gaps.append(max(metrics.values()) - min(metrics.values()))
            evaluated = [each[eval_nodes] for each in scores.values()]
            score_gap = max([score_gap] + [float(np.abs(one - other).max())
                                           for i, one in enumerate(evaluated)
                                           for other in evaluated[i + 1:]])
        records.append(Record("table2", f"{dataset_name} max score gap between pipelines",
                              "0 (parity)", score_gap, unit="|score|",
                              setting="eval nodes, every arch"))
    records.append(Record("table2", "max metric gap between pipelines", "0 (parity)",
                          max(gaps, default=0.0)))
    return records


def _cost_records(artifact: str, costs: Dict[str, CostSummary],
                  paper_ooms: Optional[Set[str]] = None) -> List[Item]:
    """Time and cpu·min of each labelled run, and its OOM flag beside
    ``paper_ooms`` (the labels that ran out of memory in the paper) if given."""
    records: List[Item] = []
    for label, cost in costs.items():
        records += [Record(artifact, f"{label} time", "", cost.wall_clock_minutes,
                           unit="simulated min"),
                    Record(artifact, f"{label} resource", "", cost.cpu_minutes,
                           unit="simulated cpu·min")]
        if paper_ooms is not None:
            records.append(Record(artifact, f"{label} OOM", label in paper_ooms, cost.oom))
    return records


def _ratio(artifact: str, metric: str, paper: str, costs: Dict[str, CostSummary],
           over: str, under: str, field: str) -> Record:
    """``costs[over].field / costs[under].field`` as a record."""
    ratio = getattr(costs[over], field) / max(getattr(costs[under], field), 1e-12)
    return Record(artifact, metric, paper, ratio, unit="×")


def table3(archs: Sequence[str] = ("sage", "gat"), num_workers: int = 32,
           cost_sample_size: int = 128, size: str = "small") -> List[Item]:
    """Table III — time and resource cost: traditional pipelines vs. InferTurbo.

    The paper reports, for SAGE and GAT on MAG240M, minutes and cpu·min for
    PyG, DGL, InferTurbo-on-MapReduce and InferTurbo-on-Pregel: a 30–50×
    speed-up and 40–50× resource saving.  Both pipelines here run over one
    synthetic MAG240M stand-in and one analytic cost model, so the absolute
    numbers mean nothing and the *ratios* are the reproduced result.

    This reproduction has one traditional k-hop pipeline, not two
    frameworks, so the "PyG" and "DGL" columns are that pipeline at the two
    batch sizes their OGB examples use (roughly why the paper's columns
    differ).  It runs over full neighbourhoods (the OGB configurations for
    MAG240M's 2-layer models), its best case: the redundancy of overlapping
    k-hop neighbourhoods drives the gap regardless.  Following the paper's
    fairness note ("the total CPU cores of inference workers are equal to
    our system"), it gets ``num_workers * 2 / 10`` 10-core workers, so
    total cores match InferTurbo's 2-core instances.
    """
    dataset = load_dataset("mag240m", size=size)
    traditional_workers = max(1, (num_workers * 2) // 10)
    costs: Dict[str, CostSummary] = {}
    for arch in archs:
        model = untrained_model(dataset, arch)
        for pipeline, batch_size in (("pyg_like", 64), ("dgl_like", 128)):
            config = TraditionalConfig(num_workers=traditional_workers, batch_size=batch_size,
                                       fanout=None, seed=0)
            costs[f"{arch} {pipeline}"] = TraditionalPipeline(model, config).estimate_costs(
                dataset.graph, sample_size=cost_sample_size, seed=0).cost
        for backend in ("mapreduce", "pregel"):
            costs[f"{arch} {backend}"] = run_inference(
                model, dataset, backend, num_workers, StrategyConfig(partial_gather=True)).cost

    records = _cost_records("table3", costs)
    for arch in archs:
        for ours in ("pregel", "mapreduce"):
            records += [_ratio("table3", f"{arch} {ours} speedup over pyg_like", "30–50×", costs,
                               f"{arch} pyg_like", f"{arch} {ours}", "wall_clock_minutes"),
                        _ratio("table3", f"{arch} {ours} resource saving over pyg_like", "40–50×",
                               costs, f"{arch} pyg_like", f"{arch} {ours}", "cpu_minutes")]
    return records


def _sparse_mag240m() -> Dataset:
    """A sparser MAG240M-like stand-in so 3-hop neighbourhoods don't saturate.

    At laptop scale a dense graph is fully covered by a 2-hop neighbourhood,
    which would hide the exponential growth the paper measures; a lower
    average degree keeps the 1→2→3 hop growth visible.
    """
    graph = labeled_community_graph(num_nodes=20_000, num_classes=153, feature_dim=64,
                                    avg_degree=6.0, homophily=0.75, noise=1.5, seed=0)
    nodes = np.arange(graph.num_nodes)
    return Dataset(name="mag240m_sparse", graph=graph, train_nodes=nodes[:200],
                   val_nodes=nodes[200:400], test_nodes=nodes[400:],
                   paper_stats=PAPER_STATS["mag240m"])


def table4(dataset: Optional[Dataset] = None, hops: Sequence[int] = (1, 2, 3), num_workers: int = 8,
           traditional_memory_bytes: float = 24e6, cost_sample_size: int = 96) -> List[Item]:
    """Table IV — time / resource vs. number of GNN layers (hops).

    The paper varies the hop count (1, 2, 3) and compares the traditional
    pipeline at neighbour-sampling limits 50 and 10 000 against InferTurbo:
    the traditional costs grow exponentially with hops (and nbr10000 runs
    out of memory at 3 hops), while InferTurbo's grow linearly because every
    node is computed once per layer.  ``nbr5`` plays nbr50's role, scaled to
    the stand-in graph's density; ``nbr10000`` is effectively unlimited.

    The OOM cell comes from the cost model's memory check: the traditional
    worker's budget, ``traditional_memory_bytes``, is scaled down with the
    graph (the paper's workers hold 10 GB against a 120 M-node graph) so
    the subgraph-to-memory ratio is comparable, and the nbr10000 / 3-hop
    cell trips the OOM detector as the paper's run did.
    """
    dataset = dataset or _sparse_mag240m()
    cluster = ClusterSpec(num_workers=num_workers,
                          worker=WorkerSpec(cpu_cores=10, memory_bytes=traditional_memory_bytes))
    costs: Dict[str, CostSummary] = {}
    for num_hops in hops:
        model = build_model("sage", dataset.feature_dim, 64, dataset.num_classes,
                            num_layers=num_hops, seed=0)
        for fanout in (5, 10_000):
            config = TraditionalConfig(num_workers=num_workers, fanout=fanout, seed=0,
                                       cluster=cluster)
            costs[f"nbr{fanout} {num_hops}-hop"] = TraditionalPipeline(model, config).estimate_costs(
                dataset.graph, sample_size=cost_sample_size, seed=0).cost
        costs[f"ours {num_hops}-hop"] = run_inference(
            model, dataset, "mapreduce", num_workers, StrategyConfig(partial_gather=True)).cost

    records = _cost_records("table4", costs, paper_ooms={"nbr10000 3-hop"})
    first, last = hops[0], hops[-1]
    for pipeline, paper in (("nbr5", "exponential"), ("nbr10000", "exponential"),
                            ("ours", "linear")):
        records.append(_ratio("table4", f"{pipeline} time growth {first}→{last} hops", paper,
                              costs, f"{pipeline} {last}-hop", f"{pipeline} {first}-hop",
                              "wall_clock_minutes"))
    return records
