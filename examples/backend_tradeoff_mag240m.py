"""Backend trade-off: Pregel vs MapReduce, against the k-hop baseline.

The paper offers two full-graph backends with an explicit trade-off: the
graph-processing (Pregel) backend is faster but holds node/edge state in
memory for the whole job, while the batch-processing (MapReduce) backend
re-shuffles state every round through external storage, trading time for a
much smaller and more elastic memory footprint.  One loop over
``InferenceConfig(backend=...)`` quantifies both sides on a MAG240M-like
graph, using a trained GAT exported to a signature file and loaded back —
the same deployment flow a production run would use.  The traditional k-hop
pipeline both are measured against adds a third row.

Run:  python examples/backend_tradeoff_mag240m.py
"""

from __future__ import annotations

import os
import tempfile

from example_utils import scaled
from repro.baselines.khop_pipeline import TraditionalConfig, TraditionalPipeline
from repro.datasets import load_dataset
from repro.gnn import build_model, export_signature, load_signature
from repro.inference import InferenceConfig, InferenceSession, StrategyConfig
from repro.training import TrainConfig, Trainer


def main() -> None:
    dataset = load_dataset("mag240m", size="small", seed=0)
    graph = dataset.graph
    print(f"dataset: {dataset.name}  nodes={graph.num_nodes}  edges={graph.num_edges}")

    # Train a 2-layer GAT and ship it through a signature directory.
    model = build_model("gat", dataset.feature_dim, 64, dataset.num_classes,
                        num_layers=2, heads=4, seed=0)
    trainer = Trainer(model, graph, TrainConfig(num_epochs=scaled(3), batch_size=64,
                                                fanout=10, seed=0))
    trainer.fit(dataset.train_nodes)

    with tempfile.TemporaryDirectory() as export_dir:
        signature_dir = os.path.join(export_dir, "gat_mag240m")
        export_signature(model).save(signature_dir)
        print(f"exported trained model to {signature_dir}")
        signature = load_signature(signature_dir)

        results = []
        for backend in ("pregel", "mapreduce"):
            config = InferenceConfig(backend=backend, num_workers=8,
                                     strategies=StrategyConfig(partial_gather=True))
            session = InferenceSession(signature, config)
            session.prepare(graph)
            results.append((backend, session.infer()))
    results.append(("khop", TraditionalPipeline(model, TraditionalConfig(num_workers=8)).run(graph)))

    rows = []
    for backend, result in results:
        peak_memory = max(metric.peak_memory_bytes for metric in result.metrics.instances())
        rows.append((backend, result.cost.wall_clock_seconds, result.cost.cpu_minutes,
                     result.cost.total_bytes / 1e6, peak_memory / 1e6))

    print(f"\n{'backend':<12}{'wall-clock (s)':>16}{'cpu*min':>12}{'MB moved':>12}{'peak MB/worker':>18}")
    for backend, wall, cpu, moved, peak in rows:
        print(f"{backend:<12}{wall:>16.4f}{cpu:>12.5f}{moved:>12.1f}{peak:>18.2f}")

    pregel, mapreduce, khop = rows[0], rows[1], rows[2]
    print(f"\nPregel is {mapreduce[1] / pregel[1]:.1f}x faster; "
          f"MapReduce's peak worker memory is {pregel[4] / mapreduce[4]:.1f}x smaller — "
          f"the trade-off the paper describes (pick per application).")
    print(f"The k-hop baseline pays {khop[2] / pregel[2]:.1f}x the CPU of Pregel for the "
          f"same predictions — the redundant computation full-graph inference removes.")


if __name__ == "__main__":
    main()
