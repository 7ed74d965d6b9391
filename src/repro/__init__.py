"""InferTurbo reproduction — scalable full-graph GNN inference.

Public API overview
-------------------

* :mod:`repro.tensor`     — numpy autodiff + NN substrate
* :mod:`repro.graph`      — attributed graphs, tables, partitioning, sampling
* :mod:`repro.gnn`        — GAS-abstraction GNN layers and model signatures
* :mod:`repro.training`   — mini-batch k-hop training
* :mod:`repro.pregel`     — Pregel-like graph processing engine (both backends
  drive its partitions: supersteps, or MapReduce rounds)
* :mod:`repro.cluster`    — cluster resource / cost model
* :mod:`repro.inference`  — InferenceSession (plan once, infer many) over
  the two interchangeable backends, plus the hub-node optimisation strategies
* :mod:`repro.baselines`  — traditional (k-hop sampling) inference pipeline,
  the baseline the experiments measure InferTurbo against
* :mod:`repro.datasets`   — synthetic stand-ins for the paper's datasets
* :mod:`repro.experiments` — harnesses regenerating every paper table/figure
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "graph",
    "gnn",
    "training",
    "pregel",
    "cluster",
    "inference",
    "baselines",
    "datasets",
    "experiments",
]
