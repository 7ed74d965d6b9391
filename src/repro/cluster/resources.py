"""Worker and cluster specifications.

The defaults mirror the paper's two deployments:

* Pregel-like backend — ~1000 instances, 2 CPUs and 10 GB memory each;
* MapReduce backend — ~5000 instances, 2 CPUs and 2 GB memory each;
* 20 Gb/s network.

The experiments scale these down together with the graphs, so only the ratios
matter.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkerSpec:
    """Resources of a single worker instance."""

    cpu_cores: int = 2
    memory_bytes: float = 10e9
    # Sustained effective throughput of one core on the GNN kernels, in
    # "compute units" (≈ multiply-accumulate) per second.  This is a model
    # parameter, not a measurement; only ratios between pipelines matter.  The
    # default is low enough that GNN inference is compute-bound (as in the
    # paper, whose workers sit at 90%+ CPU utilisation), so the redundant
    # computation of the traditional pipeline — not the network — drives the
    # comparison.
    compute_units_per_second: float = 2e8
    network_bandwidth_bytes_per_second: float = 2.5e9  # 20 Gb/s
    # External (spill) storage throughput for the MapReduce backend.
    disk_bandwidth_bytes_per_second: float = 500e6

    @property
    def compute_rate(self) -> float:
        """Total compute units per second across all cores of the worker."""
        return self.cpu_cores * self.compute_units_per_second


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``num_workers`` identical workers."""

    num_workers: int
    worker: WorkerSpec = WorkerSpec()

    @property
    def total_cores(self) -> int:
        return self.num_workers * self.worker.cpu_cores

    @staticmethod
    def pregel_default(num_workers: int = 8) -> "ClusterSpec":
        """Scaled-down analogue of the paper's graph-processing cluster."""
        return ClusterSpec(num_workers=num_workers,
                           worker=WorkerSpec(cpu_cores=2, memory_bytes=10e9))

    @staticmethod
    def mapreduce_default(num_workers: int = 8) -> "ClusterSpec":
        """Scaled-down analogue of the paper's MapReduce cluster."""
        return ClusterSpec(num_workers=num_workers,
                           worker=WorkerSpec(cpu_cores=2, memory_bytes=2e9))

    @staticmethod
    def traditional_default(num_workers: int = 8) -> "ClusterSpec":
        """Scaled-down analogue of the paper's traditional-pipeline workers."""
        return ClusterSpec(num_workers=num_workers,
                           worker=WorkerSpec(cpu_cores=10, memory_bytes=10e9))
