"""Node placement for the distributed backends.

Following Pregel (and the paper's Section IV-C1), node ``v`` and all its
out-edges live on worker ``v mod N``; the execution engine slices its
partitions from the :class:`~repro.cluster.layout.ClusterLayout` this
placement builds.
"""

from __future__ import annotations

import numpy as np


class HashPartitioner:
    """Assign nodes to ``num_partitions`` workers by ``node_id mod N``."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.num_partitions = int(num_partitions)

    def assign_many(self, node_ids: np.ndarray) -> np.ndarray:
        """The partition owning each id in ``node_ids``."""
        return np.asarray(node_ids, dtype=np.int64) % self.num_partitions
