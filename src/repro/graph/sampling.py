"""Neighbour sampling strategies.

K-hop sampling selects, per expanded node and per hop, a subset of in-edges.
The traditional pipeline uses :class:`UniformNeighborSampler` (the "randomly
choose a fixed number of neighbours" strategy the paper describes); InferTurbo
never samples — its full-graph path corresponds to :class:`FullNeighborSampler`
— which is what guarantees prediction consistency across runs (Fig. 7).
"""

from __future__ import annotations

import numpy as np


class NeighborSampler:
    """Strategy interface: choose which in-edge ids to keep for one node."""

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_stochastic(self) -> bool:
        """Whether repeated runs may return different edge subsets."""
        raise NotImplementedError


class FullNeighborSampler(NeighborSampler):
    """Keep every in-edge (no sampling) — deterministic."""

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return edge_ids

    @property
    def is_stochastic(self) -> bool:
        return False


class UniformNeighborSampler(NeighborSampler):
    """Uniformly sample at most ``fanout`` in-edges without replacement.

    This is the stochastic acceleration strategy whose inference-time
    inconsistency the paper measures in Fig. 7 (fanout 10/50/100/1000).
    """

    def __init__(self, fanout: int) -> None:
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        self.fanout = int(fanout)

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if edge_ids.size <= self.fanout:
            return edge_ids
        return rng.choice(edge_ids, size=self.fanout, replace=False)

    @property
    def is_stochastic(self) -> bool:
        return True


class TopKNeighborSampler(NeighborSampler):
    """Keep the ``fanout`` in-edges with the smallest edge id — deterministic.

    A deterministic truncation baseline used in ablations: it removes the
    randomness of uniform sampling but still drops information, so it trades
    the consistency problem for a bias problem.
    """

    def __init__(self, fanout: int) -> None:
        if fanout <= 0:
            raise ValueError("fanout must be positive")
        self.fanout = int(fanout)

    def sample(self, edge_ids: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if edge_ids.size <= self.fanout:
            return edge_ids
        return np.sort(edge_ids)[: self.fanout]

    @property
    def is_stochastic(self) -> bool:
        return False
